// Command perfbench is the repository's benchmark. It drives an
// in-process aibserver (server.New over repro.DB) over loopback TCP with
// two closed-loop connections, checks every answer against a model of
// the generated rows, and prints the end-to-end metrics; with --trace 1
// it adds a serial replay at three depths plus layer probes and prints
// the per-layer metrics instead. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload scan-churn --seed 1 --seconds 10 --trace 0
//
// NOTES.md describes the workloads, the metrics and what each layer
// metric is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload: point-adapted, scan-churn or write-mixed")
	seed := flag.Int64("seed", 1, "seed of the generated rows and statement streams")
	seconds := flag.Int("seconds", 10, "length of the measured phase")
	traced := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench-run", "directory for database files and span dumps")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// report collects metrics in print order. Noted metrics are printed
// but left out of the JSON result.
type report struct {
	names   []string
	metrics map[string]metric
	noted   map[string]metric
	samples map[string]int
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) add(name string, value float64, unit string, n int) {
	r.put(&r.metrics, name, value, unit, n)
}

// append adds o's metrics after r's.
func (r *report) append(o *report) {
	for _, nm := range o.names {
		if m, ok := o.metrics[nm]; ok {
			r.add(nm, m.Value, m.Unit, o.samples[nm])
		} else {
			r.note(nm, o.noted[nm].Value, o.noted[nm].Unit, o.samples[nm])
		}
	}
}

func (r *report) note(name string, value float64, unit string, n int) {
	r.put(&r.noted, name, value, unit, n)
}

func (r *report) put(into *map[string]metric, name string, value float64, unit string, n int) {
	if *into == nil {
		*into = map[string]metric{}
	}
	if r.samples == nil {
		r.samples = map[string]int{}
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	r.names = append(r.names, name)
	(*into)[name] = metric{value, unit}
	r.samples[name] = n
}

func run(name string, seed int64, seconds int, traced bool, out string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds %d: want at least 1", seconds)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(out, w.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	d := w.generate(seed)
	n := w.setups
	if traced {
		n = 1 // the traced run reports no set-up time
	}
	var took []float64
	var in *instance
	for i := 0; i < n; i++ {
		x, t, err := w.setup(d, scratch, 0)
		if err != nil {
			return err
		}
		took = append(took, t.Seconds())
		if i < n-1 {
			if err := x.close(); err != nil {
				return err
			}
		} else {
			in = x
		}
	}
	ph, err := w.run(in, d, seed, seconds)
	if err != nil {
		in.close()
		return err
	}
	spaceUsed, pages := in.db.SpaceUsed(), in.db.Table("t").NumPages()
	if err := in.close(); err != nil {
		return err
	}
	for _, v := range ph.violations {
		fmt.Fprintln(os.Stderr, "quota violation:", v)
	}

	attempted, failed := ph.attempted, ph.failed
	var rep report
	if !traced {
		rep.add("setup_s", median(took), "s", len(took))
		rep.append(&ph.e2e)
	} else {
		a, f, err := w.traced(d, seed, scratch, spanPath(out, w.name, seed), ph, spaceUsed, &rep)
		if err != nil {
			return err
		}
		attempted += a
		failed += f
	}

	fmt.Printf("workload %s seed %d: %d connections closed loop, %d s measured, %d statements, %d wrong\n",
		w.name, seed, conns, seconds, attempted, failed)
	fmt.Printf("table t: %d rows loaded, %d pages at the end, pool %d pages, SpaceLimit %d (0 = unlimited), durable %v\n",
		w.rows, pages, w.pool(), w.spaceLimit, w.durable)
	fmt.Printf("%-34s %16s  %-6s %s\n", "metric", "value", "unit", "samples")
	for _, nm := range rep.names {
		m, ok := rep.metrics[nm]
		if !ok {
			m = rep.noted[nm]
		}
		fmt.Printf("%-34s %16.6f  %-6s %d\n", nm, m.Value, m.Unit, rep.samples[nm])
	}
	fmt.Printf("%-34s %16.6f  %-6s %d\n", "error_frac", float64(failed)/float64(max(attempted, 1)), "1", attempted)
	enc, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0 && len(ph.violations) == 0, attempted, failed, rep.metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(enc))
	return nil
}

// traced runs the three-depth replay and the probes, and adds the
// per-layer metrics. ph is the end-to-end phase the run made first; its
// counter deltas give the metrics only concurrency produces. It returns
// the statements the replays sent and how many were answered wrongly.
func (w *workload) traced(d *data, seed int64, scratch, spanFile string, ph *phase, spaceUsed int, rep *report) (attempted, failed int, err error) {
	sc := w.script(d, seed)
	rec := &spans{base: time.Now()}
	aOff, _, f0, err := w.replayWire(d, sc, scratch, nil)
	if err != nil {
		return 0, 0, fmt.Errorf("replay A (spans off): %w", err)
	}
	aOn, replyBytes, f1, err := w.replayWire(d, sc, scratch, rec)
	if err != nil {
		return 0, 0, fmt.Errorf("replay A: %w", err)
	}
	bT, f2, err := w.replayExec(d, sc, scratch, rec)
	if err != nil {
		return 0, 0, fmt.Errorf("replay B: %w", err)
	}
	cT, lc, e, f3, err := w.replayEngine(d, sc, scratch, rec)
	if err != nil {
		return 0, 0, fmt.Errorf("replay C: %w", err)
	}
	probes, err := w.probes(d, e, seed, scratch)
	e.eng.Close()
	if err != nil {
		return 0, 0, err
	}
	if err := rec.write(spanFile); err != nil {
		return 0, 0, err
	}

	var aOffSum, aOnSum time.Duration
	var serverSelf, shellSelf []time.Duration
	var engSel [2][]time.Duration
	var engWrite []time.Duration
	for i, st := range sc {
		if !st.recorded {
			continue
		}
		aOffSum += aOff[i]
		aOnSum += aOn[i]
		serverSelf = append(serverSelf, aOn[i]-bT[i])
		shellSelf = append(shellSelf, bT[i]-cT[i])
		if st.class == write {
			engWrite = append(engWrite, cT[i])
		} else {
			engSel[st.class] = append(engSel[st.class], cT[i])
		}
	}
	recorded := len(serverSelf)
	us := func(ds []time.Duration) float64 { return float64(quantile(ds, 0.5).Nanoseconds()) / 1e3 }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	rep.add("server.self_us", us(serverSelf), "us", recorded)
	rep.add("shell.self_us", us(shellSelf), "us", recorded)
	rep.add("shell.reply_bytes", replyBytes, "bytes", recorded)
	rep.add("engine.select_us.covered", us(engSel[covered]), "us", len(engSel[covered]))
	rep.add("engine.select_us.uncovered", us(engSel[uncovered]), "us", len(engSel[uncovered]))
	rep.add("engine.write_us", us(engWrite), "us", len(engWrite))
	sh0, sh1 := ph.before.shared, ph.after.shared
	rep.add("engine.shared_scan_saved_frac", ratio(float64(sh1.Saved-sh0.Saved), float64(sh1.Misses-sh0.Misses)), "1", int(sh1.Misses-sh0.Misses))
	ep0, ep1 := ph.before.epoch, ph.after.epoch
	rep.add("epoch.fast_hit_frac", ratio(float64(ep1.FastHits-ep0.FastHits), float64(ph.selects)), "1", ph.selects)
	rep.add("epoch.fallback_frac", ratio(float64(ep1.Fallbacks-ep0.Fallbacks), float64(ph.selects)), "1", ph.selects)

	rep.add("exec.pages_read_per_select", ratio(float64(lc.pagesRead), float64(lc.selects)), "pages", lc.selects)
	rep.add("exec.pages_skipped_frac", ratio(float64(lc.pagesSkipped), float64(lc.pagesRead+lc.pagesSkipped)), "1", lc.selects)
	rep.add("exec.indexing_scan_frac", ratio(float64(lc.indexingScans), float64(lc.selects)), "1", lc.selects)
	rep.add("exec.buffer_match_frac", ratio(float64(lc.bufferMatches), float64(lc.matches)), "1", lc.matches)
	rep.add("core.entries_added_per_select", ratio(float64(lc.entriesAdded), float64(lc.selects)), "entries", lc.selects)
	rep.add("core.entries_dropped_per_select", ratio(float64(lc.entriesDrop), float64(lc.selects)), "entries", lc.selects)
	rep.add("core.space_used_frac", ratio(float64(spaceUsed), float64(w.spaceLimit)), "1", 1)
	rep.add("buffer.hit_frac", ratio(float64(lc.pool.Hits), float64(lc.pool.Hits+lc.pool.Misses)), "1", int(lc.pool.Hits+lc.pool.Misses))
	rep.add("buffer.evictions_per_select", ratio(float64(lc.pool.Evictions), float64(lc.selects)), "pages", lc.selects)

	wl0, wl1 := ph.before.wal, ph.after.wal
	batches := wl1.CommitBatch.Count - wl0.CommitBatch.Count
	rep.add("wal.fsyncs_per_write", ratio(float64(wl1.Syncs-wl0.Syncs), float64(ph.writes)), "1", ph.writes)
	rep.add("wal.commit_batch_mean", ratio(wl1.CommitBatch.Sum-wl0.CommitBatch.Sum, float64(batches)), "records", batches)
	rep.add("wal.bytes_per_user_byte", ratio(float64(wl1.Bytes-wl0.Bytes), float64(ph.userBytes)), "1", ph.writes)
	for _, p := range probes {
		rep.add(p.name, p.value, p.unit, 1)
	}
	rep.add("trace.overhead_frac", ratio(float64(aOnSum-aOffSum), float64(aOffSum)), "1", recorded)
	return 4 * len(sc), f0 + f1 + f2 + f3, nil
}

// windows is the number of slices a phase is cut into; latency and
// throughput metrics are medians over the slices, so a stall in one
// slice moves them less than it moves a whole-phase figure.
const windows = 10

// windowed cuts xs, in send order, into up to windows slices that each
// keep at least ten samples beyond the q-quantile, and returns the
// median over the slices of each slice's q-quantile, in milliseconds.
func windowed(xs []obs, q float64) float64 {
	sort.Slice(xs, func(i, j int) bool { return xs[i].at < xs[j].at })
	k := max(1, min(windows, int(float64(len(xs))*(1-q)/10)))
	per := make([]float64, k)
	for i := range per {
		slice := xs[i*len(xs)/k : (i+1)*len(xs)/k]
		ds := make([]time.Duration, len(slice))
		for j, o := range slice {
			ds[j] = o.d
		}
		per[i] = float64(quantile(ds, q).Nanoseconds()) / 1e6
	}
	return median(per)
}

// throughput is the median over windows equal slices of the phase of
// the statements answered per second.
func throughput(xs []obs, elapsed time.Duration) float64 {
	counts := make([]float64, windows)
	for _, o := range xs {
		counts[min(int(o.at*windows/elapsed), windows-1)]++
	}
	for i := range counts {
		counts[i] /= elapsed.Seconds() / windows
	}
	return median(counts)
}

// quantile is the nearest-rank q-quantile of ds (0 for none); ds is
// sorted in place.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(math.Ceil(q*float64(len(ds)))) - 1
	return ds[max(i, 0)]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
