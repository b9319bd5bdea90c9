package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro"
	"repro/internal/server"
)

// instance is one database served by an in-process aibserver on an
// ephemeral loopback port. Its DataDir, if any, lives in the run's
// scratch directory, which is removed when the run ends.
type instance struct {
	db   *repro.DB
	srv  *server.Server
	addr string
}

func (w *workload) open(scratch string, scanParallelism int) (*instance, error) {
	dir, err := w.dataDir(scratch)
	if err != nil {
		return nil, err
	}
	db, err := repro.Open(w.options(dir, scanParallelism))
	if err != nil {
		return nil, err
	}
	in := &instance{db: db}
	in.srv = server.New(db, server.Config{})
	addr, err := in.srv.Start()
	if err != nil {
		in.close()
		return nil, err
	}
	in.addr = addr.String()
	return in, nil
}

func (in *instance) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := in.srv.Shutdown(ctx)
	if cerr := in.db.Close(); err == nil {
		err = cerr
	}
	return err
}

// setup opens a database and loads the workload's table over the wire:
// CREATE TABLE, multi-row INSERTs, then the partial indexes. It returns
// the instance and the wall time of all of it.
func (w *workload) setup(d *data, scratch string, scanParallelism int) (*instance, time.Duration, error) {
	start := time.Now()
	in, err := w.open(scratch, scanParallelism)
	if err != nil {
		return nil, 0, err
	}
	err = func() error {
		c, err := dial(in.addr)
		if err != nil {
			return err
		}
		defer c.close()
		stmts := append([]string{w.createTable()}, w.loadStatements(d)...)
		for _, s := range append(stmts, w.createIndexes()...) {
			if err := c.mustOK(s); err != nil {
				return err
			}
		}
		return nil
	}()
	took := time.Since(start)
	if err != nil {
		in.close()
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return in, took, nil
}

// obs is one timed statement: when it was sent, relative to the start
// of its phase, and its round trip.
type obs struct{ at, d time.Duration }

// samples holds one phase's client-side observations.
type samples struct {
	lat       [3][]obs // correctly answered statements, by class
	attempted int
	failed    int
	correct   int // correctly answered statements of the measured phase
	userBytes int // encoded tuple bytes written by INSERTs and UPDATEs
}

func (s *samples) merge(o *samples) {
	for c := range s.lat {
		s.lat[c] = append(s.lat[c], o.lat[c]...)
	}
	s.attempted += o.attempted
	s.failed += o.failed
	s.correct += o.correct
	s.userBytes += o.userBytes
}

// check runs one statement and records whether its answer was right.
// It returns the round trip, or an error if the connection failed.
func check(c *client, st stmt, s *samples) (time.Duration, bool, error) {
	t0 := time.Now()
	r, err := c.do(st.text)
	d := time.Since(t0)
	if err != nil {
		return 0, false, err
	}
	s.attempted++
	ok := r.OK && r.Rows == st.want
	if !ok {
		s.failed++
		if s.failed <= 5 {
			fmt.Fprintf(os.Stderr, "wrong answer: %q: ok=%v rows=%d want %d %s\n", st.text, r.OK, r.Rows, st.want, r.Error)
		}
	}
	return d, ok, nil
}

// closedLoop runs one goroutine per connection; each sends next()'s
// statement and waits for the reply before sending another, until
// stop(n, now) says so. When timed, the round trips are recorded.
func closedLoop(addr string, next func(conn int) stmt, stop func(n int, now time.Time) bool, timed bool) (*samples, error) {
	start := time.Now()
	var wg sync.WaitGroup
	res := make([]samples, conns)
	errs := make([]error, conns)
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := dial(addr)
			if err != nil {
				errs[i] = err
				return
			}
			defer c.close()
			s := &res[i]
			for n := 0; ; n++ {
				t0 := time.Now()
				if stop(n, t0) {
					break
				}
				st := next(i)
				d, ok, err := check(c, st, s)
				if err != nil {
					errs[i] = err
					return
				}
				if !ok || !timed {
					continue
				}
				s.correct++
				s.lat[st.class] = append(s.lat[st.class], obs{t0.Sub(start), d})
				if st.class == write {
					s.userBytes += st.bytes
				}
			}
		}(i)
	}
	wg.Wait()
	total := &samples{}
	for i := range res {
		if errs[i] != nil {
			return nil, fmt.Errorf("connection %d: %w", i, errs[i])
		}
		total.merge(&res[i])
	}
	return total, nil
}

// phase is the outcome of one end-to-end run on a set-up instance.
type phase struct {
	e2e        report   // the end-to-end metrics except setup_s
	attempted  int      // statements sent, warm-up and side-table writes included
	failed     int      // ... of which answered wrongly
	selects    int      // SELECTs of the measured phase
	writes     int      // writes of the measured phase
	userBytes  int      // encoded tuple bytes the measured phase's writes stored
	violations []string // server.VerifyQuotas findings
	before     snapshot // engine counters at the start of the measured phase
	after      snapshot // ... and at its end
}

func (ph *phase) count(s *samples) {
	ph.attempted += s.attempted
	ph.failed += s.failed
}

// addWrites adds the write latency metrics of one phase's writes.
func (r *report) addWrites(ws []obs) {
	r.add("write_p50_ms", windowed(ws, 0.5), "ms", len(ws))
	r.note("write_p95_ms", windowed(ws, 0.95), "ms", len(ws))
	r.note("write_p99_ms", windowed(ws, 0.99), "ms", len(ws))
}

// snapshot reads the concurrency counters the traced run reports.
type snapshot struct {
	shared repro.SharedScanStats
	epoch  repro.EpochStats
	wal    repro.WALTelemetry
}

func snap(db *repro.DB) snapshot {
	s := snapshot{shared: db.SharedScanStats(), epoch: db.EpochStats()}
	s.wal, _ = db.WALTelemetry() // zero without a WAL
	return s
}

// run drives the workload against a set-up instance: a serial warm-up,
// the timed closed-loop phase, the heap measurement, then (read-only
// mixes) timed side-table writes, and finally the quota check. The
// latency metrics are taken as each phase ends, and its samples dropped
// before the heap is measured.
func (w *workload) run(in *instance, d *data, seed int64, seconds int) (*phase, error) {
	ph := &phase{}
	streams := w.streams(d, seed)
	warm, err := dial(in.addr)
	if err != nil {
		return nil, err
	}
	untimed := &samples{}
	for _, st := range w.warmupStmts(d) {
		if _, _, err := check(warm, st, untimed); err != nil {
			warm.close()
			return nil, err
		}
	}
	warm.close()
	ph.count(untimed)
	next := func(conn int) stmt { return streams[conn].next() }
	if w.warmup > 0 {
		s, err := closedLoop(in.addr, next, func(n int, _ time.Time) bool { return n >= w.warmup }, false)
		if err != nil {
			return nil, err
		}
		ph.count(s)
	}

	measure := time.Duration(seconds) * time.Second
	if w.readOnly() {
		measure = time.Duration(float64(measure) * (1 - sideShare))
	}
	ph.before = snap(in.db)
	start := time.Now()
	deadline := start.Add(measure)
	m, err := closedLoop(in.addr, next, func(_ int, now time.Time) bool { return now.After(deadline) }, true)
	elapsed := time.Since(start)
	ph.after = snap(in.db)
	if err != nil {
		return nil, err
	}
	ph.count(m)
	ph.selects = len(m.lat[covered]) + len(m.lat[uncovered])
	ph.writes = len(m.lat[write])
	ph.userBytes = m.userBytes
	selects := append(append([]obs(nil), m.lat[covered]...), m.lat[uncovered]...)
	all := append(append([]obs(nil), selects...), m.lat[write]...)
	r := &ph.e2e
	r.add("throughput_sps", throughput(all, elapsed), "1/s", m.correct)
	r.add("covered_p50_ms", windowed(m.lat[covered], 0.5), "ms", len(m.lat[covered]))
	r.add("uncovered_p50_ms", windowed(m.lat[uncovered], 0.5), "ms", len(m.lat[uncovered]))
	r.add("select_p95_ms", windowed(selects, 0.95), "ms", len(selects))
	// Printed but not in the result: this tail swings too much from run
	// to run to gate on (NOTES.md, "Tails").
	r.note("select_p99_ms", windowed(selects, 0.99), "ms", len(selects))
	if !w.readOnly() {
		r.addWrites(m.lat[write])
	}
	runtime.GC() // the samples are dead here, so they do not count
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.add("live_heap_mb", float64(ms.HeapAlloc)/(1<<20), "MB", 1)
	if w.readOnly() {
		c, err := dial(in.addr)
		if err != nil {
			return nil, err
		}
		for _, s := range sideDDL {
			if err := c.mustOK(s); err != nil {
				c.close()
				return nil, err
			}
		}
		c.close()
		sideEnd := time.Now().Add(time.Duration(seconds)*time.Second - measure)
		side, err := closedLoop(in.addr, sideStream(seed),
			func(_ int, now time.Time) bool { return now.After(sideEnd) }, true)
		if err != nil {
			return nil, err
		}
		ph.count(side)
		r.addWrites(side.lat[write])
	}

	ph.violations = server.VerifyQuotas(in.db, w.spaceLimit)
	return ph, nil
}
