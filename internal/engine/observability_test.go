package engine

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/trace"
)

// scanningMisses caps each indexing scan at two pages (I^MAX), so none
// of runMixedQueries' misses completes the buffer: every one still
// needs an Algorithm-1 pass rather than the complete-buffer answer.
var scanningMisses = Config{Space: core.Config{IMax: 2}}

// runMixedQueries drives hits (covered keys) and misses (uncovered keys,
// triggering indexing scans) through the table so every monitor has data.
func runMixedQueries(t *testing.T, tb *Table) {
	t.Helper()
	for k := int64(1); k <= 10; k++ {
		if _, _, err := tb.QueryRangeCtx(context.Background(), 0, iv(k), iv(k)); err != nil { // covered: hit
			t.Fatal(err)
		}
	}
	for k := int64(60); k <= 70; k++ {
		if _, _, err := tb.QueryRangeCtx(context.Background(), 0, iv(k), iv(k)); err != nil { // miss: indexing scan
			t.Fatal(err)
		}
	}
}

// TestObserveGateInert pins the overhead contract of the one
// observation gate. It is off by default. While it is off, every gated
// point — emit, the statement observer, flightActive and observe's
// timeline and flight tail — allocates nothing, and hits and indexing
// scans leave no span, timeline sample, convergence verdict or
// flight-record detail behind, even for a statement whose flight record
// is open.
func TestObserveGateInert(t *testing.T) {
	e, tb := newABC(t, Config{}, 500, 50)
	if err := tb.CreatePartialIndex(0, index.IntRange(1, 20)); err != nil {
		t.Fatal(err)
	}
	if e.Observing() {
		t.Fatal("observation on by default")
	}
	act, ctx := e.Flight().Begin(context.Background(), "default", "SELECT")
	for k := int64(1); k <= 30; k++ { // 1..20 hit, 21..30 miss into indexing scans
		if _, _, err := tb.QueryRangeCtx(ctx, 0, iv(k), iv(k)); err != nil {
			t.Fatal(err)
		}
	}

	gated := map[string]func(){
		"emit": func() { e.emit(act, trace.SpanPageSelect, "flights.a", -1, 12) },
		"observer": func() {
			if tb.observer(ctx, 0) != nil {
				t.Fatal("statement observer built while off")
			}
		},
		"flightActive": func() {
			fa := e.flightActive(ctx)
			fa.Span(trace.SpanPageSelect, "flights.a", 1, 2)
			fa.Query("flights", "a", trace.MechHit, 1, 1, 0, false)
			fa.WAL(time.Millisecond, 1)
			_ = fa.Trace()
		},
	}
	for name, fn := range gated {
		if avg := testing.AllocsPerRun(200, fn); avg != 0 {
			t.Errorf("%s allocates %v per call while off, want 0", name, avg)
		}
	}
	// observe's gated tail adds nothing to the always-on tracer record.
	hit := exec.QueryStats{PartialHit: true, PagesRead: 1, Matches: 1}
	record := testing.AllocsPerRun(200, func() { e.tracer.Record("flights", "a", trace.MechHit, hit) })
	observe := testing.AllocsPerRun(200, func() { tb.observe(ctx, 0, hit, false) })
	if observe != record {
		t.Errorf("observe allocates %v per call while off, the tracer record alone %v", observe, record)
	}

	if n, c := len(e.Tracer().Spans(1<<20)), e.Tracer().SpanCount(); n != 0 || c != 0 {
		t.Errorf("%d spans retained, SpanCount %d while off", n, c)
	}
	if n := e.Timeline().SampleCount(); n != 0 || len(e.Timeline().Series()) != 0 {
		t.Errorf("timeline took %d samples while off", n)
	}
	if len(e.Convergence()) != 0 {
		t.Error("timeline produced convergence verdicts while off")
	}
	e.Flight().Complete(act, nil)
	if rec := e.Flight().Recent(1)[0]; len(rec.Spans) != 0 || rec.Mechanism != "" || rec.PagesRead != 0 {
		t.Errorf("open flight record filled while off: %+v", rec)
	}
	if st := e.FlightStats(); st.Enabled {
		t.Errorf("FlightStats reports enabled while off: %+v", st)
	}
}

func TestWriteMetrics(t *testing.T) {
	e, tb := newABC(t, scanningMisses, 2000, 100)
	if err := tb.CreatePartialIndex(0, index.IntRange(1, 50)); err != nil {
		t.Fatal(err)
	}
	runMixedQueries(t, tb)

	var sb strings.Builder
	if err := e.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	for _, want := range []string{
		"# TYPE aib_shared_scan_misses_total counter",
		"aib_shared_scan_misses_total 11",
		"aib_shared_scan_passes_total 11",
		"# TYPE aib_space_entries_used gauge",
		`aib_buffer_entries{buffer="flights.a",tenant=""}`,
		`aib_buffer_benefit{buffer="flights.a",tenant=""}`,
		`aib_queries_total{table="flights",column="a"} 21`,
		`aib_query_hits_total{table="flights",column="a"} 10`,
		"# TYPE aib_query_latency_microseconds summary",
		`aib_query_latency_microseconds{mechanism="hit",quantile="0.5"}`,
		`aib_query_latency_microseconds{mechanism="indexing-scan",quantile="0.99"}`,
		`aib_query_latency_microseconds_count{mechanism="hit"} 10`,
		`aib_query_latency_microseconds_count{mechanism="indexing-scan"} 11`,
		"aib_trace_spans_enabled 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q\n---\n%s", want, out)
		}
	}
}

// TestEpochBufferAnswerMetrics is runMixedQueries on a buffer the first
// miss completes (default I^MAX indexes every page): that miss is the
// only one admitted to a shared scan; the other ten are answered from
// the complete buffer on the lock-free path — no admission span, no
// scan fan-out — and count as fast hits while keeping the
// indexing-scan mechanism.
func TestEpochBufferAnswerMetrics(t *testing.T) {
	e, tb := newABC(t, Config{}, 2000, 100)
	if err := tb.CreatePartialIndex(0, index.IntRange(1, 50)); err != nil {
		t.Fatal(err)
	}
	e.Observe(true)
	runMixedQueries(t, tb)

	kinds := make(map[string]int)
	for _, s := range e.Tracer().Spans(1 << 20) {
		kinds[s.Kind]++
	}
	if kinds[trace.SpanMissAdmit] != 1 || kinds[trace.SpanScanLead] != 1 {
		t.Errorf("miss-admit/scan-lead spans = %d/%d, want 1/1", kinds[trace.SpanMissAdmit], kinds[trace.SpanScanLead])
	}
	if ps := e.ParallelScanStats(); kinds["scan-parallel"] != int(ps.Scans) || ps.Scans > 1 {
		t.Errorf("scan-parallel spans = %d, parallel scans = %d, want at most the first miss's", kinds["scan-parallel"], ps.Scans)
	}
	var sb strings.Builder
	if err := e.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"aib_shared_scan_misses_total 1\n",
		"aib_shared_scan_passes_total 1\n",
		"aib_epoch_fast_hits_total 20\n",
		"aib_epoch_fallbacks_total 0\n",
		`aib_queries_total{table="flights",column="a"} 21`,
		`aib_query_latency_microseconds_count{mechanism="hit"} 10`,
		`aib_query_latency_microseconds_count{mechanism="indexing-scan"} 11`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

func TestMetricsLabelEscaping(t *testing.T) {
	if got := escapeLabel("a\\b\"c\nd"); got != `a\\b\"c\nd` {
		t.Errorf("escapeLabel = %q", got)
	}
}

func TestSpansThroughEngine(t *testing.T) {
	e, tb := newABC(t, scanningMisses, 2000, 100)
	if err := tb.CreatePartialIndex(0, index.IntRange(1, 50)); err != nil {
		t.Fatal(err)
	}
	e.Observe(true)
	runMixedQueries(t, tb)

	kinds := make(map[string]int)
	var target string
	for _, s := range e.Tracer().Spans(1 << 20) {
		kinds[s.Kind]++
		if s.Kind == trace.SpanMissAdmit {
			target = s.Target
		}
	}
	if kinds[trace.SpanMissAdmit] != 11 {
		t.Errorf("miss-admit spans = %d, want 11", kinds[trace.SpanMissAdmit])
	}
	if kinds[trace.SpanScanLead] != 11 {
		t.Errorf("scan-lead spans = %d, want 11", kinds[trace.SpanScanLead])
	}
	// Each indexing scan selects at least one page and completes it.
	if kinds[trace.SpanPageSelect] == 0 {
		t.Error("no page-select spans recorded")
	}
	if kinds[trace.SpanPageComplete] == 0 {
		t.Error("no page-complete spans recorded")
	}
	if target != "flights.a" {
		t.Errorf("miss-admit target = %q, want flights.a", target)
	}
	if e.Tracer().SpanCount() == 0 {
		t.Error("SpanCount is zero after recorded spans")
	}
}

// TestSharedScanRecordsFollowers checks that queries riding another
// query's scan land in the shared-follower latency bucket while the
// leader is recorded under its real mechanism.
func TestSharedScanRecordsFollowers(t *testing.T) {
	e, tb := newABC(t, Config{}, 4000, 100)
	if err := tb.CreatePartialIndex(0, index.IntRange(1, 10)); err != nil {
		t.Fatal(err)
	}
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(k int64) {
			defer wg.Done()
			if _, _, err := tb.QueryRangeCtx(context.Background(), 0, iv(50+k), iv(50+k)); err != nil {
				t.Error(err)
			}
		}(int64(i))
	}
	wg.Wait()

	byMech := make(map[string]int)
	for _, l := range e.Tracer().LatencyStats() {
		byMech[l.Mechanism] = l.Count
	}
	scans := int(e.SharedScanStats().Scans)
	if byMech["indexing-scan"] != scans {
		t.Errorf("indexing-scan latencies = %d, want %d (one per pass)",
			byMech["indexing-scan"], scans)
	}
	if byMech["shared-follower"] != n-scans {
		t.Errorf("shared-follower latencies = %d, want %d",
			byMech["shared-follower"], n-scans)
	}
}

// TestTracerStressWithQueries races real queries against every tracer
// and metrics reader under -race: Recent, Aggregates, LatencyStats,
// Spans, Reset and WriteMetrics all run while indexing
// scans mutate the buffers and record events.
func TestTracerStressWithQueries(t *testing.T) {
	e, tb := newABC(t, Config{}, 2000, 200)
	if err := tb.CreatePartialIndex(0, index.IntRange(1, 20)); err != nil {
		t.Fatal(err)
	}
	e.Observe(true)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				k := int64(1 + (g*31+i*7)%200)
				if _, _, err := tb.QueryRangeCtx(context.Background(), 0, iv(k), iv(k)); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var sink strings.Builder
			for i := 0; i < 50; i++ {
				switch i % 6 {
				case 0:
					e.Tracer().Recent(16)
				case 1:
					e.Tracer().Aggregates()
				case 2:
					e.Tracer().LatencyStats()
				case 3:
					e.Tracer().Spans(32)
				case 4:
					sink.Reset()
					if err := e.WriteMetrics(&sink); err != nil {
						t.Error(err)
					}
				case 5:
					if g == 0 && i == 29 {
						e.Tracer().Reset()
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
