package trace

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/exec"
)

func stats(hit, full bool, pages, skipped, matches int) exec.QueryStats {
	return exec.QueryStats{
		PartialHit:   hit,
		FullScan:     full,
		PagesRead:    pages,
		PagesSkipped: skipped,
		Matches:      matches,
		Duration:     3 * time.Millisecond,
	}
}

// record files st under the mechanism its flags imply, as the engine
// does.
func record(tr *Tracer, table, column string, follower bool, st exec.QueryStats) {
	tr.Record(table, column, Mechanism(st, follower), st)
}

// TestTracerMechanism pins the one mechanism vocabulary and its
// priority: hit beats follower beats full scan beats degraded scan.
func TestTracerMechanism(t *testing.T) {
	cases := []struct {
		hit, follower, full, degraded bool
		want                          string
	}{
		{true, true, true, true, MechHit},
		{true, false, false, false, MechHit},
		{false, true, true, true, MechFollower},
		{false, false, true, true, MechFullScan},
		{false, false, false, true, MechDegradedScan},
		{false, false, false, false, MechIndexingScan},
	}
	for _, c := range cases {
		st := exec.QueryStats{PartialHit: c.hit, FullScan: c.full, QuotaDegraded: c.degraded}
		if got := Mechanism(st, c.follower); got != c.want {
			t.Errorf("Mechanism(hit=%v follower=%v full=%v degraded=%v) = %q, want %q",
				c.hit, c.follower, c.full, c.degraded, got, c.want)
		}
	}
	names := map[string]string{
		MechHit: "hit", MechIndexingScan: "indexing-scan", MechFullScan: "full-scan",
		MechDegradedScan: "degraded-scan", MechFollower: "shared-follower",
	}
	for got, want := range names {
		if got != want {
			t.Errorf("mechanism name %q, want %q", got, want)
		}
	}
}

func TestRecordAndAggregates(t *testing.T) {
	tr := New(16)
	record(tr, "t", "a", false, stats(true, false, 5, 0, 2))
	record(tr, "t", "a", false, stats(false, false, 10, 90, 1))
	record(tr, "t", "b", false, stats(false, true, 100, 0, 0))

	aggs := tr.Aggregates()
	if len(aggs) != 2 {
		t.Fatalf("aggregates = %d", len(aggs))
	}
	a := aggs[0]
	if a.Column != "a" || a.Queries != 2 || a.Hits != 1 {
		t.Errorf("agg a = %+v", a)
	}
	if a.HitRate() != 0.5 {
		t.Errorf("hit rate = %v", a.HitRate())
	}
	if a.MeanPages() != 7.5 {
		t.Errorf("mean pages = %v", a.MeanPages())
	}
	if got := a.SkipShare(); got < 0.85 || got > 0.87 { // 90/(15+90)
		t.Errorf("skip share = %v", got)
	}
	b := aggs[1]
	if b.Column != "b" || b.HitRate() != 0 || b.SkipShare() != 0 {
		t.Errorf("agg b = %+v", b)
	}
}

func TestZeroQueryAggregates(t *testing.T) {
	var a Aggregate
	if a.HitRate() != 0 || a.MeanPages() != 0 || a.SkipShare() != 0 {
		t.Error("zero aggregate should report zeros")
	}
}

func TestRecentRingOrder(t *testing.T) {
	tr := New(3)
	for i := 1; i <= 5; i++ {
		record(tr, "t", "a", false, stats(false, false, i, 0, 0))
	}
	got := tr.Recent(10) // more than capacity: clipped to 3
	if len(got) != 3 {
		t.Fatalf("recent = %d events", len(got))
	}
	// Newest first: pages 5, 4, 3.
	for i, want := range []int{5, 4, 3} {
		if got[i].PagesRead != want {
			t.Errorf("recent[%d].PagesRead = %d, want %d", i, got[i].PagesRead, want)
		}
	}
	if got[0].Mechanism != "indexing-scan" {
		t.Errorf("mechanism = %q", got[0].Mechanism)
	}
}

func TestReportAndReset(t *testing.T) {
	tr := New(8)
	if tr.Report(nil) != "no queries recorded" {
		t.Errorf("empty report = %q", tr.Report(nil))
	}
	record(tr, "flights", "airport", false, stats(true, false, 3, 0, 1))
	rep := tr.Report(nil)
	if !strings.Contains(rep, "flights.airport") || !strings.Contains(rep, "100.0%") {
		t.Errorf("report = %q", rep)
	}
	if got := tr.Report(func(table string) bool { return table != "flights" }); got != "no queries recorded" {
		t.Errorf("filtered report = %q, want no queries", got)
	}
	tr.Reset()
	if tr.Report(nil) != "no queries recorded" || len(tr.Recent(5)) != 0 {
		t.Error("reset did not clear")
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := New(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				record(tr, "t", "a", false, stats(i%2 == 0, false, 1, 1, 0))
				_ = tr.Recent(5)
				_ = tr.Aggregates()
			}
		}()
	}
	wg.Wait()
	aggs := tr.Aggregates()
	if len(aggs) != 1 || aggs[0].Queries != 1600 {
		t.Errorf("aggs = %+v", aggs)
	}
}

// TestTracerStress hammers every tracer entry point — including Reset
// and the span ring — from parallel goroutines; under -race this is the
// monitor-correctness stress test CI runs.
func TestTracerStress(t *testing.T) {
	tr := New(32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				switch i % 6 {
				case 0:
					record(tr, "t", "a", false, stats(i%2 == 0, false, 2, 1, 1))
				case 1:
					record(tr, "t", "a", true, stats(false, false, 2, 1, 1))
				case 2:
					tr.Span(SpanMissAdmit, "t.a", -1, 0, "")
					_ = tr.Spans(10)
				case 3:
					_ = tr.Recent(7)
					_ = tr.Aggregates()
				case 4:
					_ = tr.LatencyStats()
					_ = tr.Report(nil)
				case 5:
					if g == 0 {
						tr.Reset()
					} else {
						_ = tr.SpanCount()
					}
				}
			}
		}(g)
	}
	wg.Wait()
	// Sequence numbers stay monotonic across concurrent Resets.
	spans := tr.Spans(32)
	for i := 1; i < len(spans); i++ {
		if spans[i-1].Seq <= spans[i].Seq {
			t.Fatalf("spans not newest-first monotonic: %d then %d", spans[i-1].Seq, spans[i].Seq)
		}
	}
}

// TestRecentNegative is the regression test for the Recent(n < 0) panic
// (negative cap passed to make).
func TestRecentNegative(t *testing.T) {
	tr := New(4)
	record(tr, "t", "a", false, stats(false, false, 1, 0, 0))
	if got := tr.Recent(-1); len(got) != 0 {
		t.Errorf("Recent(-1) = %d events, want 0", len(got))
	}
	if got := tr.Spans(-3); len(got) != 0 {
		t.Errorf("Spans(-3) = %d spans, want 0", len(got))
	}
}

// TestReportMeanMicros covers the µs/query column: WallMicros was
// historically accumulated into the aggregate but never surfaced.
func TestReportMeanMicros(t *testing.T) {
	tr := New(8)
	record(tr, "t", "a", false, stats(true, false, 1, 0, 0)) // 3ms each
	record(tr, "t", "a", false, stats(true, false, 1, 0, 0))
	a := tr.Aggregates()[0]
	if got := a.MeanWallMicros(); got != 3000 {
		t.Errorf("MeanWallMicros = %v, want 3000", got)
	}
	rep := tr.Report(nil)
	if !strings.Contains(rep, "µs/query") {
		t.Errorf("report missing µs/query header: %q", rep)
	}
	if !strings.Contains(rep, "3000.0") {
		t.Errorf("report missing mean latency value: %q", rep)
	}
}

func TestLatencyStatsPerMechanism(t *testing.T) {
	tr := New(8)
	record(tr, "t", "a", false, stats(true, false, 1, 0, 0))  // hit
	record(tr, "t", "a", false, stats(false, false, 5, 0, 0)) // indexing-scan
	record(tr, "t", "b", false, stats(false, true, 9, 0, 0))  // full-scan
	record(tr, "t", "a", true, stats(false, false, 5, 0, 0))
	record(tr, "t", "a", true, stats(true, false, 1, 0, 0)) // follower served as hit

	ls := tr.LatencyStats()
	got := map[string]int{}
	for _, l := range ls {
		got[l.Mechanism] = l.Count
		if l.Count > 0 && l.P50 != 3000 {
			t.Errorf("%s p50 = %v, want 3000", l.Mechanism, l.P50)
		}
	}
	want := map[string]int{"hit": 2, "indexing-scan": 1, "full-scan": 1, "shared-follower": 1}
	for m, n := range want {
		if got[m] != n {
			t.Errorf("mechanism %q count = %d, want %d (all: %v)", m, got[m], n, got)
		}
	}
}

// TestSpansDisabledByDefault pins that spans are opt-in: recording
// query outcomes never produces a span, so a tracer the engine feeds
// only through Record (its observation gate off) retains none.
func TestSpansDisabledByDefault(t *testing.T) {
	tr := New(8)
	record(tr, "t", "a", false, stats(true, false, 5, 0, 2))
	record(tr, "t", "a", false, stats(false, false, 10, 90, 1))
	if got := tr.Spans(10); len(got) != 0 {
		t.Errorf("spans recorded by query outcomes alone: %v", got)
	}
	if tr.SpanCount() != 0 {
		t.Errorf("SpanCount = %d with no span emitted", tr.SpanCount())
	}
}

// TestSpanDisabledZeroAlloc pins the cost of a span while the telemetry
// sink is detached: it fills a preallocated ring slot and allocates
// nothing, before a sink is ever attached and after one is removed.
func TestSpanDisabledZeroAlloc(t *testing.T) {
	tr := New(8)
	span := func() { tr.Span(SpanPageSelect, "t.a", -1, 12, "trace-1") }
	if avg := testing.AllocsPerRun(200, span); avg != 0 {
		t.Errorf("Span without a sink allocates %v per call, want 0", avg)
	}
	tr.SetSpanSink(func(Span) {})
	tr.SetSpanSink(nil)
	if avg := testing.AllocsPerRun(200, span); avg != 0 {
		t.Errorf("Span after the sink is removed allocates %v per call, want 0", avg)
	}
	if got := tr.Spans(1); len(got) != 1 || got[0].Kind != SpanPageSelect || got[0].Trace != "trace-1" {
		t.Errorf("span not retained: %v", got)
	}
}

func TestSpanRingOrderAndWrap(t *testing.T) {
	tr := New(3)
	for i := 1; i <= 5; i++ {
		tr.Span(SpanPageComplete, "t.a", i, i*10, "")
	}
	got := tr.Spans(10)
	if len(got) != 3 {
		t.Fatalf("spans = %d, want 3", len(got))
	}
	// Newest first: pages 5, 4, 3 with seq 5, 4, 3.
	for i, want := range []int{5, 4, 3} {
		if got[i].Page != want || got[i].Seq != uint64(want) || got[i].N != want*10 {
			t.Errorf("spans[%d] = %+v, want page/seq %d", i, got[i], want)
		}
		if got[i].Kind != SpanPageComplete || got[i].Target != "t.a" {
			t.Errorf("spans[%d] = %+v", i, got[i])
		}
	}
	if tr.SpanCount() != 5 {
		t.Errorf("SpanCount = %d, want 5", tr.SpanCount())
	}
	// Reset clears the ring but the sequence keeps counting.
	tr.Reset()
	if len(tr.Spans(10)) != 0 {
		t.Error("Reset did not clear spans")
	}
	tr.Span(SpanMissAdmit, "t.a", -1, 0, "")
	if got := tr.Spans(1); len(got) != 1 || got[0].Seq != 6 {
		t.Errorf("post-Reset span = %+v, want seq 6", got)
	}
}

func BenchmarkSpan(b *testing.B) {
	tr := New(512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Span(SpanMissAdmit, "t.a", -1, 0, "")
	}
}

func BenchmarkRecord(b *testing.B) {
	tr := New(512)
	st := stats(true, false, 3, 0, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		record(tr, "t", "a", false, st)
	}
}

func TestCapacityClamp(t *testing.T) {
	tr := New(0)
	record(tr, "t", "a", false, stats(false, false, 1, 0, 0))
	if got := tr.Recent(5); len(got) != 1 {
		t.Errorf("recent = %d", len(got))
	}
}

// TestRecentSpansClampBoundaries pins the shared clamp behavior of the
// two ring readers at every boundary: negative, zero, partial, exact,
// and oversized n must behave identically for Recent and Spans.
func TestRecentSpansClampBoundaries(t *testing.T) {
	const capacity, recorded = 4, 3
	tr := New(capacity)
	for i := 0; i < recorded; i++ {
		record(tr, "t", "a", false, stats(false, false, 1, 0, 0))
		tr.Span(SpanMissAdmit, "t.a", -1, 0, "")
	}
	cases := []struct {
		name string
		n    int
		want int
	}{
		{"negative", -1, 0},
		{"very negative", -1 << 30, 0},
		{"zero", 0, 0},
		{"partial", 2, 2},
		{"exact", recorded, recorded},
		{"over filled", recorded + 1, recorded},
		{"over capacity", capacity + 100, recorded},
		{"huge", 1 << 30, recorded},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := len(tr.Recent(tc.n)); got != tc.want {
				t.Errorf("Recent(%d) = %d events, want %d", tc.n, got, tc.want)
			}
			if got := len(tr.Spans(tc.n)); got != tc.want {
				t.Errorf("Spans(%d) = %d spans, want %d", tc.n, got, tc.want)
			}
		})
	}
}

// TestSpanSink covers the telemetry tap: the sink sees every span after
// it enters the ring and detaches cleanly.
func TestSpanSink(t *testing.T) {
	tr := New(8)
	var mu sync.Mutex
	var got []Span
	tr.SetSpanSink(func(sp Span) {
		mu.Lock()
		got = append(got, sp)
		mu.Unlock()
	})

	tr.Span(SpanDisplace, "t.a", 3, 2, "")
	tr.Span(SpanPageComplete, "t.a", 4, 7, "")
	if len(got) != 2 {
		t.Fatalf("sink saw %d spans, want 2", len(got))
	}
	if got[0].Kind != SpanDisplace || got[0].Page != 3 || got[0].N != 2 {
		t.Errorf("first sunk span = %+v", got[0])
	}
	if got[1].Seq != got[0].Seq+1 {
		t.Errorf("sink spans out of sequence: %d then %d", got[0].Seq, got[1].Seq)
	}

	tr.SetSpanSink(nil)
	tr.Span(SpanMissAdmit, "t.a", -1, 0, "")
	if len(got) != 2 {
		t.Errorf("sink fired after detach: %d spans", len(got))
	}
	if tr.SpanCount() != 3 {
		t.Errorf("ring recording disturbed by sink lifecycle: %d spans", tr.SpanCount())
	}
}
