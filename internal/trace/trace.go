// Package trace implements query monitoring: a bounded ring of recent
// query outcomes, per-column aggregates (hit rates, page costs, buffer
// effectiveness, mean wall-clock), per-mechanism latency histograms,
// and a ring of structured span events emitted by the adaptive
// machinery (miss admission, shared-scan batching, Algorithm-2 page
// selection, displacement, C[p]→0 transitions). It is the
// observability layer a DBA would use to see whether the Index Buffer
// is earning its memory — the engine records into an attached Tracer,
// the shell exposes it as SHOW STATS, the facade as DB.TraceReport /
// DB.TraceEvents, and the HTTP endpoint as /metrics.
//
// Every method is safe for concurrent use. The tracer has no switch of
// its own: the engine emits spans only while its one observation gate
// is on, so the off path never reaches this package.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/metrics"
)

// The mechanism vocabulary: how a query was answered. The tracer's
// latency histograms, the adaptation timeline's query mix and flight
// records all use these names.
const (
	MechHit          = "hit"             // answered by the partial index alone
	MechIndexingScan = "indexing-scan"   // an Algorithm-1 indexing scan
	MechFullScan     = "full-scan"       // a plain full table scan (no buffer)
	MechDegradedScan = "degraded-scan"   // a read-only scan of a tenant over quota
	MechFollower     = "shared-follower" // rode along on another query's shared scan
)

// Mechanism names how a query was answered. A hit wins over every other
// flag: a follower whose predicate the partial index served after a
// redefinition is still a hit. Any other follower is filed under its
// own mechanism, because its wall time is spent waiting on the leader.
func Mechanism(stats exec.QueryStats, follower bool) string {
	switch {
	case stats.PartialHit:
		return MechHit
	case follower:
		return MechFollower
	case stats.FullScan:
		return MechFullScan
	case stats.QuotaDegraded:
		return MechDegradedScan
	}
	return MechIndexingScan
}

// Event is one recorded query outcome.
type Event struct {
	Table      string
	Column     string
	Mechanism  string // one of the Mech* constants
	PagesRead  int
	Skipped    int
	Matches    int
	WallMicros int64
}

// Aggregate summarizes the events of one (table, column) pair.
type Aggregate struct {
	Table, Column string
	Queries       uint64
	Hits          uint64
	PagesRead     uint64
	PagesSkipped  uint64
	WallMicros    uint64
}

// HitRate returns hits/queries (0 when no queries).
func (a Aggregate) HitRate() float64 {
	if a.Queries == 0 {
		return 0
	}
	return float64(a.Hits) / float64(a.Queries)
}

// MeanPages returns pages read per query.
func (a Aggregate) MeanPages() float64 {
	if a.Queries == 0 {
		return 0
	}
	return float64(a.PagesRead) / float64(a.Queries)
}

// MeanWallMicros returns mean wall-clock microseconds per query.
func (a Aggregate) MeanWallMicros() float64 {
	if a.Queries == 0 {
		return 0
	}
	return float64(a.WallMicros) / float64(a.Queries)
}

// SkipShare returns the fraction of touched pages that were skipped.
func (a Aggregate) SkipShare() float64 {
	total := a.PagesRead + a.PagesSkipped
	if total == 0 {
		return 0
	}
	return float64(a.PagesSkipped) / float64(total)
}

// Span kinds, in the order the adaptive machinery emits them. The core
// package emits SpanPageSelect and SpanDisplace through its Observer
// interface using these literal strings (it cannot import this package).
const (
	// SpanMissAdmit: a query missed the partial index and entered the
	// scan-sharing admission layer. N is 0.
	SpanMissAdmit = "miss-admit"
	// SpanScanAttach: a query joined another query's forming batch
	// instead of leading its own scan. N is 0.
	SpanScanAttach = "scan-attach"
	// SpanScanLead: a batch leader sealed its batch and is about to run
	// one shared Algorithm-1 pass. N is the batch size.
	SpanScanLead = "scan-lead"
	// SpanPageSelect: Algorithm 2 chose the page set I for a scan.
	// N is |I|.
	SpanPageSelect = "page-select"
	// SpanDisplace: a victim partition was dropped from Target's buffer
	// on behalf of another buffer's scan. N is the entries released.
	SpanDisplace = "displace"
	// SpanPageComplete: an indexing scan finished buffering a page — the
	// C[p]→0 transition that makes the page skippable. Page is the page,
	// N the entries added for it.
	SpanPageComplete = "page-complete"
	// SpanScanParallel: a table-scan stage fanned out to a worker pool.
	// N is the worker count; emitted once per parallel scan, before the
	// workers start.
	SpanScanParallel = "scan-parallel"
)

// Span is one structured event from the adaptive machinery. Seq is a
// monotonic sequence number over the tracer's lifetime (it survives
// Reset), so consumers can order spans across ring snapshots and detect
// drops.
type Span struct {
	Seq    uint64
	Kind   string // one of the Span* constants
	Target string // buffer name, "table.column"
	Page   int    // page id for page-scoped kinds, else -1
	N      int    // kind-specific count payload (see the constants)
	// Trace is the statement trace ID the span was emitted under, when
	// the emitting path carried one ("" otherwise) — the per-query
	// correlation key joining the global stream to flight records.
	Trace string
}

// Tracer records query events and span events. Safe for concurrent use.
type Tracer struct {
	mu     sync.Mutex
	ring   []Event
	next   int
	filled int
	aggs   map[string]*Aggregate         // keyed by table+"."+column
	lat    map[string]*metrics.Histogram // per-mechanism latency (µs)

	seq atomic.Uint64 // monotonic span sequence, survives Reset

	// spanSink, when set, receives every recorded span after it enters
	// the ring — the telemetry-export tap. Atomic so Span's hot path
	// never takes a lock for it.
	spanSink atomic.Pointer[func(Span)]

	spanMu     sync.Mutex
	spans      []Span
	spanNext   int
	spanFilled int
}

// latReservoir bounds each mechanism's latency histogram so a
// long-running engine keeps constant tracer memory; quantiles become
// sampled estimates past this many observations per mechanism.
const latReservoir = 4096

// New creates a tracer keeping the last capacity query events and the
// last capacity span events (min 1 each).
func New(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{
		ring:  make([]Event, capacity),
		spans: make([]Span, capacity),
		aggs:  make(map[string]*Aggregate),
		lat:   make(map[string]*metrics.Histogram),
	}
}

// Record ingests one query outcome answered by mech (see Mechanism).
func (t *Tracer) Record(table, column, mech string, stats exec.QueryStats) {
	ev := Event{
		Table:      table,
		Column:     column,
		Mechanism:  mech,
		PagesRead:  stats.PagesRead,
		Skipped:    stats.PagesSkipped,
		Matches:    stats.Matches,
		WallMicros: stats.Duration.Microseconds(),
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ring[t.next] = ev
	t.next = (t.next + 1) % len(t.ring)
	if t.filled < len(t.ring) {
		t.filled++
	}
	key := table + "." + column
	a := t.aggs[key]
	if a == nil {
		a = &Aggregate{Table: table, Column: column}
		t.aggs[key] = a
	}
	a.Queries++
	if stats.PartialHit {
		a.Hits++
	}
	a.PagesRead += uint64(stats.PagesRead)
	a.PagesSkipped += uint64(stats.PagesSkipped)
	a.WallMicros += uint64(ev.WallMicros)

	h := t.lat[mech]
	if h == nil {
		h = metrics.NewReservoirHistogram(latReservoir, int64(len(t.lat)+1))
		t.lat[mech] = h
	}
	h.Observe(float64(ev.WallMicros))
}

// clampTake bounds a caller-supplied "last n" request to what a ring
// actually holds: negative n reads as 0 (historically Recent panicked
// on the negative make cap) and oversized n reads as everything
// retained. Recent and Spans share it so the two rings can never
// drift apart on boundary behavior again.
func clampTake(n, filled int) int {
	if n < 0 {
		return 0
	}
	if n > filled {
		return filled
	}
	return n
}

// Recent returns up to n most-recent events, newest first. n < 0 is
// treated as 0 (historically this panicked on the negative make cap).
func (t *Tracer) Recent(n int) []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	n = clampTake(n, t.filled)
	out := make([]Event, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, t.ring[(t.next-i+len(t.ring))%len(t.ring)])
	}
	return out
}

// Aggregates returns per-column summaries sorted by table then column.
func (t *Tracer) Aggregates() []Aggregate {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Aggregate, 0, len(t.aggs))
	for _, a := range t.aggs {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Table != out[j].Table {
			return out[i].Table < out[j].Table
		}
		return out[i].Column < out[j].Column
	})
	return out
}

// MechanismLatency is one mechanism's latency summary in microseconds.
type MechanismLatency struct {
	Mechanism string
	metrics.HistogramStats
}

// LatencyStats returns per-mechanism latency summaries sorted by
// mechanism name.
func (t *Tracer) LatencyStats() []MechanismLatency {
	t.mu.Lock()
	hists := make(map[string]*metrics.Histogram, len(t.lat))
	for m, h := range t.lat {
		hists[m] = h
	}
	t.mu.Unlock()
	out := make([]MechanismLatency, 0, len(hists))
	for m, h := range hists {
		out = append(out, MechanismLatency{Mechanism: m, HistogramStats: h.Stats()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Mechanism < out[j].Mechanism })
	return out
}

// Span records one span event into the span ring, stamping it with the
// next monotonic sequence number and the emitting statement's trace ID
// ("" for paths without statement context), so the global stream stays
// joinable to per-statement flight records.
func (t *Tracer) Span(kind, target string, page, n int, traceID string) {
	sp := Span{Seq: t.seq.Add(1), Kind: kind, Target: target, Page: page, N: n, Trace: traceID}
	t.spanMu.Lock()
	t.spans[t.spanNext] = sp
	t.spanNext = (t.spanNext + 1) % len(t.spans)
	if t.spanFilled < len(t.spans) {
		t.spanFilled++
	}
	t.spanMu.Unlock()
	if fn := t.spanSink.Load(); fn != nil {
		(*fn)(sp)
	}
}

// SetSpanSink registers fn to receive every span after it enters the
// ring (nil unregisters). fn runs on the emitting goroutine, so it must
// be fast and must not call back into the tracer's span path.
func (t *Tracer) SetSpanSink(fn func(Span)) {
	if fn == nil {
		t.spanSink.Store(nil)
		return
	}
	t.spanSink.Store(&fn)
}

// Spans returns up to n most-recent span events, newest first (n < 0 is
// treated as 0, like Recent).
func (t *Tracer) Spans(n int) []Span {
	t.spanMu.Lock()
	defer t.spanMu.Unlock()
	n = clampTake(n, t.spanFilled)
	out := make([]Span, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, t.spans[(t.spanNext-i+len(t.spans))%len(t.spans)])
	}
	return out
}

// SpanCount returns the number of span events ever emitted (the last
// assigned sequence number); it keeps counting across Reset.
func (t *Tracer) SpanCount() uint64 { return t.seq.Load() }

// Reset clears all recorded state (events, aggregates, latency
// histograms, span ring). The span sequence number keeps counting so
// pre- and post-Reset spans remain ordered.
func (t *Tracer) Reset() {
	t.mu.Lock()
	t.next, t.filled = 0, 0
	t.aggs = make(map[string]*Aggregate)
	t.lat = make(map[string]*metrics.Histogram)
	t.mu.Unlock()
	t.spanMu.Lock()
	t.spanNext, t.spanFilled = 0, 0
	t.spanMu.Unlock()
}

// Report renders the aggregates of the tables keep accepts (nil keeps
// every table) as an aligned text table.
func (t *Tracer) Report(keep func(table string) bool) string {
	var sb strings.Builder
	for _, a := range t.Aggregates() {
		if keep != nil && !keep(a.Table) {
			continue
		}
		if sb.Len() == 0 {
			fmt.Fprintf(&sb, "%-20s %8s %8s %12s %10s %12s\n", "column", "queries", "hit%", "pages/query", "skip%", "µs/query")
		}
		fmt.Fprintf(&sb, "%-20s %8d %7.1f%% %12.1f %9.1f%% %12.1f\n",
			a.Table+"."+a.Column, a.Queries, 100*a.HitRate(), a.MeanPages(), 100*a.SkipShare(), a.MeanWallMicros())
	}
	if sb.Len() == 0 {
		return "no queries recorded"
	}
	return strings.TrimRight(sb.String(), "\n")
}
