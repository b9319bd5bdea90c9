// Package flight is the per-statement flight recorder: a bounded ring
// of completed query records, each carrying the statement's trace ID,
// tenant, mechanism, span tree, page counters and WAL commit cost — the
// after-the-fact view the global span stream (internal/trace) cannot
// give, because spans there are uncorrelated across concurrent
// statements.
//
// The package is a leaf (stdlib only) so every layer — engine, shell,
// server, obs, timeline — can import it without cycles. Trace IDs and
// the in-progress record travel via context.Context: the wire layer
// mints (or accepts) a trace ID and stores it with WithTrace; the
// statement layer calls Recorder.Begin to open an Active and re-derive
// the context; execution layers retrieve it with FromContext and
// contribute spans and stats. Every *Active method is nil-receiver
// safe, so contributors call unconditionally on whatever FromContext
// returned.
//
// Overhead contract (DESIGN.md §16): the recorder has no switch of its
// own. While the engine's one observation gate is off no Active exists,
// every contribution site is gated on that atomic load (or the nil
// Active), and nothing allocates — enforced by the engine's
// TestObserveGateInert and BenchmarkTraceOverhead.
package flight

import (
	"context"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one named event attributed to a single statement — the same
// vocabulary as trace.Span (page-select, displace, scan-lead, ...), but
// collected per query instead of into the global ring.
type Span struct {
	Kind   string `json:"kind"`
	Target string `json:"target,omitempty"`
	Page   int    `json:"page"`
	N      int    `json:"n"`
}

// Record is one completed statement's flight record.
type Record struct {
	// Seq is a recorder-wide monotonic completion number; it makes
	// records from the recent and slow rings dedupable.
	Seq    uint64 `json:"seq"`
	Trace  string `json:"trace"`
	Tenant string `json:"tenant,omitempty"`
	// Stmt is the statement text as received by the statement layer.
	Stmt string `json:"stmt,omitempty"`

	// Query attribution (empty for DDL/utility statements).
	Table     string `json:"table,omitempty"`
	Column    string `json:"column,omitempty"`
	Mechanism string `json:"mechanism,omitempty"`

	Matches       int  `json:"matches"`
	PagesRead     int  `json:"pages_read"`
	PagesSkipped  int  `json:"pages_skipped"`
	QuotaDegraded bool `json:"quota_degraded,omitempty"`

	// WALCommitNanos is the wall time the statement spent in
	// Append+Commit making its DML durable (0 for read-only statements
	// or when the WAL is disabled); WALBatch is the size of the
	// group-commit batch whose fsync covered it.
	WALCommitNanos int64  `json:"wal_commit_ns,omitempty"`
	WALBatch       uint64 `json:"wal_batch,omitempty"`

	StartUnixNanos int64  `json:"start_unix_ns"`
	DurationNanos  int64  `json:"duration_ns"`
	Error          string `json:"error,omitempty"`

	Spans []Span `json:"spans,omitempty"`
}

// Duration returns the statement's wall time.
func (r Record) Duration() time.Duration { return time.Duration(r.DurationNanos) }

// Active is one in-progress statement record. Span contributions may
// arrive concurrently (parallel scan workers, core observer callbacks
// under Space.mu), so the span list is mutex-guarded; the mutex is a
// strict leaf — no Active method calls out while holding it. All
// methods are nil-receiver safe no-ops.
type Active struct {
	mu  sync.Mutex
	rec Record
}

// Trace returns the statement's trace ID ("" on a nil Active).
func (a *Active) Trace() string {
	if a == nil {
		return ""
	}
	return a.rec.Trace
}

// Span appends one span event to the statement's span tree.
func (a *Active) Span(kind, target string, page, n int) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.rec.Spans = append(a.rec.Spans, Span{Kind: kind, Target: target, Page: page, N: n})
	a.mu.Unlock()
}

// Query records the statement's query outcome: attribution, mechanism
// and the paper's page accounting. The last call wins (a statement
// evaluates at most one query; DML paths that pre-read via a query keep
// the final outcome).
func (a *Active) Query(table, column, mechanism string, matches, pagesRead, pagesSkipped int, degraded bool) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.rec.Table = table
	a.rec.Column = column
	a.rec.Mechanism = mechanism
	a.rec.Matches = matches
	a.rec.PagesRead += pagesRead
	a.rec.PagesSkipped += pagesSkipped
	a.rec.QuotaDegraded = a.rec.QuotaDegraded || degraded
	a.mu.Unlock()
}

// WAL accumulates the statement's WAL commit cost and notes the
// group-commit batch that made it durable. DML statements touching
// several records (UPDATE over many matches) accumulate.
func (a *Active) WAL(commit time.Duration, batch uint64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.rec.WALCommitNanos += int64(commit)
	a.rec.WALBatch = batch
	a.mu.Unlock()
}

type ctxKey int

const (
	traceKey ctxKey = iota
	activeKey
)

// WithTrace stores a wire-supplied trace ID in the context. The
// statement layer's Begin adopts it; an empty id is ignored.
func WithTrace(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, traceKey, id)
}

// TraceID returns the trace ID stored by WithTrace ("" if none).
func TraceID(ctx context.Context) string {
	id, _ := ctx.Value(traceKey).(string)
	return id
}

// WithActive attaches an in-progress record to the context.
func WithActive(ctx context.Context, a *Active) context.Context {
	return context.WithValue(ctx, activeKey, a)
}

// FromContext returns the in-progress record, or nil — and every
// *Active method is a nil-safe no-op, so callers need not check.
func FromContext(ctx context.Context) *Active {
	a, _ := ctx.Value(activeKey).(*Active)
	return a
}

// Stats is the recorder's counter snapshot for /metrics. Enabled
// reports the engine's observation gate, which the engine fills in.
type Stats struct {
	Enabled   bool          `json:"enabled"`
	Completed uint64        `json:"completed"`
	Slow      uint64        `json:"slow"`
	Threshold time.Duration `json:"threshold"`
}

// Recorder keeps the two bounded rings of completed records: every
// completion enters the recent ring (eviction by age), and completions
// at or above DefaultSlowThreshold additionally enter the slow ring.
// Both rings survive Reset-free indefinitely under constant memory.
type Recorder struct {
	seq       atomic.Uint64
	completed atomic.Uint64
	slowSeen  atomic.Uint64

	mintBase uint64        // per-process base so minted IDs don't collide across restarts
	mintN    atomic.Uint64 // counter under the base

	sink atomic.Pointer[func(Record)]

	mu       sync.Mutex // guards the rings; strict leaf, never held calling out
	recent   []Record
	recentN  int // next write slot
	recentSz int // filled count
	slow     []Record
	slowN    int
	slowSz   int
}

// DefaultSlowThreshold is the slow-capture cutoff: completed records at
// or above it also enter the slow ring.
const DefaultSlowThreshold = 10 * time.Millisecond

// NewRecorder creates a recorder with the given ring capacities (min 1
// each).
func NewRecorder(recentCap, slowCap int) *Recorder {
	if recentCap < 1 {
		recentCap = 1
	}
	if slowCap < 1 {
		slowCap = 1
	}
	return &Recorder{
		recent:   make([]Record, recentCap),
		slow:     make([]Record, slowCap),
		mintBase: uint64(time.Now().UnixNano()),
	}
}

// SetSink installs a hook invoked (synchronously, outside the ring
// lock) with every completed record — the JSONL telemetry bridge. Pass
// nil to remove.
func (r *Recorder) SetSink(fn func(Record)) {
	if fn == nil {
		r.sink.Store(nil)
		return
	}
	r.sink.Store(&fn)
}

// MintID mints a process-unique trace ID for statements that arrived
// without one.
func (r *Recorder) MintID() string {
	return "aib-" + strconv.FormatUint(r.mintBase, 36) + "-" + strconv.FormatUint(r.mintN.Add(1), 36)
}

// Begin opens an Active for one statement and returns the context the
// statement must be evaluated under. The trace ID is taken from the
// context (wire-supplied) or minted. Callers gate on the engine's
// observation switch — Begin itself allocates.
func (r *Recorder) Begin(ctx context.Context, tenant, stmt string) (*Active, context.Context) {
	trace := TraceID(ctx)
	if trace == "" {
		trace = r.MintID()
	}
	a := &Active{rec: Record{
		Trace:          trace,
		Tenant:         tenant,
		Stmt:           stmt,
		StartUnixNanos: time.Now().UnixNano(),
	}}
	return a, WithActive(ctx, a)
}

// Complete finalizes the Active and publishes it into the rings (and
// the sink, if installed). Safe to call with a nil Active.
func (r *Recorder) Complete(a *Active, err error) {
	if a == nil {
		return
	}
	a.mu.Lock()
	rec := a.rec
	a.mu.Unlock()
	rec.DurationNanos = time.Now().UnixNano() - rec.StartUnixNanos
	if err != nil {
		rec.Error = err.Error()
	}
	rec.Seq = r.seq.Add(1)
	r.completed.Add(1)
	slow := rec.DurationNanos >= int64(DefaultSlowThreshold)
	if slow {
		r.slowSeen.Add(1)
	}
	r.mu.Lock()
	r.recent[r.recentN] = rec
	r.recentN = (r.recentN + 1) % len(r.recent)
	if r.recentSz < len(r.recent) {
		r.recentSz++
	}
	if slow {
		r.slow[r.slowN] = rec
		r.slowN = (r.slowN + 1) % len(r.slow)
		if r.slowSz < len(r.slow) {
			r.slowSz++
		}
	}
	r.mu.Unlock()
	if fn := r.sink.Load(); fn != nil {
		(*fn)(rec)
	}
}

// snapshotLocked copies a ring newest-first. Caller holds r.mu.
func snapshotLocked(ring []Record, next, size int) []Record {
	out := make([]Record, 0, size)
	for i := 0; i < size; i++ {
		out = append(out, ring[((next-1-i)%len(ring)+len(ring))%len(ring)])
	}
	return out
}

// Recent returns up to n most recent records, newest first (n <= 0
// means all retained).
func (r *Recorder) Recent(n int) []Record {
	r.mu.Lock()
	out := snapshotLocked(r.recent, r.recentN, r.recentSz)
	r.mu.Unlock()
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Slow returns up to n captured slow records, slowest first (n <= 0
// means all retained).
func (r *Recorder) Slow(n int) []Record {
	r.mu.Lock()
	out := snapshotLocked(r.slow, r.slowN, r.slowSz)
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].DurationNanos > out[j].DurationNanos })
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Find filters both rings (deduped by Seq, newest first): trace and
// tenant match exactly when non-empty, minDur keeps records at least
// that slow, n bounds the result (<= 0 means no bound).
func (r *Recorder) Find(trace, tenant string, minDur time.Duration, n int) []Record {
	r.mu.Lock()
	recs := snapshotLocked(r.recent, r.recentN, r.recentSz)
	recs = append(recs, snapshotLocked(r.slow, r.slowN, r.slowSz)...)
	r.mu.Unlock()
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Seq > recs[j].Seq })
	seen := make(map[uint64]bool, len(recs))
	out := make([]Record, 0, len(recs))
	for _, rec := range recs {
		if seen[rec.Seq] {
			continue
		}
		seen[rec.Seq] = true
		if trace != "" && rec.Trace != trace {
			continue
		}
		if tenant != "" && rec.Tenant != tenant {
			continue
		}
		if rec.DurationNanos < int64(minDur) {
			continue
		}
		out = append(out, rec)
		if n > 0 && len(out) >= n {
			break
		}
	}
	return out
}

// Reset drops all retained records; counters persist.
func (r *Recorder) Reset() {
	r.mu.Lock()
	for i := range r.recent {
		r.recent[i] = Record{}
	}
	for i := range r.slow {
		r.slow[i] = Record{}
	}
	r.recentN, r.recentSz, r.slowN, r.slowSz = 0, 0, 0, 0
	r.mu.Unlock()
}

// Stats returns the recorder's counters (Enabled left false).
func (r *Recorder) Stats() Stats {
	return Stats{
		Completed: r.completed.Load(),
		Slow:      r.slowSeen.Load(),
		Threshold: DefaultSlowThreshold,
	}
}
