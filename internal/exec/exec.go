// Package exec implements query execution over a heap table with a
// partial secondary index and an optional Index Buffer. Its centerpiece
// is the indexing table scan of the paper's Algorithm 1: a scan that
// consults the Index Buffer, skips fully indexed pages (counter C[p] ==
// 0), and opportunistically indexes the pages selected by Algorithm 2.
//
// Every query is a range lo <= column <= hi — a point query is the
// range [key, key] — and runs through ExecuteShared, which executes
// Algorithm 1 once for a whole batch of predicates: Range is a batch of
// size one, and the engine's admission layer coalesces concurrent
// buffer misses on the same table/column into larger batches.
//
// Execution is context-aware: the page-at-a-time loops of the indexing
// scan and the full scan check for cancellation between page reads, so a
// long scan over a cold table can be abandoned mid-flight. The caller
// (the engine) provides the isolation: an indexing scan must run with the
// table's write lock held, everything else is safe under a read lock.
package exec

import (
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/index"
	"repro/internal/storage"
)

// Match is one result tuple with its physical address.
type Match struct {
	RID   storage.RID
	Tuple storage.Tuple
}

// QueryStats describes the cost and effect of one query. PagesRead is the
// engine's logical I/O — the quantity the paper's runtime curves are
// shaped by; pages served from the buffer pool still count, since the
// paper's 220 MB table does not fit its buffer either. Each distinct page
// counts once per query, regardless of how many execution stages touch
// it. When several queries share one scan, the scan-wide maintenance
// counters (PagesSelected, EntriesAdded) appear on the batch's first
// scanning query only.
type QueryStats struct {
	Key        storage.Value
	PartialHit bool // answered by the partial index
	FullScan   bool // no buffer available: plain full table scan

	// QuotaDegraded marks a miss executed read-only because the owning
	// tenant's Index-Buffer quota was exhausted: existing buffer state
	// still served lookups and page skips, but no pages were selected or
	// indexed and no other tenant's partitions were displaced.
	QuotaDegraded bool

	Matches       int // result tuples
	BufferMatches int // results obtained from the Index Buffer

	PagesRead     int // heap pages fetched (scan + RID materialization)
	PagesSkipped  int // pages skipped because C[p] == 0
	PagesSelected int // pages newly indexed this scan (|I|)
	EntriesAdded  int // Index Buffer entries inserted this scan

	// ScanWorkers is the number of goroutines the table-scan stage fanned
	// out to: 1 for the serial path, >1 when the scan ran in parallel.
	// Like the maintenance counters, a shared scan attributes it to the
	// batch's first scanning query. Zero when no table scan ran.
	ScanWorkers int

	Duration time.Duration
}

// Heap is the table access the executor needs: column-projected
// page-at-a-time scans and RID materialization. ScanKeys hands over each
// live tuple's RID, scan-column key and raw bytes; the executor decodes
// a tuple (with Schema) only when it matches. *heap.Table implements it;
// tests substitute fault-injecting wrappers.
type Heap interface {
	NumPages() int
	Schema() *storage.Schema
	Get(rid storage.RID) (storage.Tuple, error)
	ScanKeys(p storage.PageID, col int, fn func(rid storage.RID, key storage.Value, raw []byte) error) error
}

var _ Heap = (*heap.Table)(nil)

// Access bundles the storage objects a query needs. Index and
// Buffer may be nil (no partial index / no Index Buffer on the column);
// Space must be non-nil whenever Buffer is.
type Access struct {
	Table  Heap
	Column int
	Index  *index.Partial
	Buffer *core.IndexBuffer
	Space  *core.Space

	// Parallelism bounds the worker pool of the table-scan stage: 1 (or
	// a single-page table) runs the serial path, n > 1 fans page-range
	// chunks out to at most n goroutines, and 0 defaults to GOMAXPROCS.
	// Results, stats, and buffer maintenance are bit-identical across
	// settings; see parallel.go for the execution scheme.
	Parallelism int

	// ReadOnly degrades a miss to an unindexed scan: the Index Buffer is
	// consulted (lookups, C[p] == 0 page skips) but never mutated — no
	// page selection, no BeginPage/AddEntry, no displacement. The engine
	// sets it for misses of tenants whose quota is exhausted; because the
	// pass mutates nothing it may run under the table's read lock. The
	// buffer is still pinned against displacement for the pass's
	// duration, since the skip decisions and collected buffer matches
	// assume its partitions stay put.
	ReadOnly bool

	// Span, when non-nil, receives span events from the indexing scan —
	// currently "scan-parallel" (the scan fanned out, n = workers) and
	// "page-complete" (page fully buffered, the C[p]→0 transition) with
	// the page id and the entries added for it. The engine wires it to
	// the tracer's span ring and the adaptation-timeline recorder only
	// while at least one of them is enabled, so the nil check is the
	// entire disabled-path cost.
	Span func(kind string, page, n int)

	// SpaceObs, when non-nil, is threaded through Algorithm-2 page
	// selection (Space.SelectPagesForBufferObserved) so the selection's
	// management events — displace, page-select — are attributed to the
	// statement that triggered them, in addition to the Space-wide
	// observer. The engine wires it to the statement's flight record.
	SpaceObs core.Observer
}

// scanWorkers resolves the effective worker count for a scan over
// numPages pages: Parallelism when positive (GOMAXPROCS when zero),
// never more than the page count.
func (a Access) scanWorkers(numPages int) int {
	w := a.Parallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > numPages {
		w = numPages
	}
	if w < 1 {
		w = 1
	}
	return w
}

// NeedsIndexingScanRange reports whether the query lo <= column <= hi
// would run an indexing scan — the only execution path that mutates the
// Index Buffer and therefore needs exclusive access to the table. A
// point query is the range [key, key].
func (a Access) NeedsIndexingScanRange(lo, hi storage.Value) bool {
	if hi.Compare(lo) < 0 {
		return false
	}
	return a.Buffer != nil && !(a.Index != nil && a.Index.CoversRange(lo, hi))
}

// FetchHit materializes a partial-index hit from its posting list,
// reproducing the hit path of ExecuteShared bit for bit: RIDs are
// fetched in sorted order, PagesRead counts each distinct page once,
// and the stats carry Key/PartialHit/Matches. rids may alias immutable
// index state — it is copied before sorting. The engine's epoch-based
// read path resolves a probe against an index snapshot and calls this
// to materialize it without entering the shared-scan machinery; only
// a.Table and a.Column are consulted, so a read-path Access with nil
// Index/Buffer/Space is fine. Duration is left to the caller.
func FetchHit(a Access, key storage.Value, rids []storage.RID) ([]Match, QueryStats, error) {
	stats := QueryStats{Key: key, PartialHit: true}
	m, err := fetchRIDs(a, rids, &stats, pageSet{})
	if err != nil {
		return nil, stats, err
	}
	stats.Matches = len(m)
	return m, stats, nil
}

// fetchRIDs materializes tuples for a posting list, page by page. Pages
// are charged to stats through seen, so a page the query already fetched
// in another stage is not double-counted.
func fetchRIDs(a Access, rids []storage.RID, stats *QueryStats, seen pageSet) ([]Match, error) {
	if len(rids) == 0 {
		return nil, nil
	}
	sorted := append([]storage.RID(nil), rids...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })

	var out []Match
	for _, rid := range sorted {
		seen.read(stats, rid.Page)
		tu, err := a.Table.Get(rid)
		if err != nil {
			return nil, err
		}
		out = append(out, Match{RID: rid, Tuple: tu})
	}
	return out, nil
}
