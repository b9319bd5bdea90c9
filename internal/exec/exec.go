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
	"cmp"
	"runtime"
	"slices"
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
	// batch's first scanning query. Zero when no table scan ran —
	// including a miss that a complete Index Buffer answered, which
	// skips every page without reading one.
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

	// Observer, when non-nil, receives the scan's adaptive events: the
	// Algorithm-2 selection's "displace" and "page-select" (threaded
	// through Space.SelectPagesForBufferObserved), "scan-parallel" (the
	// scan fanned out, n = workers) and "page-complete" (page fully
	// buffered, the C[p]→0 transition, with the entries added for it).
	// The scan's own events name no buffer (""): they belong to the
	// queried column. The engine sets it only while observing, so the
	// nil check is the entire off-path cost.
	Observer core.Observer
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

// FetchHit materializes a partial-index hit from its posting list —
// the hit path of ExecuteShared, which calls it too: RIDs are fetched in
// sorted order, PagesRead counts each distinct page once, and the stats
// carry Key/PartialHit/Matches. rids may alias immutable index state —
// it is copied before sorting. The engine's epoch-based read path
// resolves a probe against an index snapshot and calls this to
// materialize it without entering the shared-scan machinery; only
// a.Table is consulted, so a read-path Access with nil
// Index/Buffer/Space is fine. Duration is left to the caller.
func FetchHit(a Access, key storage.Value, rids []storage.RID) ([]Match, QueryStats, error) {
	stats := QueryStats{Key: key, PartialHit: true}
	sorted := sortRIDs(slices.Clone(rids))
	stats.PagesRead = distinctPages(sorted, nil)
	m, err := materialize(a.Table, sorted, newMatches(len(sorted)))
	if err != nil {
		return nil, stats, err
	}
	stats.Matches = len(m)
	return m, stats, nil
}

// AnswerFromBuffer answers the partial-index miss lo <= column <= hi on
// a column whose Index Buffer is complete for the table's numPages
// pages (core.CounterSnap.Complete). Algorithm 1 would select no page
// and skip every page, so its result is the buffer's postings in
// [lo, hi] plus, for a range, the partial index's postings in [lo, hi],
// all on skipped pages (see Range). This returns that result, in the
// pass's order, with the pass's QueryStats, without walking a page.
//
// sharedIndexingScan short-circuits to it under the table lock, and the
// engine's epoch read path calls it against snapshots. ix is the
// partial-index state recovery reads (nil when the column has none); it
// counts no probe, so probed reports whether the caller must note one.
// Duration is left to the caller.
func AnswerFromBuffer(a Access, lo, hi storage.Value, numPages int, ix *index.Snapshot) (m []Match, stats QueryStats, probed bool, err error) {
	stats = QueryStats{Key: lo, QuotaDegraded: a.ReadOnly, PagesSkipped: numPages}
	buffered := sortRIDs(a.Buffer.LookupRange(lo, hi)) // a fresh slice: sorted in place
	var recovered []storage.RID
	if probed = ix != nil && numPages > 0 && recoversSkipped(lo, hi); probed {
		recovered = sortRIDs(slices.Clone(ix.ScanRange(lo, hi)))
	}
	stats.PagesRead = distinctPages(buffered, recovered)
	if m, err = materialize(a.Table, buffered, newMatches(len(buffered)+len(recovered))); err != nil {
		return nil, stats, probed, err
	}
	stats.BufferMatches = len(m)
	if m, err = materialize(a.Table, recovered, m); err != nil {
		return nil, stats, probed, err
	}
	stats.Matches = len(m)
	return m, stats, probed, nil
}

// sortRIDs sorts rids in place into RID order and returns it.
func sortRIDs(rids []storage.RID) []storage.RID {
	slices.SortFunc(rids, func(x, y storage.RID) int {
		if x.Page != y.Page {
			return cmp.Compare(x.Page, y.Page)
		}
		return cmp.Compare(x.Slot, y.Slot)
	})
	return rids
}

// distinctPages counts the heap pages that two sorted RID lists touch
// together — one merge walk, no per-query set.
func distinctPages(x, y []storage.RID) int {
	n := 0
	var last storage.PageID
	for len(x) > 0 || len(y) > 0 {
		var p storage.PageID
		if len(y) == 0 || len(x) > 0 && x[0].Page <= y[0].Page {
			p, x = x[0].Page, x[1:]
		} else {
			p, y = y[0].Page, y[1:]
		}
		if n == 0 || p != last {
			n++
			last = p
		}
	}
	return n
}

// newMatches presizes a result for n matches; nil when there are none.
func newMatches(n int) []Match {
	if n == 0 {
		return nil
	}
	return make([]Match, 0, n)
}

// materialize appends the tuples at the sorted rids to out.
func materialize(t Heap, rids []storage.RID, out []Match) ([]Match, error) {
	for _, rid := range rids {
		tu, err := t.Get(rid)
		if err != nil {
			return nil, err
		}
		out = append(out, Match{RID: rid, Tuple: tu})
	}
	return out, nil
}

// fetchRIDs materializes tuples for a posting list, page by page. Pages
// are charged to stats through seen, so a page the query already fetched
// in another stage of a table scan is not double-counted.
func fetchRIDs(a Access, rids []storage.RID, stats *QueryStats, seen pageSet) ([]Match, error) {
	if len(rids) == 0 {
		return nil, nil
	}
	sorted := sortRIDs(slices.Clone(rids))
	for _, rid := range sorted {
		seen.read(stats, rid.Page)
	}
	return materialize(a.Table, sorted, newMatches(len(sorted)))
}
