package exec

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
)

// This file implements scan sharing: one pass of the paper's Algorithm 1
// answering a whole batch of queries on the same table and column.
//
// A burst of partial-index misses — exactly the workload the Index
// Buffer exists to accelerate — would otherwise run one exclusive
// indexing scan per query. Cooperative scans are the standard cure
// (Graefe et al., "Concurrency Control for Adaptive Indexing", make the
// same move for database cracking): the batch scans the heap once,
// demultiplexes matching tuples to every attached query, and performs
// the buffer maintenance (page selection, BeginPage/AddEntry) exactly
// once. The engine's admission layer decides which queries form a batch;
// this file only executes one.

// SharedQuery is one predicate attached to a shared scan: the range
// Lo <= column <= Hi (a point query has Lo == Hi). Ctx (nil means context.Background) cancels only
// this query: the scan drops the query's demux slot at the next page
// boundary and keeps serving the other attachees; the pass itself aborts
// early only once every attached query has been canceled.
type SharedQuery struct {
	Lo, Hi storage.Value
	Ctx    context.Context
}

// matches reports whether a tuple value satisfies the query's predicate.
// A value equal to Lo needs no second comparison: scanning queries are
// never empty ranges, so Lo <= Hi.
func (q *SharedQuery) matches(v storage.Value) bool {
	c := v.Compare(q.Lo)
	return c == 0 || c > 0 && v.Compare(q.Hi) <= 0
}

// SharedOutcome is one attached query's result: its matches, its own
// QueryStats, and its error (which may be the query's ctx error while
// the rest of the batch succeeded).
type SharedOutcome struct {
	Matches []Match
	Stats   QueryStats
	Err     error
}

// scanState is the per-query demux bookkeeping of one shared pass.
type scanState struct {
	ctx    context.Context
	seen   pageSet
	active bool // attached to the table scan; false once canceled/failed
}

// pageSet tracks the distinct heap pages one query has fetched, so that
// PagesRead counts each page once per query no matter how many execution
// stages (buffer materialization, table scan, skipped-page index
// recovery) touch it — a page fetched twice must not inflate the logical
// I/O the paper's runtime curves are shaped by.
type pageSet map[storage.PageID]bool

// read charges page p to stats unless the query already read it.
func (s pageSet) read(stats *QueryStats, p storage.PageID) {
	if !s[p] {
		s[p] = true
		stats.PagesRead++
	}
}

// ExecuteShared answers a batch of queries on the same table and column
// with at most one Algorithm-1 pass. Per query it re-dispatches on the
// state it finds — a predicate the partial index now covers is served
// from the index, an empty range is answered for free — so callers may
// attach queries planned before an index redefinition. Buffer
// maintenance runs exactly once for the batch; the scan-wide maintenance
// counters (PagesSelected, EntriesAdded) are attributed to the batch's
// first scanning query so that sums over per-query stats equal the work
// actually performed. Every outcome carries a Duration, error or not.
//
// The caller must hold the owning table's write lock whenever the batch
// can mutate the Index Buffer — the same contract as a private indexing
// scan. Range is the wrapper for a batch of size one.
func ExecuteShared(a Access, qs []SharedQuery) []SharedOutcome {
	start := time.Now()
	outs := make([]SharedOutcome, len(qs))
	defer func() {
		elapsed := time.Since(start)
		for i := range outs {
			outs[i].Stats.Duration = elapsed
		}
	}()

	states := make([]scanState, len(qs))
	var scanQ []int // indices of the queries that need the table scan
	for i := range qs {
		q := &qs[i]
		st := &states[i]
		st.ctx = q.Ctx
		if st.ctx == nil {
			st.ctx = context.Background()
		}
		st.seen = pageSet{}
		outs[i].Stats.Key = q.Lo
		if q.Hi.Compare(q.Lo) < 0 {
			continue // empty range: answered without any access
		}
		hit := a.Index != nil && a.Index.CoversRange(q.Lo, q.Hi)
		outs[i].Stats.PartialHit = hit
		if a.Space != nil {
			// Table II: every attached query advances the LRU-K histories
			// individually, exactly as if it had run alone.
			a.Space.OnQuery(a.Buffer, hit)
		}
		if hit {
			m, err := fetchRIDs(a, a.Index.LookupRange(q.Lo, q.Hi), &outs[i].Stats, st.seen)
			if err != nil {
				outs[i].Err = err
				continue
			}
			outs[i].Matches = m
			outs[i].Stats.Matches = len(m)
			continue
		}
		st.active = true
		scanQ = append(scanQ, i)
	}
	if len(scanQ) == 0 {
		return outs
	}
	if a.Buffer == nil {
		sharedFullScan(a, qs, outs, states, scanQ)
	} else {
		sharedIndexingScan(a, qs, outs, states, scanQ)
	}
	return outs
}

// pollCancel deactivates attached queries whose context expired and
// reports whether any query remains active. A canceled query keeps its
// ctx error; its partial matches are discarded.
func pollCancel(outs []SharedOutcome, states []scanState, scanQ []int) bool {
	any := false
	for _, i := range scanQ {
		if !states[i].active {
			continue
		}
		if err := states[i].ctx.Err(); err != nil {
			outs[i].Err = err
			outs[i].Matches = nil
			states[i].active = false
			continue
		}
		any = true
	}
	return any
}

// failActive ends the scan for every still-attached query with err —
// used for table-level faults (page read/decode, buffer insertion) that
// no attachee can recover from.
func failActive(err error, outs []SharedOutcome, states []scanState, scanQ []int) {
	for _, i := range scanQ {
		if states[i].active {
			outs[i].Err = err
			outs[i].Matches = nil
			states[i].active = false
		}
	}
}

// scanPage is the decode-on-match page scan every table-scan path (serial
// indexing pass, parallel scanOne, full scan) shares. It walks page pg
// through the column-projected Heap.ScanKeys and tests each live tuple's
// key against every attached query — position k of scanQ — that live(k)
// still reports attached. A tuple is decoded at most once, on its first
// match, and each match goes to emit; a page with no matches allocates
// nothing per tuple. onKey, when non-nil, then sees every tuple's RID
// and key: the hook that collects Index Buffer entries for pages in I.
func scanPage(a Access, qs []SharedQuery, scanQ []int, pg storage.PageID, live func(k int) bool, emit func(k int, m Match), onKey func(storage.RID, storage.Value) error) error {
	schema := a.Table.Schema()
	return a.Table.ScanKeys(pg, a.Column, func(rid storage.RID, v storage.Value, raw []byte) error {
		var tu storage.Tuple
		decoded := false
		for k, qi := range scanQ {
			if !live(k) || !qs[qi].matches(v) {
				continue
			}
			if !decoded {
				var err error
				if tu, err = storage.DecodeTuple(schema, raw); err != nil {
					return err
				}
				decoded = true
			}
			emit(k, Match{RID: rid, Tuple: tu})
		}
		if onKey != nil {
			return onKey(rid, v)
		}
		return nil
	})
}

// serialDemux returns scanPage's live/emit pair for the single-goroutine
// paths: a query is live while its state is active, and its matches
// append straight to its outcome.
func serialDemux(outs []SharedOutcome, states []scanState, scanQ []int) (live func(int) bool, emit func(int, Match)) {
	live = func(k int) bool { return states[scanQ[k]].active }
	emit = func(k int, m Match) { outs[scanQ[k]].Matches = append(outs[scanQ[k]].Matches, m) }
	return live, emit
}

// sharedFullScan answers the scanning queries with one full table scan —
// the no-buffer fallback (baseline engines with the Index Buffer
// disabled, or a buffer dropped between planning and execution).
func sharedFullScan(a Access, qs []SharedQuery, outs []SharedOutcome, states []scanState, scanQ []int) {
	for _, i := range scanQ {
		outs[i].Stats.FullScan = true
	}
	numPages := a.Table.NumPages()
	workers := a.scanWorkers(numPages)
	outs[scanQ[0]].Stats.ScanWorkers = workers
	if workers > 1 {
		parallelFullScan(a, qs, outs, states, scanQ, numPages, workers)
		for _, i := range scanQ {
			if states[i].active {
				outs[i].Stats.Matches = len(outs[i].Matches)
			}
		}
		return
	}
	live, emit := serialDemux(outs, states, scanQ)
	for p := 0; p < numPages; p++ {
		if !pollCancel(outs, states, scanQ) {
			return
		}
		pg := storage.PageID(p)
		for _, i := range scanQ {
			if states[i].active {
				states[i].seen.read(&outs[i].Stats, pg)
			}
		}
		if err := scanPage(a, qs, scanQ, pg, live, emit, nil); err != nil {
			failActive(err, outs, states, scanQ)
			return
		}
	}
	for _, i := range scanQ {
		if states[i].active {
			outs[i].Stats.Matches = len(outs[i].Matches)
		}
	}
}

// sharedIndexingScan is the paper's Algorithm 1 generalized to a
// predicate set. The page set I comes from Algorithm 2
// (Space.SelectPagesForBuffer), chosen once for the batch; the buffer is
// pinned for the pass's duration so a concurrent scan on another table
// cannot displace the partitions the skip decisions depend on.
func sharedIndexingScan(a Access, qs []SharedQuery, outs []SharedOutcome, states []scanState, scanQ []int) {
	release := a.Space.PinForScan(a.Buffer)
	defer release()
	// The pass's C[p] == 0 skip decisions read the buffer's published
	// counter snapshot instead of taking the buffer lock per page. The
	// snapshot is taken once at scan start and stays valid for every
	// page: the only mutator running (we hold the table's write lock and
	// the buffer is pinned against displacement) is this scan itself,
	// and it mutates a page's counter state only after that page's own
	// skip check. The epoch pin keeps reclamation — triggered by this
	// scan's own FinishPage/ApplyPage publications — from nilling the
	// scan-start snapshot mid-pass.
	unpinEpoch := a.Space.PinEpoch()
	defer unpinEpoch()

	numPages := a.Table.NumPages()
	var selected []storage.PageID
	if a.ReadOnly {
		// Quota-degraded pass: I stays empty, so the page walk below never
		// indexes and the buffer is never mutated — but the existing state
		// still answers lookups and C[p] == 0 skips. The pin is still
		// required: a displacement between the buffer lookup and a skip
		// decision would otherwise drop entries this pass has already
		// counted on.
		for _, i := range scanQ {
			outs[i].Stats.QuotaDegraded = true
		}
	} else {
		selected = a.Space.SelectPagesForBufferObserved(a.Buffer, numPages, a.Observer) // I ← SelectPagesForBuffer()
	}
	inI := make(map[storage.PageID]bool, len(selected))
	for _, p := range selected {
		inI[p] = true
	}

	// Index Buffer scan (lines 8–10), demultiplexed per query.
	for _, i := range scanQ {
		m, err := fetchRIDs(a, a.Buffer.LookupRange(qs[i].Lo, qs[i].Hi), &outs[i].Stats, states[i].seen)
		if err != nil {
			outs[i].Err = err
			states[i].active = false
			continue
		}
		outs[i].Matches = m
		outs[i].Stats.BufferMatches = len(m)
	}

	// Table scan (lines 11–17): skip pages with C[p] == 0, index the
	// selected pages exactly once, demux matches to every attachee. With
	// parallelism the page walk fans out to a worker pool and the buffer
	// maintenance is applied in one ordered merge (see parallel.go);
	// results and C[p] transitions are identical either way.
	workers := a.scanWorkers(numPages)
	outs[scanQ[0]].Stats.ScanWorkers = workers
	snap := a.Buffer.CounterSnapshot()
	var entriesAdded int
	var skipped map[storage.PageID]bool
	var aborted bool
	if workers > 1 {
		skipped, entriesAdded, aborted = parallelIndexingPass(a, qs, outs, states, scanQ, inI, snap, numPages, workers)
	} else {
		skipped, entriesAdded, aborted = serialIndexingPass(a, qs, outs, states, scanQ, inI, snap, numPages)
	}

	// Recover covered matches on skipped pages: a range straddling the
	// coverage predicate has covered matches sitting unreachable on
	// skipped pages (see Range).
	if !aborted && a.Index != nil && len(skipped) > 0 {
		for _, i := range scanQ {
			if !states[i].active || !recoversSkipped(qs[i].Lo, qs[i].Hi) {
				continue
			}
			var missing []storage.RID
			for _, rid := range a.Index.ScanRange(qs[i].Lo, qs[i].Hi) {
				if skipped[rid.Page] {
					missing = append(missing, rid)
				}
			}
			m, err := fetchRIDs(a, missing, &outs[i].Stats, states[i].seen)
			if err != nil {
				outs[i].Err = err
				outs[i].Matches = nil
				states[i].active = false
				continue
			}
			outs[i].Matches = append(outs[i].Matches, m...)
		}
	}

	// Attribute the batch-wide maintenance work to the first scanning
	// query, so per-query stats sum to the work actually performed.
	leader := scanQ[0]
	outs[leader].Stats.PagesSelected = len(selected)
	outs[leader].Stats.EntriesAdded = entriesAdded

	for _, i := range scanQ {
		if states[i].active {
			outs[i].Stats.Matches = len(outs[i].Matches)
		}
	}
}

// serialIndexingPass is the single-goroutine table-scan stage of
// Algorithm 1 (lines 11–17): skip pages with C[p] == 0, index the
// selected pages exactly once, demux matches to every attachee. It is
// the oracle the parallel pass (parallel.go) must be bit-identical to.
// Skip decisions read the scan-start counter snapshot — identical to
// the live counters at each page's check, since this scan is the only
// running mutator and touches a page's counter state only after the
// check. Returns the pages skipped, the entries added, and whether the
// scan aborted (fault, or every attachee canceled — the consistent
// prefix of indexed pages is kept either way).
func serialIndexingPass(a Access, qs []SharedQuery, outs []SharedOutcome, states []scanState, scanQ []int, inI map[storage.PageID]bool, snap *core.CounterSnap, numPages int) (map[storage.PageID]bool, int, bool) {
	entriesAdded := 0
	skipped := make(map[storage.PageID]bool)
	aborted := false
	live, emit := serialDemux(outs, states, scanQ)
	for p := 0; p < numPages && !aborted; p++ {
		if !pollCancel(outs, states, scanQ) {
			aborted = true // every attachee canceled; keep the consistent prefix
			break
		}
		pg := storage.PageID(p)
		if snap.At(pg) == 0 {
			skipped[pg] = true
			for _, i := range scanQ {
				if states[i].active {
					outs[i].Stats.PagesSkipped++
				}
			}
			continue
		}
		indexThis := inI[pg]
		if indexThis {
			if err := a.Buffer.BeginPage(pg); err != nil {
				failActive(err, outs, states, scanQ)
				aborted = true
				break
			}
		}
		for _, i := range scanQ {
			if states[i].active {
				states[i].seen.read(&outs[i].Stats, pg)
			}
		}
		var added []core.PageEntry
		var index func(storage.RID, storage.Value) error
		if indexThis {
			index = func(rid storage.RID, v storage.Value) error {
				if a.Index != nil && a.Index.Covers(v) {
					return nil
				}
				if err := a.Buffer.AddEntry(pg, v, rid); err != nil {
					return err
				}
				added = append(added, core.PageEntry{Key: v, RID: rid})
				return nil
			}
		}
		if err := scanPage(a, qs, scanQ, pg, live, emit, index); err != nil {
			if indexThis {
				// Mid-page failure: BeginPage assigned the page to a
				// partition but only part of its tuples were inserted —
				// without this rollback C[pg] would read 0 and every later
				// scan would skip tuples that were never buffered.
				a.Buffer.AbortPage(pg, added)
			}
			failActive(err, outs, states, scanQ)
			aborted = true
			break
		}
		entriesAdded += len(added)
		if indexThis {
			// The page's C[p] → 0 transition becomes visible to lock-free
			// readers only now, with the entry set complete — BeginPage
			// deliberately does not publish the half-inserted state.
			a.Buffer.FinishPage(pg)
			if a.Observer != nil {
				a.Observer.SpaceEvent("page-complete", "", int(pg), len(added))
			}
		}
	}
	return skipped, entriesAdded, aborted
}
