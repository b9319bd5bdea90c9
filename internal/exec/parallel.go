package exec

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/storage"
)

// This file parallelizes the table-scan stage of ExecuteShared — the
// page-at-a-time heap walk that dominates every miss (the paper's §III
// cost model counts pages read, and Fig. 6's runtime is exactly that
// walk). The scan runs in two phases:
//
// Phase 1 (parallel, read-only): the page range [0, numPages) is split
// into contiguous chunks (heap.Chunks) claimed by a bounded worker pool
// off a shared cursor. Workers read pages, evaluate every attached
// query's predicate, and — for pages in the Algorithm-2 selection set I
// — collect the page's candidate Index Buffer entries. Nothing is
// mutated: workers share only the per-query cancellation flags and the
// per-page result slots (each page is written by exactly one worker).
//
// Phase 2 (serial, ordered merge): pages are folded in ascending page
// order into per-query stats, match lists, and the Index Buffer
// (core.ApplyPage assigns the page and inserts its complete entry set
// under one lock acquisition). Because the merge visits pages in the
// same order the serial loop does, results, QueryStats, partition
// assignment, C[p] transitions, and span events are bit-identical to
// parallelism=1 — the property the serial-oracle harness in
// parallel_test.go checks.
//
// Skip-safety: workers read the scan-start counter snapshot, which is
// lock-free and trivially identical across workers. It also matches
// what the serial loop would see live at every page's check: the only
// C[p] transitions during a scan are the ones this scan's merge
// performs (the caller holds the table's write lock, and
// Space.PinForScan keeps displacement away), and phase 2 starts
// strictly after every worker has finished — so a page's skip decision
// never races its own indexing.
//
// Failure semantics differ from the serial path in one deliberate way:
// a table-level fault or whole-batch cancellation in phase 1 aborts
// before phase 2, leaving the Index Buffer completely untouched — there
// is no partially-indexed page to roll back, so the AbortPage path is
// only needed by the serial scan. The invariant both paths preserve is
// the same: C[p] == 0 only when every uncovered tuple of p is buffered.

// chunksPerWorker over-partitions the page range so a worker that lands
// on cheap chunks (skipped or pool-resident pages) claims more work
// instead of idling behind a worker stuck on cold pages.
const chunksPerWorker = 4

// qMatch is one matching tuple tagged with the position (in scanQ) of
// the query it belongs to.
type qMatch struct {
	q int
	m Match
}

// pageResult is one page's phase-1 output, written by exactly one
// worker and read only after the worker pool has drained.
type pageResult struct {
	skipped bool // C[p] == 0: page not read
	matches []qMatch
	entries []core.PageEntry // candidate entries when the page is in I
}

// parallelScan is the shared state of one fan-out.
type parallelScan struct {
	a      Access
	qs     []SharedQuery
	states []scanState
	scanQ  []int
	inI    map[storage.PageID]bool // nil for a full scan
	snap   *core.CounterSnap       // scan-start counters; nil for a full scan

	results  []pageResult
	canceled []atomic.Bool // by position in scanQ
	chunks   []heap.PageRange
	next     atomic.Int64 // chunk cursor
	abort    atomic.Bool

	errMu sync.Mutex
	err   error // first table-level fault
}

func newParallelScan(a Access, qs []SharedQuery, states []scanState, scanQ []int, inI map[storage.PageID]bool, snap *core.CounterSnap, numPages, workers int) *parallelScan {
	return &parallelScan{
		a:        a,
		qs:       qs,
		states:   states,
		scanQ:    scanQ,
		inI:      inI,
		snap:     snap,
		results:  make([]pageResult, numPages),
		canceled: make([]atomic.Bool, len(scanQ)),
		chunks:   heap.Chunks(numPages, workers*chunksPerWorker),
	}
}

// run executes phase 1 on a pool of `workers` goroutines and returns the
// first table-level fault, if any. It always waits for every worker to
// exit before returning — no goroutine outlives the scan.
func (s *parallelScan) run(workers int) error {
	if s.a.Observer != nil {
		s.a.Observer.SpaceEvent("scan-parallel", "", -1, workers)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.worker()
		}()
	}
	wg.Wait()
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.err
}

// fail records the first table-level fault and stops the pool.
func (s *parallelScan) fail(err error) {
	s.errMu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.errMu.Unlock()
	s.abort.Store(true)
}

// pollCancel marks queries whose context expired and reports whether any
// attached query is still live — the parallel analogue of the serial
// loop's per-page pollCancel.
func (s *parallelScan) pollCancel() bool {
	any := false
	for k := range s.canceled {
		if s.canceled[k].Load() {
			continue
		}
		if s.states[s.scanQ[k]].ctx.Err() != nil {
			s.canceled[k].Store(true)
			continue
		}
		any = true
	}
	return any
}

// worker claims chunks until the cursor runs dry or the scan aborts.
func (s *parallelScan) worker() {
	for {
		if s.abort.Load() {
			return
		}
		ci := int(s.next.Add(1)) - 1
		if ci >= len(s.chunks) {
			return
		}
		r := s.chunks[ci]
		for p := r.Lo; p < r.Hi; p++ {
			if s.abort.Load() {
				return
			}
			if !s.pollCancel() {
				s.abort.Store(true) // every attached query canceled
				return
			}
			if err := s.scanOne(p); err != nil {
				s.fail(err)
				return
			}
		}
	}
}

// scanOne reads page pg and records its result slot. It mirrors the
// serial loop's per-page work minus every mutation: the skip check
// against C[p], predicate evaluation for each live attached query, and
// candidate-entry collection for pages in I.
func (s *parallelScan) scanOne(pg storage.PageID) error {
	res := &s.results[pg]
	if s.inI != nil && s.snap.At(pg) == 0 {
		res.skipped = true
		return nil
	}
	var collect func(storage.RID, storage.Value) error
	if s.inI != nil && s.inI[pg] {
		collect = func(rid storage.RID, v storage.Value) error {
			if s.a.Index == nil || !s.a.Index.Covers(v) {
				res.entries = append(res.entries, core.PageEntry{Key: v, RID: rid})
			}
			return nil
		}
	}
	return scanPage(s.a, s.qs, s.scanQ, pg,
		func(k int) bool { return !s.canceled[k].Load() },
		func(k int, m Match) { res.matches = append(res.matches, qMatch{q: k, m: m}) },
		collect)
}

// finish publishes phase-1 cancellations and faults into the outcome
// slots, exactly as the serial loop's pollCancel/failActive would, and
// reports whether the scan aborted (fault, or whole batch canceled).
func (s *parallelScan) finish(err error, outs []SharedOutcome) (aborted bool) {
	for k, qi := range s.scanQ {
		if s.canceled[k].Load() && s.states[qi].active {
			outs[qi].Err = s.states[qi].ctx.Err()
			outs[qi].Matches = nil
			s.states[qi].active = false
		}
	}
	if err != nil {
		failActive(err, outs, s.states, s.scanQ)
		return true
	}
	any := false
	for _, qi := range s.scanQ {
		any = any || s.states[qi].active
	}
	return !any
}

// mergeMatches folds one completed page's demuxed matches and read/skip
// accounting into the outcomes, in the serial loop's order.
func (s *parallelScan) mergeMatches(pg storage.PageID, res *pageResult, outs []SharedOutcome) {
	if res.skipped {
		for _, qi := range s.scanQ {
			if s.states[qi].active {
				outs[qi].Stats.PagesSkipped++
			}
		}
		return
	}
	for _, qi := range s.scanQ {
		if s.states[qi].active {
			s.states[qi].seen.read(&outs[qi].Stats, pg)
		}
	}
	for _, m := range res.matches {
		if qi := s.scanQ[m.q]; s.states[qi].active {
			outs[qi].Matches = append(outs[qi].Matches, m.m)
		}
	}
}

// parallelFullScan is the fan-out variant of sharedFullScan's page loop.
// Called after the FullScan flags are set; the merge performs no buffer
// maintenance because there is no buffer.
func parallelFullScan(a Access, qs []SharedQuery, outs []SharedOutcome, states []scanState, scanQ []int, numPages, workers int) {
	s := newParallelScan(a, qs, states, scanQ, nil, nil, numPages, workers)
	if s.finish(s.run(workers), outs) {
		return
	}
	for p := 0; p < numPages; p++ {
		s.mergeMatches(storage.PageID(p), &s.results[p], outs)
	}
}

// parallelIndexingPass is the fan-out variant of sharedIndexingScan's
// table-scan loop (Algorithm 1 lines 11–17). The ordered merge applies
// each selected page's complete entry set to the Index Buffer via
// ApplyPage, so C[p] → 0 transitions, partition assignment, and
// page-complete span events happen in ascending page order exactly as
// in the serial loop. Returns the pages skipped, the entries added, and
// whether the scan aborted.
func parallelIndexingPass(a Access, qs []SharedQuery, outs []SharedOutcome, states []scanState, scanQ []int, inI map[storage.PageID]bool, snap *core.CounterSnap, numPages, workers int) (skipped map[storage.PageID]bool, entriesAdded int, aborted bool) {
	s := newParallelScan(a, qs, states, scanQ, inI, snap, numPages, workers)
	if s.finish(s.run(workers), outs) {
		// Aborted in phase 1: no page was applied, the buffer is untouched.
		return nil, 0, true
	}
	skipped = make(map[storage.PageID]bool)
	for p := 0; p < numPages; p++ {
		pg := storage.PageID(p)
		res := &s.results[p]
		if res.skipped {
			skipped[pg] = true
		}
		s.mergeMatches(pg, res, outs)
		if !res.skipped && inI[pg] {
			if err := a.Buffer.ApplyPage(pg, res.entries); err != nil {
				failActive(err, outs, states, scanQ)
				return skipped, entriesAdded, true
			}
			entriesAdded += len(res.entries)
			if a.Observer != nil {
				a.Observer.SpaceEvent("page-complete", "", int(pg), len(res.entries))
			}
		}
	}
	return skipped, entriesAdded, false
}
