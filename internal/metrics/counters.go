package metrics

import "sync/atomic"

// SharedScanCounters counts the engine's scan-sharing activity. All
// fields are atomics so queries on every table bump them without
// additional locking; Snapshot gives a consistent-enough read for tests
// and monitoring (each field is read atomically, the set is not).
type SharedScanCounters struct {
	// Misses counts queries that needed an indexing scan (partial-index
	// misses on a buffered column) and entered the admission layer. A
	// miss the lock-free read path answers from a complete Index Buffer
	// is never admitted, so it is not counted here.
	Misses atomic.Uint64
	// Scans counts Algorithm-1 passes actually executed.
	Scans atomic.Uint64
	// Attached counts queries that joined another query's batch instead
	// of leading their own scan.
	Attached atomic.Uint64
}

// ParallelScanCounters counts parallel heap-scan execution: how many
// table-scan stages fanned out to more than one worker, and the total
// workers used across them. Atomic for the same reason as
// SharedScanCounters; the mean fan-out is Workers/Scans.
type ParallelScanCounters struct {
	// Scans counts table-scan stages executed with more than one worker.
	Scans atomic.Uint64
	// Workers sums the worker counts of those scans.
	Workers atomic.Uint64
}

// ParallelScanStats is a point-in-time reading of ParallelScanCounters.
type ParallelScanStats struct {
	Scans   uint64 // scans that fanned out (>1 worker)
	Workers uint64 // total workers across those scans
}

// Snapshot reads the counters.
func (c *ParallelScanCounters) Snapshot() ParallelScanStats {
	return ParallelScanStats{Scans: c.Scans.Load(), Workers: c.Workers.Load()}
}

// ScrapeCounters counts /metrics scrape outcomes for the obs HTTP
// layer. A scrape that fails after the response headers are out cannot
// signal the client with a status code, so the failure is recorded
// here and surfaced on the *next* successful scrape as
// aib_scrape_errors_total.
type ScrapeCounters struct {
	// Scrapes counts scrape attempts against a live engine.
	Scrapes atomic.Uint64
	// Errors counts scrapes whose response write failed mid-stream.
	Errors atomic.Uint64
}

// ScrapeStats is a point-in-time reading of ScrapeCounters.
type ScrapeStats struct {
	Scrapes uint64 // scrape attempts
	Errors  uint64 // mid-stream write failures
}

// Snapshot reads the counters.
func (c *ScrapeCounters) Snapshot() ScrapeStats {
	return ScrapeStats{Scrapes: c.Scrapes.Load(), Errors: c.Errors.Load()}
}

// SharedScanStats is a point-in-time reading of SharedScanCounters.
type SharedScanStats struct {
	Misses   uint64 // miss queries admitted
	Scans    uint64 // Algorithm-1 passes executed
	Attached uint64 // queries that rode along on another's scan
	Saved    uint64 // scans avoided by sharing: Misses - Scans
}

// Snapshot reads the counters. Saved clamps at zero: between the Misses
// and Scans loads another query may slip in, so the difference could
// transiently read negative.
func (c *SharedScanCounters) Snapshot() SharedScanStats {
	s := SharedScanStats{
		Misses:   c.Misses.Load(),
		Scans:    c.Scans.Load(),
		Attached: c.Attached.Load(),
	}
	if s.Misses > s.Scans {
		s.Saved = s.Misses - s.Scans
	}
	return s
}
