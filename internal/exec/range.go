package exec

import (
	"context"

	"repro/internal/storage"
)

// Range answers the query lo <= column <= hi; a point query is the range
// [key, key]. A partial index answers the query only when its predicate
// covers the whole interval; otherwise the query runs an indexing table
// scan (Algorithm 1) or, without a buffer, a full scan.
//
// Beyond the page scan, a range miss has two more sources: the Index
// Buffer (uncovered tuples of fully indexed pages) and the partial index
// itself, because a range straddling the coverage predicate has covered
// matches sitting unreachable on skipped pages. The paper's §II
// observation "tuples referenced in the index will not be part of the
// result set" holds only for point misses; for wider ranges the index
// postings on skipped pages must be added back — ExecuteShared's
// skipped-page recovery stage does exactly that.
//
// Range is a shared scan with a single attached query; ctx is honored
// between page reads of the scanning paths.
func Range(ctx context.Context, a Access, lo, hi storage.Value) ([]Match, QueryStats, error) {
	o := ExecuteShared(a, []SharedQuery{{Lo: lo, Hi: hi, Ctx: ctx}})[0]
	return o.Matches, o.Stats, o.Err
}

// recoversSkipped reports whether a miss on [lo, hi] must recover index
// postings on pages the scan skipped. A point miss never does: a point
// the partial index covers is a hit, so the index holds no posting for
// an uncovered one.
func recoversSkipped(lo, hi storage.Value) bool { return !lo.Equal(hi) }
