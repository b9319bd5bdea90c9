package exec

import (
	"context"
	"strings"
	"testing"

	"repro/internal/buffer"
	"repro/internal/storage"
)

// TestCorruptPageSurfacesOnEveryScanPath corrupts a page's stored image
// after the pool evicted it. The pool's admission check must then fail
// every path that reads the page — RID fetch, the serial and parallel
// indexing passes, the full scan — with the heap's "page N" error, and
// the failed serial pass must leave the skip invariant intact.
func TestCorruptPageSurfacesOnEveryScanPath(t *testing.T) {
	tb, d := buildTableOn(t, 300, 8)
	a := scanFixture(t, tb) // scans every page: page 0 is long evicted
	img := make([]byte, buffer.PageSize)
	if err := d.Read(0, img); err != nil {
		t.Fatal(err)
	}
	img[0], img[1] = 0xFF, 0xFF // implausible slot count
	if err := d.Write(0, img); err != nil {
		t.Fatal(err)
	}
	const want = "heap: page 0:"
	check := func(path string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want %q", path, err, want)
		}
	}
	_, err := tb.Get(storage.RID{Page: 0, Slot: 0})
	check("Get", err)
	for _, workers := range []int{1, 4} {
		a.Parallelism = workers
		_, stats, err := Range(context.Background(), a, iv(8), iv(8))
		check("indexing pass", err)
		if stats.ScanWorkers != workers {
			t.Errorf("indexing pass ran %d workers, want %d", stats.ScanWorkers, workers)
		}
		_, stats, err = Range(context.Background(), Access{Table: tb, Column: 0, Parallelism: workers}, iv(8), iv(8))
		check("full scan", err)
		if !stats.FullScan {
			t.Error("full scan path not taken")
		}
	}
	checkCounterInvariant(t, tb, a)
}

// TestDecodeOnMatchAllocsFlat pins the decode-on-match property: scanning
// a page whose tuples all miss the predicate allocates the same fixed
// amount however many tuples the page holds, because only matches are
// decoded. A match costs its tuple's decode.
func TestDecodeOnMatchAllocsFlat(t *testing.T) {
	tb := buildTable(t, 12) // ~11 tuples on page 0, the rest on page 1
	live := func(p storage.PageID) int {
		n := 0
		_ = tb.ScanPage(p, func(storage.RID, storage.Tuple) error { n++; return nil })
		return n
	}
	if many, few := live(0), live(1); many < 8 || few > 2 {
		t.Fatalf("fixture pages hold %d and %d tuples, want many and few", many, few)
	}
	a := Access{Table: tb, Column: 0}
	scanQ := []int{0}
	allocs := func(key int64, p storage.PageID) float64 {
		qs := []SharedQuery{{Lo: iv(key), Hi: iv(key)}}
		states := []scanState{{active: true}}
		outs := make([]SharedOutcome, 1)
		liveQ, emit := serialDemux(outs, states, scanQ)
		return testing.AllocsPerRun(50, func() {
			outs[0].Matches = outs[0].Matches[:0]
			if err := scanPage(a, qs, scanQ, p, liveQ, emit, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	many, few := allocs(99, 0), allocs(99, 1)
	if many != few {
		t.Errorf("no-match scan allocates %.0f on a full page, %.0f on a near-empty one; want equal", many, few)
	}
	if hit := allocs(0, 0); hit <= many {
		t.Errorf("scan with a match allocates %.0f, no more than a scan without (%.0f)", hit, many)
	}
}
