package exec

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/index"
	"repro/internal/storage"
)

var errInjected = errors.New("injected fault")

// faultHeap wraps a heap table and fails the scan callback after a set
// number of tuples — mid-page, so the rollback path after BeginPage is
// exercised.
type faultHeap struct {
	*heap.Table
	remaining  int
	armed      bool
	failedPage storage.PageID
}

func (f *faultHeap) ScanKeys(p storage.PageID, col int, fn func(storage.RID, storage.Value, []byte) error) error {
	return f.Table.ScanKeys(p, col, func(rid storage.RID, key storage.Value, raw []byte) error {
		if f.armed {
			if f.remaining == 0 {
				f.armed = false
				f.failedPage = p
				return errInjected
			}
			f.remaining--
		}
		return fn(rid, key, raw)
	})
}

// scanFixture builds the standard 300-row table (keys i%10, coverage
// [0,4]) with a buffer over the given heap access.
func scanFixture(t *testing.T, tb Heap) Access {
	t.Helper()
	ix := index.NewPartial("k", 0, index.IntRange(0, 4))
	uncovered := make([]int, tb.NumPages())
	for p := 0; p < tb.NumPages(); p++ {
		err := tb.ScanKeys(storage.PageID(p), 0, func(rid storage.RID, key storage.Value, _ []byte) error {
			if !ix.Add(key, rid) {
				uncovered[rid.Page]++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	space := core.NewSpace(core.Config{IMax: 10000, P: 100})
	buf, err := space.CreateBuffer("t.k", uncovered)
	if err != nil {
		t.Fatal(err)
	}
	return Access{Table: tb, Column: 0, Index: ix, Buffer: buf, Space: space}
}

// checkCounterInvariant asserts the paper's skip invariant: a page may
// report C[p] == 0 only when every uncovered live tuple of the page is
// reachable through the buffer.
func checkCounterInvariant(t *testing.T, tb *heap.Table, a Access) {
	t.Helper()
	for p := 0; p < tb.NumPages(); p++ {
		pg := storage.PageID(p)
		if a.Buffer.Counter(pg) != 0 {
			continue
		}
		err := tb.ScanPage(pg, func(rid storage.RID, tu storage.Tuple) error {
			v := tu.Value(0)
			if a.Index.Covers(v) {
				return nil
			}
			for _, got := range a.Buffer.Lookup(v) {
				if got == rid {
					return nil
				}
			}
			t.Errorf("page %d: C[p]==0 but uncovered tuple %v at %v missing from buffer", p, v, rid)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestMidPageFailureRollsBackPage(t *testing.T) {
	real := buildTable(t, 300)
	fh := &faultHeap{Table: real}
	a := scanFixture(t, fh)
	a.Parallelism = 1                 // the serial pass: only it can fail mid-page after BeginPage
	fh.remaining, fh.armed = 25, true // fails on the 3rd page, mid-page

	_, stats, err := Equal(context.Background(), a, iv(8))
	if !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	if stats.Duration <= 0 {
		t.Error("Duration not recorded on the error path")
	}

	// The failed page must have reverted: its counter reads the full
	// uncovered count again, not 0.
	if got := a.Buffer.Counter(fh.failedPage); got == 0 {
		t.Errorf("failed page %d still reports C[p]==0 after rollback", fh.failedPage)
	} else if want := a.Buffer.Uncovered(fh.failedPage); got != want {
		t.Errorf("failed page counter = %d, want uncovered count %d", got, want)
	}
	// The Space budget balances the buffer's actual contents.
	if used, entries := a.Space.Used(), a.Buffer.EntryCount(); used != entries {
		t.Errorf("Space.Used() = %d, buffer holds %d entries", used, entries)
	}
	checkCounterInvariant(t, real, a)

	// With the fault disarmed, the query matches the serial oracle.
	got, _, err := Equal(context.Background(), a, iv(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 30 {
		t.Errorf("post-fault matches = %d, want 30", len(got))
	}
	checkCounterInvariant(t, real, a)
	if used, entries := a.Space.Used(), a.Buffer.EntryCount(); used != entries {
		t.Errorf("after recovery: Space.Used() = %d, buffer holds %d entries", used, entries)
	}
}

func TestExecuteSharedBatch(t *testing.T) {
	tb := buildTable(t, 300)
	a := scanFixture(t, tb)

	outs := ExecuteShared(a, []SharedQuery{
		{Lo: iv(8), Hi: iv(8), Equality: true}, // miss — batch leader
		{Lo: iv(9), Hi: iv(9), Equality: true}, // miss
		{Lo: iv(2), Hi: iv(2), Equality: true}, // covered: served from the index
		{Lo: iv(5), Hi: iv(9)},                 // range miss straddling coverage
	})
	want := []int{30, 30, 30, 150}
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("query %d: %v", i, o.Err)
		}
		if len(o.Matches) != want[i] || o.Stats.Matches != want[i] {
			t.Errorf("query %d: %d matches (stats %d), want %d", i, len(o.Matches), o.Stats.Matches, want[i])
		}
		if o.Stats.Duration <= 0 {
			t.Errorf("query %d: Duration not recorded", i)
		}
	}
	if !outs[2].Stats.PartialHit || outs[2].Stats.PagesRead >= tb.NumPages() {
		t.Errorf("covered query stats = %+v", outs[2].Stats)
	}

	// Maintenance ran once, attributed to the first scanning query: 150
	// uncovered tuples entered the buffer in one pass.
	if outs[0].Stats.PagesSelected != tb.NumPages() || outs[0].Stats.EntriesAdded != 150 {
		t.Errorf("leader stats: selected=%d entries=%d", outs[0].Stats.PagesSelected, outs[0].Stats.EntriesAdded)
	}
	for _, i := range []int{1, 2, 3} {
		if outs[i].Stats.PagesSelected != 0 || outs[i].Stats.EntriesAdded != 0 {
			t.Errorf("query %d carries maintenance stats %+v", i, outs[i].Stats)
		}
	}
	// Per-query logical I/O stays deduplicated: no query reads a page
	// twice even though the range query touches buffer materialization,
	// the table scan, and skipped-page recovery.
	for i, o := range outs {
		if o.Stats.PagesRead > tb.NumPages() {
			t.Errorf("query %d read %d pages of %d", i, o.Stats.PagesRead, tb.NumPages())
		}
	}

	// One pass buffered every page: the next miss skips the whole table.
	got, s2, err := Equal(context.Background(), a, iv(9))
	if err != nil {
		t.Fatal(err)
	}
	if s2.PagesSkipped != tb.NumPages() || s2.BufferMatches != 30 || len(got) != 30 {
		t.Errorf("second pass: skipped=%d bufferMatches=%d matches=%d", s2.PagesSkipped, s2.BufferMatches, len(got))
	}
}

func TestExecuteSharedCancelOne(t *testing.T) {
	tb := buildTable(t, 300)
	a := scanFixture(t, tb)

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	outs := ExecuteShared(a, []SharedQuery{
		{Lo: iv(8), Hi: iv(8), Equality: true, Ctx: canceled},
		{Lo: iv(9), Hi: iv(9), Equality: true},
	})

	if !errors.Is(outs[0].Err, context.Canceled) || outs[0].Matches != nil {
		t.Errorf("canceled query: err=%v matches=%d", outs[0].Err, len(outs[0].Matches))
	}
	if outs[1].Err != nil || len(outs[1].Matches) != 30 {
		t.Errorf("live query: err=%v matches=%d", outs[1].Err, len(outs[1].Matches))
	}
	// The scan survived the cancellation and still built the buffer.
	if a.Buffer.EntryCount() == 0 {
		t.Error("scan aborted: buffer empty after one query canceled")
	}
}
