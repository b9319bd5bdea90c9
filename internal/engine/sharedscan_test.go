package engine

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/storage"
)

// newKeyed builds a table with rows tuples, key = i % domain, padded so
// a few tuples fit per page, with a partial index covering [0, cover].
func newKeyed(t *testing.T, rows, domain int, cover int64) (*Engine, *Table) {
	t.Helper()
	e := New(Config{Space: core.Config{IMax: 10000, P: 100}})
	schema := storage.MustSchema(
		storage.Column{Name: "k", Kind: storage.KindInt64},
		storage.Column{Name: "pad", Kind: storage.KindString},
	)
	tb, err := e.CreateTable("t", schema)
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("p", 700)
	for i := 0; i < rows; i++ {
		tu := storage.NewTuple(iv(int64(i%domain)), storage.StringValue(pad))
		if _, err := tb.InsertCtx(context.Background(), tu); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.CreatePartialIndex(0, index.IntRange(0, cover)); err != nil {
		t.Fatal(err)
	}
	return e, tb
}

// TestSharedScanCoalescesConcurrentMisses pins the attach window open by
// occupying the column's batch slot directly, so all 8 concurrent misses
// deterministically join one batch; the test then performs the leader's
// duty and asserts exactly one shared pass answered all of them.
func TestSharedScanCoalescesConcurrentMisses(t *testing.T) {
	e, tb := newKeyed(t, 300, 50, 9)

	blocker := &attachedQuery{ctx: context.Background(), lo: iv(10), hi: iv(10)}
	batch, leader := tb.scans.attach(0, blocker)
	if !leader {
		t.Fatal("fresh table already has a pending batch")
	}

	const n = 8
	var wg sync.WaitGroup
	results := make([][]exec.Match, n)
	errs := make([]error, n)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g], _, errs[g] = tb.QueryRangeCtx(context.Background(), 0, iv(int64(10+g)), iv(int64(10+g))) // uncovered keys 10..17
		}(g)
	}

	// Wait until every miss has attached to the pinned batch.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s := e.SharedScanStats(); s.Misses == n && s.Attached == n {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("batch never assembled: %+v", s)
		}
		time.Sleep(time.Millisecond)
	}

	// The leader's duty: seal, run one shared pass, publish.
	tb.mu.Lock()
	attached := tb.scans.seal(0, batch)
	a, err := tb.accessLocked(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.sharedScans.Scans.Add(1)
	tb.runShared(a, attached)
	tb.mu.Unlock()
	close(batch.done)
	wg.Wait()

	if len(attached) != n+1 {
		t.Fatalf("batch holds %d queries, want %d", len(attached), n+1)
	}
	for g := 0; g < n; g++ {
		if errs[g] != nil {
			t.Errorf("query %d: %v", g, errs[g])
		}
		if len(results[g]) != 6 {
			t.Errorf("query %d: %d matches, want 6", g, len(results[g]))
		}
	}
	if blocker.err != nil || len(blocker.out) != 6 {
		t.Errorf("blocker outcome: err=%v matches=%d", blocker.err, len(blocker.out))
	}
	s := e.SharedScanStats()
	if s.Scans != 1 {
		t.Errorf("Scans = %d, want 1 (one pass for %d misses)", s.Scans, n)
	}
	if s.Saved != n-1 {
		t.Errorf("Saved = %d, want %d", s.Saved, n-1)
	}
	// The shared pass built the buffer: a later miss skips every page and
	// only fetches the pages holding its buffered matches.
	_, stats, err := tb.QueryRangeCtx(context.Background(), 0, iv(30), iv(30))
	if err != nil {
		t.Fatal(err)
	}
	if stats.PagesSkipped != tb.NumPages() || stats.BufferMatches != 6 || stats.PagesRead > 6 {
		t.Errorf("follow-up miss: skipped=%d bufferMatches=%d read=%d of %d pages",
			stats.PagesSkipped, stats.BufferMatches, stats.PagesRead, tb.NumPages())
	}
}

// TestSharedScanFollowerCancellation pins a batch open and cancels an
// attached follower: it must return ctx.Err() immediately, without
// waiting for the scan.
func TestSharedScanFollowerCancellation(t *testing.T) {
	e, tb := newKeyed(t, 300, 50, 9)

	blocker := &attachedQuery{ctx: context.Background(), lo: iv(10), hi: iv(10)}
	batch, leader := tb.scans.attach(0, blocker)
	if !leader {
		t.Fatal("fresh table already has a pending batch")
	}

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, _, err := tb.QueryEqualCtx(ctx, 0, iv(11))
		errCh <- err
	}()

	deadline := time.Now().Add(5 * time.Second)
	for e.SharedScanStats().Attached != 1 {
		if time.Now().After(deadline) {
			t.Fatal("follower never attached")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("follower err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled follower still waiting on the batch")
	}

	// The batch still runs for its remaining queries.
	tb.mu.Lock()
	attached := tb.scans.seal(0, batch)
	a, err := tb.accessLocked(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.sharedScans.Scans.Add(1)
	tb.runShared(a, attached)
	tb.mu.Unlock()
	close(batch.done)

	if blocker.err != nil || len(blocker.out) != 6 {
		t.Errorf("blocker outcome after follower cancel: err=%v matches=%d", blocker.err, len(blocker.out))
	}
}
