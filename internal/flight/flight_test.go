package flight

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/trace"
)

// backdate moves an open record's start back by the slow threshold, so
// it completes as a slow statement without sleeping.
func backdate(a *Active) { a.rec.StartUnixNanos -= int64(DefaultSlowThreshold) }

func TestActiveNilSafe(t *testing.T) {
	var a *Active
	a.Span("page-select", "t.a", 3, 10)
	a.Query("t", "a", "hit", 1, 2, 3, false)
	a.WAL(time.Millisecond, 4)
	if a.Trace() != "" {
		t.Error("nil Active has a trace")
	}
	if FromContext(context.Background()) != nil {
		t.Error("bare context yields an Active")
	}
	r := NewRecorder(4, 4)
	r.Complete(nil, nil) // must not panic or count
	if r.Stats().Completed != 0 {
		t.Error("nil Complete counted")
	}
}

// TestFlightDisabledIsInert pins the flight cost of the off path: with
// the engine's observation gate off no Active is begun, so contributors
// hold the nil Active FromContext returns. Every contribution on it
// allocates nothing, and the recorder retains nothing.
func TestFlightDisabledIsInert(t *testing.T) {
	r := NewRecorder(4, 4)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		a := FromContext(ctx)
		a.Span("page-select", "t.a", 1, 2)
		a.Query("t", "a", "hit", 1, 1, 0, false)
		a.WAL(time.Millisecond, 1)
		_ = a.Trace()
	})
	if allocs != 0 {
		t.Errorf("off path allocates %v per op, want 0", allocs)
	}
	if r.Stats().Completed != 0 || len(r.Recent(0)) != 0 {
		t.Error("idle recorder retained state")
	}
}

// TestMechanismPriority pins that a flight record names its statement
// with the tracer's mechanism, in the tracer's priority order, and that
// quota degradation stays visible on the record even when a
// higher-priority mechanism names the statement.
func TestMechanismPriority(t *testing.T) {
	cases := []struct {
		st       exec.QueryStats
		follower bool
		want     string
	}{
		{exec.QueryStats{PartialHit: true, FullScan: true, QuotaDegraded: true}, true, "hit"},
		{exec.QueryStats{FullScan: true, QuotaDegraded: true}, true, "shared-follower"},
		{exec.QueryStats{FullScan: true, QuotaDegraded: true}, false, "full-scan"},
		{exec.QueryStats{QuotaDegraded: true}, false, "degraded-scan"},
		{exec.QueryStats{}, false, "indexing-scan"},
	}
	r := NewRecorder(len(cases), 1)
	for _, c := range cases {
		a, _ := r.Begin(context.Background(), "", "SELECT")
		a.Query("t", "a", trace.Mechanism(c.st, c.follower), 0, 0, 0, c.st.QuotaDegraded)
		r.Complete(a, nil)
		rec := r.Recent(1)[0]
		if rec.Mechanism != c.want || rec.QuotaDegraded != c.st.QuotaDegraded {
			t.Errorf("%+v follower=%v recorded as %q degraded=%v, want %q degraded=%v",
				c.st, c.follower, rec.Mechanism, rec.QuotaDegraded, c.want, c.st.QuotaDegraded)
		}
	}
}

func TestActiveAccumulation(t *testing.T) {
	r := NewRecorder(4, 4)
	a, ctx := r.Begin(WithTrace(context.Background(), "trace-1"), "acme", "SELECT 1")
	if got := a.Trace(); got != "trace-1" {
		t.Fatalf("Begin dropped the wire trace: %q", got)
	}
	if FromContext(ctx) != a {
		t.Fatal("Begin did not attach the Active to the context")
	}
	a.Query("t", "a", "indexing-scan", 5, 10, 2, false)
	a.Query("t", "a", "hit", 7, 3, 1, true) // last mechanism wins, pages accumulate
	a.Span("scan-lead", "t.a", -1, 2)
	a.Span("page-complete", "t.a", 9, 40)
	a.WAL(2*time.Millisecond, 3)
	a.WAL(3*time.Millisecond, 5)
	r.Complete(a, errors.New("boom"))

	recs := r.Recent(0)
	if len(recs) != 1 {
		t.Fatalf("Recent = %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Trace != "trace-1" || rec.Tenant != "acme" || rec.Stmt != "SELECT 1" {
		t.Errorf("identity fields wrong: %+v", rec)
	}
	if rec.Mechanism != "hit" || rec.Matches != 7 {
		t.Errorf("last Query should win: %+v", rec)
	}
	if rec.PagesRead != 13 || rec.PagesSkipped != 3 || !rec.QuotaDegraded {
		t.Errorf("page accounting should accumulate: %+v", rec)
	}
	if rec.WALCommitNanos != int64(5*time.Millisecond) || rec.WALBatch != 5 {
		t.Errorf("WAL accounting wrong: %+v", rec)
	}
	if len(rec.Spans) != 2 || rec.Spans[0].Kind != "scan-lead" || rec.Spans[1].Page != 9 {
		t.Errorf("span tree wrong: %+v", rec.Spans)
	}
	if rec.Error != "boom" {
		t.Errorf("error not stamped: %q", rec.Error)
	}
	if rec.Duration() < 0 {
		t.Errorf("negative duration: %v", rec.Duration())
	}
}

func TestMintIDUnique(t *testing.T) {
	r := NewRecorder(1, 1)
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		id := r.MintID()
		if !strings.HasPrefix(id, "aib-") {
			t.Fatalf("minted ID %q lacks the aib- prefix", id)
		}
		if seen[id] {
			t.Fatalf("duplicate minted ID %q", id)
		}
		seen[id] = true
	}
	// Begin with no wire trace mints.
	a, _ := r.Begin(context.Background(), "", "X")
	if !strings.HasPrefix(a.Trace(), "aib-") {
		t.Errorf("Begin did not mint: %q", a.Trace())
	}
}

// complete runs one Begin/Complete pair; slow forces the record over
// the slow threshold.
func complete(r *Recorder, trace, tenant string, slow bool) {
	a, _ := r.Begin(WithTrace(context.Background(), trace), tenant, "stmt "+trace)
	if slow {
		backdate(a)
	}
	r.Complete(a, nil)
}

func TestRingsEvictionAndSlowCapture(t *testing.T) {
	r := NewRecorder(4, 2)
	for i := 0; i < 7; i++ {
		complete(r, fmt.Sprintf("t%d", i), "", false)
	}
	recs := r.Recent(0)
	if len(recs) != 4 {
		t.Fatalf("recent ring holds %d, want capacity 4", len(recs))
	}
	for i, want := range []string{"t6", "t5", "t4", "t3"} {
		if recs[i].Trace != want {
			t.Errorf("Recent[%d].Trace = %q, want %q (newest first)", i, recs[i].Trace, want)
		}
	}
	if got := r.Recent(2); len(got) != 2 || got[0].Trace != "t6" {
		t.Errorf("Recent(2) = %+v", got)
	}
	if len(r.Slow(0)) != 0 {
		t.Error("slow ring populated below threshold")
	}

	for i := 0; i < 3; i++ {
		complete(r, fmt.Sprintf("s%d", i), "", true)
	}
	slow := r.Slow(0)
	if len(slow) != 2 {
		t.Fatalf("slow ring holds %d, want capacity 2", len(slow))
	}
	for i := 1; i < len(slow); i++ {
		if slow[i-1].DurationNanos < slow[i].DurationNanos {
			t.Errorf("Slow not sorted slowest-first: %v then %v",
				slow[i-1].DurationNanos, slow[i].DurationNanos)
		}
	}
	st := r.Stats()
	if st.Completed != 10 || st.Slow != 3 {
		t.Errorf("Stats = %+v, want Completed 10, Slow 3", st)
	}

	r.Reset()
	if len(r.Recent(0)) != 0 || len(r.Slow(0)) != 0 {
		t.Error("Reset left records behind")
	}
	if got := r.Stats(); got.Completed != 10 {
		t.Errorf("Reset cleared counters: %+v", got)
	}
}

func TestFindFiltersAndDedup(t *testing.T) {
	r := NewRecorder(8, 4)
	complete(r, "tr-a", "acme", true) // in recent AND slow: must dedup
	complete(r, "tr-b", "tiny", false)
	complete(r, "tr-b", "acme", true)

	if got := r.Find("tr-a", "", 0, 0); len(got) != 1 || got[0].Trace != "tr-a" {
		t.Errorf("Find(trace) = %+v, want exactly the deduped tr-a record", got)
	}
	if got := r.Find("", "acme", 0, 0); len(got) != 2 {
		t.Errorf("Find(tenant acme) = %d records, want 2", len(got))
	}
	got := r.Find("tr-b", "tiny", 0, 0)
	if len(got) != 1 || got[0].Tenant != "tiny" {
		t.Errorf("Find(trace+tenant) = %+v", got)
	}
	if got := r.Find("", "", time.Hour, 0); len(got) != 0 {
		t.Errorf("Find(minDur=1h) = %+v, want none", got)
	}
	all := r.Find("", "", 0, 0)
	if len(all) != 3 {
		t.Fatalf("Find(all) = %d records, want 3 after dedup", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Seq < all[i].Seq {
			t.Error("Find not newest-first")
		}
	}
	if got := r.Find("", "", 0, 2); len(got) != 2 {
		t.Errorf("Find(n=2) = %d records", len(got))
	}
}

func TestSinkReceivesCompletions(t *testing.T) {
	r := NewRecorder(2, 2)
	var mu sync.Mutex
	var got []Record
	r.SetSink(func(rec Record) {
		mu.Lock()
		got = append(got, rec)
		mu.Unlock()
	})
	complete(r, "tr-1", "", false)
	r.SetSink(nil)
	complete(r, "tr-2", "", false)
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0].Trace != "tr-1" {
		t.Errorf("sink saw %+v, want exactly tr-1", got)
	}
}

// TestConcurrentRecorder exercises every public surface at once under
// the race detector: writers completing records, readers snapshotting
// all three views and a resetter.
func TestConcurrentRecorder(t *testing.T) {
	r := NewRecorder(16, 8)
	const writers, perWriter, readers = 4, 200, 3
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				a, _ := r.Begin(context.Background(), fmt.Sprintf("tn%d", w), "stmt")
				a.Span("scan-lead", "t.a", -1, 1)
				a.Query("t", "a", "indexing-scan", 1, 2, 0, false)
				if i%3 == 0 {
					backdate(a)
				}
				var err error
				if i%7 == 0 {
					err = errors.New("synthetic")
				}
				r.Complete(a, err)
			}
		}(w)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = r.Recent(8)
				_ = r.Slow(4)
				_ = r.Find("", fmt.Sprintf("tn%d", g), 0, 8)
				_ = r.Stats()
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%3 == 0 {
				r.Reset()
			}
		}
	}()

	// Writers finish on their own; stop the readers and resetter once
	// every completion has been counted.
	for r.Stats().Completed < writers*perWriter {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if got := r.Stats().Completed; got != writers*perWriter {
		t.Errorf("Completed = %d, want %d", got, writers*perWriter)
	}
	for _, rec := range r.Recent(0) {
		if rec.Trace == "" || rec.Stmt != "stmt" {
			t.Errorf("torn record in ring: %+v", rec)
		}
	}
}
