package adapt

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/storage"
)

func iv(v int64) storage.Value { return storage.Int64Value(v) }

// intTable builds a single-int-column table with rows keys uniform in
// [1, domain] and a partial index covering [1, covHi].
func intTable(t *testing.T, rows int, domain, covHi int64) *engine.Table {
	t.Helper()
	eng := engine.New(engine.Config{Space: core.Config{IMax: 5000, P: 1000}})
	schema := storage.MustSchema(
		storage.Column{Name: "k", Kind: storage.KindInt64},
		storage.Column{Name: "pad", Kind: storage.KindString},
	)
	tb, err := eng.CreateTable("t", schema)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	pad := strings.Repeat("a", 300)
	for i := 0; i < rows; i++ {
		tu := storage.NewTuple(iv(1+rng.Int63n(domain)), storage.StringValue(pad))
		if _, err := tb.InsertCtx(context.Background(), tu); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.CreatePartialIndex(0, index.IntRange(1, covHi)); err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestNewRequiresIndex(t *testing.T) {
	eng := engine.New(engine.Config{})
	schema := storage.MustSchema(storage.Column{Name: "k", Kind: storage.KindInt64})
	tb, err := eng.CreateTable("t", schema)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(tb, 0, Policy{}); err == nil {
		t.Error("controller without an index should fail")
	}
}

func TestNoAdaptationWhileHitting(t *testing.T) {
	tb := intTable(t, 3000, 10000, 2000)
	c, err := New(tb, 0, Policy{Window: 30, MissRate: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for q := 0; q < 100; q++ {
		_, _, adapted, err := c.Query(iv(1 + rng.Int63n(2000))) // always covered
		if err != nil {
			t.Fatal(err)
		}
		if adapted {
			t.Fatal("adapted under an all-hit workload")
		}
	}
	if c.Stats().Adaptations != 0 || c.Stats().Misses != 0 {
		t.Errorf("stats = %+v", c.Stats())
	}
}

func TestAdaptsToShiftedHotRange(t *testing.T) {
	tb := intTable(t, 3000, 10000, 2000)
	c, err := New(tb, 0, Policy{Window: 30, MissRate: 0.7, BucketWidth: 500, TopK: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	// The workload shifts entirely to [7000, 7999] — uncovered.
	adaptedAt := -1
	for q := 0; q < 120; q++ {
		_, _, adapted, err := c.Query(iv(7000 + rng.Int63n(1000)))
		if err != nil {
			t.Fatal(err)
		}
		if adapted && adaptedAt == -1 {
			adaptedAt = q
		}
	}
	if adaptedAt == -1 {
		t.Fatal("controller never adapted")
	}
	// The control loop delay: adaptation needs a full window of misses.
	if adaptedAt < 29 {
		t.Errorf("adapted at query %d, before the window filled", adaptedAt)
	}
	if c.Stats().Adaptations != 1 {
		t.Errorf("adaptations = %d, want exactly 1 (hysteresis)", c.Stats().Adaptations)
	}
	// The new coverage serves the hot range.
	ix := tb.Index(0)
	if !ix.Covers(iv(7500)) {
		t.Errorf("adapted coverage %s does not cover the hot range", ix.Coverage())
	}
	_, stats, err := tb.QueryRangeCtx(context.Background(), 0, iv(7123), iv(7123))
	if err != nil {
		t.Fatal(err)
	}
	if !stats.PartialHit {
		t.Error("post-adaptation query should hit")
	}
}

func TestAdaptsToTwoHotRegions(t *testing.T) {
	tb := intTable(t, 3000, 10000, 1000)
	c, err := New(tb, 0, Policy{Window: 40, MissRate: 0.6, BucketWidth: 500, TopK: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for q := 0; q < 150; q++ {
		var key int64
		if rng.Intn(2) == 0 {
			key = 4000 + rng.Int63n(500)
		} else {
			key = 8000 + rng.Int63n(500)
		}
		if _, _, _, err := c.Query(iv(key)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Stats().Adaptations == 0 {
		t.Fatal("never adapted")
	}
	ix := tb.Index(0)
	if !ix.Covers(iv(4100)) || !ix.Covers(iv(8100)) {
		t.Errorf("coverage %s misses a hot region", ix.Coverage())
	}
	// The cold gap between the regions stays uncovered (partial!).
	if ix.Covers(iv(6000)) {
		t.Errorf("coverage %s covers the cold gap", ix.Coverage())
	}
}

func TestAdaptsStringColumnToSetCoverage(t *testing.T) {
	eng := engine.New(engine.Config{Space: core.Config{IMax: 5000, P: 1000}})
	schema := storage.MustSchema(
		storage.Column{Name: "airport", Kind: storage.KindString},
		storage.Column{Name: "pad", Kind: storage.KindString},
	)
	tb, err := eng.CreateTable("t", schema)
	if err != nil {
		t.Fatal(err)
	}
	airports := []string{"ORD", "JFK", "FRA", "MUC", "HEL"}
	pad := strings.Repeat("b", 200)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 1500; i++ {
		tu := storage.NewTuple(
			storage.StringValue(airports[rng.Intn(len(airports))]),
			storage.StringValue(pad),
		)
		if _, err := tb.InsertCtx(context.Background(), tu); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.CreatePartialIndex(0, index.NewSetCoverage(
		storage.StringValue("ORD"), storage.StringValue("JFK"))); err != nil {
		t.Fatal(err)
	}
	c, err := New(tb, 0, Policy{Window: 20, MissRate: 0.7, TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	// German reports take over.
	for q := 0; q < 60; q++ {
		key := "FRA"
		if q%2 == 1 {
			key = "MUC"
		}
		if _, _, _, err := c.Query(storage.StringValue(key)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Stats().Adaptations == 0 {
		t.Fatal("never adapted")
	}
	ix := tb.Index(0)
	if !ix.Covers(storage.StringValue("FRA")) || !ix.Covers(storage.StringValue("MUC")) {
		t.Errorf("coverage %s misses the hot airports", ix.Coverage())
	}
}

func TestHysteresisPreventsThrash(t *testing.T) {
	tb := intTable(t, 2000, 10000, 1000)
	c, err := New(tb, 0, Policy{Window: 20, MissRate: 0.5, MinGap: 100, BucketWidth: 1000, TopK: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	// Alternate between two uncovered ranges every query — a pathological
	// oscillation. MinGap must bound the adaptations.
	for q := 0; q < 200; q++ {
		key := int64(5000)
		if q%2 == 1 {
			key = 9000
		}
		if _, _, _, err := c.Query(iv(key + rng.Int63n(500))); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Stats().Adaptations; got > 2 {
		t.Errorf("adaptations = %d, hysteresis should keep it <= 2", got)
	}
}

// TestBufferBridgesControllerGap is the end-to-end story: with the Index
// Buffer on, the expensive window between shift and adaptation is cheap.
func TestBufferBridgesControllerGap(t *testing.T) {
	tb := intTable(t, 3000, 10000, 2000)
	c, err := New(tb, 0, Policy{Window: 40, MissRate: 0.8, BucketWidth: 500})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	var gapCosts []int
	adapted := false
	for q := 0; q < 120 && !adapted; q++ {
		_, stats, a, err := c.Query(iv(7000 + rng.Int63n(1000)))
		if err != nil {
			t.Fatal(err)
		}
		adapted = a
		if q >= 2 && !a {
			gapCosts = append(gapCosts, stats.PagesRead)
		}
	}
	if !adapted {
		t.Fatal("never adapted")
	}
	// From the third query on, the buffer has the hot pages indexed:
	// mean gap cost must be far below a full scan.
	total := 0
	for _, c := range gapCosts {
		total += c
	}
	mean := float64(total) / float64(len(gapCosts))
	if mean > float64(tb.NumPages())/4 {
		t.Errorf("gap cost %.1f pages/query of %d-page table; buffer did not bridge", mean, tb.NumPages())
	}
}
