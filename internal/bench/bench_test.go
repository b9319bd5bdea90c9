package bench

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// testOpts is a fast configuration that still has enough pages (~380) to
// show skip behaviour.
func testOpts() Options {
	return Options{Rows: 10000, Queries: 100, Seed: 1}
}

func TestRunFig1Shapes(t *testing.T) {
	o := DefaultFig1Options()
	r := RunFig1(o)
	if r.QueriedValue.Len() != o.Queries {
		t.Fatalf("series length %d", r.QueriedValue.Len())
	}
	// Steady state before the shift: hit rate recovers to a high level.
	warm := r.HitRate.MeanRange(150, 200)
	if warm < 0.5 {
		t.Errorf("pre-shift hit rate %.2f, want > 0.5", warm)
	}
	// Control loop delay: right after the shift the hit rate collapses.
	during := r.HitRate.MeanRange(300, 340)
	if during > warm/2 {
		t.Errorf("post-shift hit rate %.2f did not collapse from %.2f", during, warm)
	}
	// Recovery at the end.
	late := r.HitRate.MeanRange(450, 500)
	if late < 0.5 {
		t.Errorf("late hit rate %.2f, want > 0.5", late)
	}
	// Indexed range lags the queried range: early it tracks the low
	// values, at the end the high values.
	if hi := r.IndexedHi.MeanRange(150, 200); hi > 15 {
		t.Errorf("pre-shift indexed hi %.1f, want <= 15", hi)
	}
	// A stale low value may survive in the LRU tail, so check that the
	// bulk of the index moved: the upper edge reached the new range and
	// the lower edge rose substantially from the old range's floor.
	if hi := r.IndexedHi.MeanRange(480, 500); hi < 25 {
		t.Errorf("late indexed hi %.1f, want >= 25", hi)
	}
	if lo := r.IndexedLo.MeanRange(480, 500); lo < 10 {
		t.Errorf("late indexed lo %.1f, want >= 10 (index should have followed)", lo)
	}
}

func TestRunFig3Shapes(t *testing.T) {
	o := Fig3Options{Tuples: 20000, Steps: 150, SwapsPerStep: 60, Seed: 1}
	r, err := RunFig3(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Curves) != 6 {
		t.Fatalf("curves = %d", len(r.Curves))
	}
	for _, c := range r.Curves {
		first := c.Points[0]
		if first.Correlation < 0.999 {
			t.Errorf("%v: initial correlation %v", c.Scenario, first.Correlation)
		}
		// Clustered share equals coverage (paper's Figure 3 anchor).
		if diff := first.FullyIndexedShare - c.Scenario.Coverage; diff > 0.02 || diff < -0.02 {
			t.Errorf("%v: clustered share %v, want ~%v", c.Scenario, first.FullyIndexedShare, c.Scenario.Coverage)
		}
	}
	// Headline claim: >= 10 tuples/page at correlation 0.8 -> < 5%.
	for _, c := range r.Curves {
		if c.Scenario.TuplesPerPage < 10 {
			continue
		}
		share := shareAtCorrelation(c, 0.8)
		if share >= 0.05 {
			t.Errorf("%v: share %.3f at correlation 0.8, want < 0.05", c.Scenario, share)
		}
	}
	// Frame renders one row per grid step.
	var buf bytes.Buffer
	if err := r.Frame().WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 22 { // header + 21 grid points
		t.Errorf("frame rows = %d", lines)
	}
}

func shareAtCorrelation(c Fig3Curve, corr float64) float64 {
	best := c.Points[0]
	for _, p := range c.Points {
		if abs(p.Correlation-corr) < abs(best.Correlation-corr) {
			best = p
		}
	}
	return best.FullyIndexedShare
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestRunFig6Shapes(t *testing.T) {
	r, err := RunFig6(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r.PagesRead.Len() != 100 {
		t.Fatalf("series length %d", r.PagesRead.Len())
	}
	// First query pays roughly a full scan.
	if first := r.PagesRead.Y[0]; first < float64(r.TablePages) {
		t.Errorf("first query read %.0f of %d pages", first, r.TablePages)
	}
	// Unlimited space: the buffer reaches full build-out...
	if got := int(r.Entries.Y[r.Entries.Len()-1]); got != r.TotalUncov {
		t.Errorf("final entries %d, want full build-out %d", got, r.TotalUncov)
	}
	// ...quickly (paper: "all pages were completely indexed after 20
	// queries" — our scaled I^MAX reaches it in comparable query counts).
	byQuery := -1
	for i, v := range r.Entries.Y {
		if int(v) == r.TotalUncov {
			byQuery = i
			break
		}
	}
	if byQuery < 0 || byQuery > 25 {
		t.Errorf("full build-out at query %d, want within 25", byQuery)
	}
	// Late queries skip everything and cost index-scan level.
	if skipped := r.Skipped.MeanRange(50, 100); skipped < float64(r.TablePages) {
		t.Errorf("late skipped %.1f of %d pages", skipped, r.TablePages)
	}
	lateCost := r.PagesRead.MeanRange(50, 100)
	lateIndexRef := r.IndexRef.MeanRange(50, 100)
	if lateCost > lateIndexRef+1 {
		t.Errorf("late cost %.2f pages vs index ref %.2f", lateCost, lateIndexRef)
	}
	if lateCost > float64(r.TablePages)/20 {
		t.Errorf("late cost %.2f did not collapse vs %d-page scans", lateCost, r.TablePages)
	}
}

func TestRunFig7Shapes(t *testing.T) {
	o := testOpts()
	configs := []Fig7Config{
		{IMax: 1000, L: 0},
		{IMax: 5000, L: 0},
		{IMax: 5000, L: 100000},
	}
	r, err := RunFig7(o, configs)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Curves) != 3 {
		t.Fatalf("curves = %d", len(r.Curves))
	}
	slow, fast, capped := r.Curves[0], r.Curves[1], r.Curves[2]

	// Aggressiveness: after a few queries the high-I^MAX curve is
	// cheaper.
	if s, f := slow.PagesRead.MeanRange(2, 10), fast.PagesRead.MeanRange(2, 10); f >= s {
		t.Errorf("early cost: imax=5000 %.1f >= imax=1000 %.1f", f, s)
	}
	// Ceiling: the capped configuration ends with fewer entries and a
	// higher late cost than unlimited.
	lastEntries := func(c Fig7Curve) float64 { return c.Entries.Y[c.Entries.Len()-1] }
	if lastEntries(capped) >= lastEntries(fast) {
		t.Errorf("capped entries %.0f >= unlimited %.0f", lastEntries(capped), lastEntries(fast))
	}
	cappedLimit := (&Options{Rows: o.Rows}).scale(100000)
	if int(lastEntries(capped)) > cappedLimit {
		t.Errorf("capped entries %.0f exceed limit %d", lastEntries(capped), cappedLimit)
	}
	if c, u := capped.PagesRead.MeanRange(50, 100), fast.PagesRead.MeanRange(50, 100); c <= u {
		t.Errorf("late cost: capped %.1f <= unlimited %.1f (limit should leave a floor)", c, u)
	}
}

func TestRunFig8Shapes(t *testing.T) {
	o := testOpts()
	o.Queries = 200
	r, err := RunFig8(o)
	if err != nil {
		t.Fatal(err)
	}
	// Space bound respected throughout.
	if r.SpaceUsed.Max() > float64(r.SpaceLimit) {
		t.Errorf("space used %.0f exceeds limit %d", r.SpaceUsed.Max(), r.SpaceLimit)
	}
	// First period: A (half the queries) out-occupies C (a sixth).
	aFirst := r.Entries[0].MeanRange(60, 100)
	cFirst := r.Entries[2].MeanRange(60, 100)
	if aFirst <= cFirst {
		t.Errorf("first period: A %.0f <= C %.0f", aFirst, cFirst)
	}
	// Second period: the situation flips.
	aSecond := r.Entries[0].MeanRange(170, 200)
	cSecond := r.Entries[2].MeanRange(170, 200)
	if cSecond <= aSecond {
		t.Errorf("second period: C %.0f <= A %.0f", cSecond, aSecond)
	}
	// A shrinks substantially from its first-period occupancy.
	if aSecond > aFirst/2 {
		t.Errorf("A did not shrink: %.0f -> %.0f", aFirst, aSecond)
	}
	// C grows substantially.
	if cSecond < 2*cFirst {
		t.Errorf("C did not grow: %.0f -> %.0f", cFirst, cSecond)
	}
}

func TestRunFig9Shapes(t *testing.T) {
	o := testOpts()
	o.Queries = 200
	r, err := RunFig9(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.SpaceUsed.Max() > float64(r.SpaceLimit) {
		t.Errorf("space used %.0f exceeds limit %d", r.SpaceUsed.Max(), r.SpaceLimit)
	}
	// First period: high hit rate on A starves its buffer relative to B,
	// even though A receives 3x B's queries... the misses still trickle
	// in, so compare occupancy per miss: A gets ~10% misses of 50% share
	// = 5% of queries; B gets 33%. B should out-occupy A.
	aFirst := r.Entries[0].MeanRange(60, 100)
	bFirst := r.Entries[1].MeanRange(60, 100)
	if aFirst >= bFirst {
		t.Errorf("first period: A %.0f >= B %.0f despite 80%% hit rate on A", aFirst, bFirst)
	}
	// Second period: A's hit rate drops to 20%; its buffer grows quickly.
	aSecond := r.Entries[0].MeanRange(170, 200)
	if aSecond <= 2*aFirst {
		t.Errorf("A did not grow after hit-rate drop: %.0f -> %.0f", aFirst, aSecond)
	}
	// B shrinks (or at least stops dominating A).
	bSecond := r.Entries[1].MeanRange(170, 200)
	if aSecond <= bSecond {
		t.Errorf("second period: A %.0f <= B %.0f", aSecond, bSecond)
	}
	// Observed hit rate on A actually moved from ~0.8 toward ~0.5
	// cumulative (0.8 then 0.2 averages to ~0.5).
	finalRate := r.HitsA.Y[r.HitsA.Len()-1]
	if finalRate < 0.35 || finalRate > 0.65 {
		t.Errorf("cumulative hit rate on A = %.2f, want ~0.5", finalRate)
	}
}

func TestOptionsValidate(t *testing.T) {
	if _, err := RunFig6(Options{Rows: 10}); err == nil {
		t.Error("tiny row count should fail validation")
	}
}

func TestRunBridgeShapes(t *testing.T) {
	o := BridgeOptions{Rows: 8000, Queries: 120, ShiftAt: 20, MonitorWindow: 40, MissThreshold: 32, Seed: 1}
	r, err := RunBridge(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.Baseline.Len() != o.Queries {
		t.Fatalf("series length %d", r.Baseline.Len())
	}
	// Adaptation must actually have happened, after the shift plus the
	// monitor delay.
	if r.AdaptedAt < o.ShiftAt+o.MissThreshold-5 {
		t.Errorf("adapted at query %d, expected >= ~%d", r.AdaptedAt, o.ShiftAt+o.MissThreshold)
	}
	base, adapt, adaptBuf := r.Cumulative()
	// The paper's ordering: buffer+adaptation beats adaptation-only
	// beats never-adapting, by a wide margin.
	if !(adaptBuf < adapt && adapt < base) {
		t.Errorf("cumulative cost ordering wrong: buf=%.0f adapt=%.0f base=%.0f", adaptBuf, adapt, base)
	}
	if adaptBuf > base/2 {
		t.Errorf("buffer saved too little: %.0f vs baseline %.0f", adaptBuf, base)
	}
	// During the gap (post-shift, pre-adaptation) the buffered system is
	// already cheap while adapt-only still pays scans.
	gapFrom, gapTo := o.ShiftAt+5, r.AdaptedAt-5
	if gapTo > gapFrom {
		bufGap := r.AdaptBuf.MeanRange(gapFrom, gapTo)
		adaptGap := r.Adapt.MeanRange(gapFrom, gapTo)
		if bufGap >= adaptGap/2 {
			t.Errorf("gap: buffered %.1f vs adapt-only %.1f pages/query; no bridge effect", bufGap, adaptGap)
		}
	}
	// After adaptation both adapt systems are cheap (hits).
	lateAdapt := r.Adapt.MeanRange(r.AdaptedAt+10, o.Queries)
	if lateAdapt > 50 {
		t.Errorf("adapt-only still expensive after adaptation: %.1f pages/query", lateAdapt)
	}
}

func TestRunCorrelationShapes(t *testing.T) {
	o := CorrelationOptions{Rows: 8000, Correlations: []float64{1.0, 0.8, 0.0}, Seed: 1}
	r, err := RunCorrelation(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 3 {
		t.Fatalf("points = %d", len(r.Points))
	}
	clustered, mid, shuffled := r.Points[0], r.Points[1], r.Points[2]

	// Measured correlations near targets.
	if clustered.Measured < 0.999 {
		t.Errorf("clustered measured %.3f", clustered.Measured)
	}
	if abs(mid.Measured-0.8) > 0.05 {
		t.Errorf("mid measured %.3f, want ~0.8", mid.Measured)
	}
	if shuffled.Measured > 0.1 {
		t.Errorf("shuffled measured %.3f", shuffled.Measured)
	}

	// Fig. 3 inside the engine: clustered tables skip ~coverage share of
	// pages naturally; decorrelated tables skip almost nothing.
	if clustered.NaturalSkipShare < 0.07 {
		t.Errorf("clustered natural skips %.3f, want ~coverage 0.1", clustered.NaturalSkipShare)
	}
	if mid.NaturalSkipShare >= 0.05 {
		t.Errorf("corr 0.8 natural skips %.3f, want < 0.05 (paper's claim)", mid.NaturalSkipShare)
	}
	if shuffled.NaturalSkipShare > 0.01 {
		t.Errorf("shuffled natural skips %.3f", shuffled.NaturalSkipShare)
	}

	// The buffer restores full skip coverage regardless of layout...
	for _, p := range r.Points {
		if p.SteadyMissPages > float64(p.TablePages)/20 {
			t.Errorf("corr %.1f: steady cost %.1f of %d pages", p.TargetCorrelation, p.SteadyMissPages, p.TablePages)
		}
		// ...at a memory cost that grows as clustering decays.
		if p.BufferEntries <= 0 {
			t.Errorf("corr %.1f: no buffer entries", p.TargetCorrelation)
		}
	}
	if clustered.BufferedPages >= shuffled.BufferedPages {
		t.Errorf("clustered needed %d buffered pages vs shuffled %d; decay should cost more",
			clustered.BufferedPages, shuffled.BufferedPages)
	}
	// Frame renders one row per level.
	if got := r.Frame().Series[0].Len(); got != 3 {
		t.Errorf("frame rows = %d", got)
	}
}

func TestRunChurnShapes(t *testing.T) {
	o := ChurnOptions{Rows: 8000, Operations: 300, DMLShare: 0.5, Seed: 1}
	r, err := RunChurn(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.Queries+r.DML != o.Operations {
		t.Fatalf("queries %d + dml %d != %d", r.Queries, r.DML, o.Operations)
	}
	if r.DML < 100 || r.Queries < 100 {
		t.Fatalf("unbalanced mix: %d queries, %d dml", r.Queries, r.DML)
	}
	// The table grows (inserts outpace nothing — deletes free slots but
	// pages never shrink without vacuum).
	if r.TablePages.Y[r.TablePages.Len()-1] < r.TablePages.Y[0] {
		t.Error("table shrank without vacuum")
	}
	// After warm-up, query cost stays near index-scan level despite DML:
	// the buffer absorbs inserts on buffered pages and counters track the
	// rest.
	n := r.QueryPages.Len()
	late := r.QueryPages.MeanRange(n/2, n)
	first := r.QueryPages.Y[0]
	if late > first/10 {
		t.Errorf("late query cost %.1f vs first %.0f; churn broke the buffer's benefit", late, first)
	}
	// Entries keep tracking the maintained state (never negative or
	// wildly divergent from the final count).
	if r.Entries.Min() < 0 {
		t.Error("negative entries")
	}
}

// TestBufferSkewInsensitive pins down a property the paper leaves
// implicit: because the Index Buffer indexes *pages* (physical units),
// its benefit is independent of the key distribution of the miss stream
// — a zipf-skewed workload converges to the same cheap steady state as a
// uniform one. (A value-granular mechanism like the Fig. 1 tuner is, by
// contrast, highly skew-sensitive.)
func TestBufferSkewInsensitive(t *testing.T) {
	run := func(skewed bool) float64 {
		o := Options{Rows: 8000, Queries: 60, Seed: 1}
		spaceCfg := core.Config{IMax: o.scale(paperIMax), P: o.scale(paperP)}
		_, tb, err := setup(o, spaceCfg, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		rng := o.queryRng()
		uniform := uncoveredDraw()
		zipf := workload.Zipf(1.4, paperDomain-coveredHi(), 7)
		pages := metrics.NewSeries("pages")
		for q := 0; q < o.Queries; q++ {
			var key int64
			if skewed {
				key = coveredHi() + zipf(rng) // skewed over the uncovered range
			} else {
				key = uniform(rng)
			}
			_, stats, err := tb.QueryRangeCtx(context.Background(), 0, intVal(key), intVal(key))
			if err != nil {
				t.Fatal(err)
			}
			pages.Add(float64(stats.PagesRead))
		}
		return pages.MeanRange(30, 60)
	}
	uniformLate := run(false)
	zipfLate := run(true)
	// Both steady states are index-scan level; neither is more than a few
	// pages from the other.
	if uniformLate > 10 || zipfLate > 10 {
		t.Errorf("late costs: uniform %.1f, zipf %.1f — buffer did not converge", uniformLate, zipfLate)
	}
	diff := uniformLate - zipfLate
	if diff < 0 {
		diff = -diff
	}
	if diff > 5 {
		t.Errorf("skew sensitivity: uniform %.1f vs zipf %.1f pages/query", uniformLate, zipfLate)
	}
}
