package bench

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/storage"
)

// The correlation experiment runs the paper's §II argument inside the
// real engine instead of the abstract simulation of Figure 3: tables are
// physically laid out with controlled physical/logical order
// correlation, a partial index covers the bottom 10% of the key range,
// and we measure (a) the share of pages a scan can skip using the
// partial index alone and (b) what the Index Buffer adds. The paper's
// point — partial indexes almost never enable page skipping on real
// (barely clustered) data, so the Index Buffer is what makes skipping
// real — falls out as a table.

// CorrelationOptions configures the experiment.
type CorrelationOptions struct {
	Rows         int       // table size; 0 = 20,000
	Coverage     float64   // partial index coverage fraction; 0 = 0.1
	Correlations []float64 // nil = {1.0, 0.9, 0.8, 0.5, 0.0}
	Seed         int64
}

func (o CorrelationOptions) withDefaults() CorrelationOptions {
	if o.Rows <= 0 {
		o.Rows = 20000
	}
	if o.Coverage <= 0 {
		o.Coverage = 0.1
	}
	if o.Correlations == nil {
		o.Correlations = []float64{1.0, 0.9, 0.8, 0.5, 0.0}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// CorrelationPoint is the measured outcome for one correlation level.
type CorrelationPoint struct {
	TargetCorrelation float64
	Measured          float64 // actual rank correlation of the layout
	TablePages        int
	NaturalSkipShare  float64 // pages skippable via the partial index alone
	FirstMissPages    int     // pages a first uncovered query reads
	BufferedPages     int     // pages the buffer had to complete
	BufferEntries     int     // entries that full skip coverage cost
	SteadyMissPages   float64 // mean pages per query after build-out
}

// CorrelationResult carries all points.
type CorrelationResult struct {
	Points []CorrelationPoint
}

// Frame renders the result with one row per correlation level.
func (r *CorrelationResult) Frame() *metrics.Frame {
	corr := metrics.NewSeries("correlation")
	natural := metrics.NewSeries("natural_skip_share")
	entries := metrics.NewSeries("buffer_entries_needed")
	steady := metrics.NewSeries("steady_pages_per_query")
	for _, p := range r.Points {
		corr.Add(p.Measured)
		natural.Add(p.NaturalSkipShare)
		entries.Add(float64(p.BufferEntries))
		steady.Add(p.SteadyMissPages)
	}
	return metrics.NewFrame("level", corr, natural, entries, steady)
}

// RunCorrelation measures the partial index's natural page-skipping power
// and the Index Buffer's completion cost across physical layouts.
func RunCorrelation(o CorrelationOptions) (*CorrelationResult, error) {
	o = o.withDefaults()
	r := &CorrelationResult{}
	for li, target := range o.Correlations {
		keys := sim.KeysWithCorrelation(o.Rows, target, o.Seed+int64(li))
		point, err := runCorrelationLevel(o, keys, target)
		if err != nil {
			return nil, fmt.Errorf("bench: correlation %.2f: %w", target, err)
		}
		r.Points = append(r.Points, point)
	}
	return r, nil
}

func runCorrelationLevel(o CorrelationOptions, keys []int, target float64) (CorrelationPoint, error) {
	point := CorrelationPoint{
		TargetCorrelation: target,
		Measured:          sim.RankCorrelation(keys),
	}
	eng := engine.New(engine.Config{Space: core.Config{
		IMax: o.Rows, // unlimited build-out in one scan
		P:    o.Rows,
	}})
	observeEngine(eng)
	schema := storage.MustSchema(
		storage.Column{Name: "k", Kind: storage.KindInt64},
		storage.Column{Name: "payload", Kind: storage.KindString},
	)
	tb, err := eng.CreateTable("t", schema)
	if err != nil {
		return point, err
	}
	pad := strings.Repeat("c", 400) // ~19 tuples/page, near the paper's 18
	for _, k := range keys {
		tu := storage.NewTuple(storage.Int64Value(int64(k)), storage.StringValue(pad))
		if _, err := tb.InsertCtx(context.Background(), tu); err != nil {
			return point, err
		}
	}
	coveredBelow := int64(o.Coverage * float64(o.Rows))
	if err := tb.CreatePartialIndex(0, index.IntRange(0, coveredBelow-1)); err != nil {
		return point, err
	}
	point.TablePages = tb.NumPages()

	// Natural skipping: pages whose counter starts at zero.
	buf := tb.Buffer(0)
	naturalSkips := 0
	for p := 0; p < point.TablePages; p++ {
		if buf.Counter(storage.PageID(p)) == 0 {
			naturalSkips++
		}
	}
	point.NaturalSkipShare = float64(naturalSkips) / float64(point.TablePages)

	// One uncovered miss fully builds the buffer (I^MAX = rows).
	rng := rand.New(rand.NewSource(o.Seed + 99))
	uncoveredKey := func() storage.Value {
		return storage.Int64Value(coveredBelow + rng.Int63n(int64(o.Rows)-coveredBelow))
	}
	key := uncoveredKey()
	_, s1, err := tb.QueryRangeCtx(context.Background(), 0, key, key)
	if err != nil {
		return point, err
	}
	point.FirstMissPages = s1.PagesRead
	point.BufferedPages = buf.BufferedPages()
	point.BufferEntries = buf.EntryCount()

	// Steady state over a few queries.
	total := 0
	const steadyQueries = 20
	for q := 0; q < steadyQueries; q++ {
		key := uncoveredKey()
		_, s, err := tb.QueryRangeCtx(context.Background(), 0, key, key)
		if err != nil {
			return point, err
		}
		total += s.PagesRead
	}
	point.SteadyMissPages = float64(total) / steadyQueries
	return point, nil
}
