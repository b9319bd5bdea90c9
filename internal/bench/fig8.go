package bench

import (
	"context"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// Fig8Result carries the series of the paper's Figure 8 (experiment 3):
// three Index Buffers competing for a bounded Index Buffer Space under a
// shifting query mix.
type Fig8Result struct {
	Entries    [3]*metrics.Series // per-query entry counts of buffers A, B, C
	SpaceUsed  *metrics.Series
	SpaceLimit int
}

// Frame renders the three entry curves.
func (r *Fig8Result) Frame() *metrics.Frame {
	return metrics.NewFrame("query", r.Entries[0], r.Entries[1], r.Entries[2], r.SpaceUsed)
}

// RunFig8 reproduces Figure 8. The Index Buffer Space is limited to
// 800,000 entries (scaled), I^MAX = 5,000 and P = 10,000 pages (scaled).
// The first half of the workload queries columns (A, B, C) with weights
// (1/2, 1/3, 1/6); the second half flips to (1/6, 1/3, 1/2). All queries
// target uncovered values. Expected shape: A dominates the space in the
// first half; after the flip C rapidly grows to over half the space and
// A shrinks toward zero.
func RunFig8(o Options) (*Fig8Result, error) {
	o = o.withDefaults()
	if err := o.validate(); err != nil {
		return nil, err
	}
	spaceCfg := core.Config{
		IMax:       o.scale(paperIMax),
		P:          o.scale(paperP),
		SpaceLimit: o.scale(paperL),
	}
	eng, tb, err := setup(o, spaceCfg, 3, false)
	if err != nil {
		return nil, err
	}

	r := &Fig8Result{
		SpaceUsed:  metrics.NewSeries("space_used"),
		SpaceLimit: spaceCfg.SpaceLimit,
	}
	for c, name := range []string{"entries_a", "entries_b", "entries_c"} {
		r.Entries[c] = metrics.NewSeries(name)
	}

	firstMix := workload.MustMix(0.5, 1.0/3, 1.0/6)
	secondMix := workload.MustMix(1.0/6, 1.0/3, 0.5)
	rng := o.queryRng()
	draw := uncoveredDraw()
	for q := 0; q < o.Queries; q++ {
		mix := firstMix
		if q >= o.Queries/2 {
			mix = secondMix
		}
		col := mix.Pick(rng)
		key := intVal(draw(rng))
		if _, _, err := tb.QueryRangeCtx(context.Background(), col, key, key); err != nil {
			return nil, err
		}
		for c := 0; c < 3; c++ {
			r.Entries[c].Add(float64(tb.Buffer(c).EntryCount()))
		}
		r.SpaceUsed.Add(float64(eng.Space().Used()))
	}
	return r, nil
}
