package bench

import (
	"context"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// Fig9Result carries the series of the paper's Figure 9 (experiment 4):
// buffer-space allocation under a changing partial-index hit rate on
// column A.
type Fig9Result struct {
	Entries    [3]*metrics.Series
	SpaceUsed  *metrics.Series
	HitsA      *metrics.Series // rolling hit rate actually observed on A
	SpaceLimit int
}

// Frame renders the three entry curves.
func (r *Fig9Result) Frame() *metrics.Frame {
	return metrics.NewFrame("query", r.Entries[0], r.Entries[1], r.Entries[2], r.SpaceUsed)
}

// RunFig9 reproduces Figure 9. The query mix over (A, B, C) is fixed at
// (1/2, 1/3, 1/6) for the whole run; queries on B and C always target
// uncovered values; queries on A hit the partial index with probability
// 80% during the first half and 20% during the second (the paper
// implements this by switching the index definition; drawing covered vs
// uncovered keys with the same probabilities produces the identical hit
// sequence without the rebuild side effects). I^MAX = 10,000 (scaled),
// space limited as in experiment 3. Expected shape: while A's hit rate
// is high its buffer is starved despite A's large query share — hits
// never use the buffer, so its LRU-K intervals stretch; when the hit
// rate drops, A's buffer grows quickly and B/C shrink.
func RunFig9(o Options) (*Fig9Result, error) {
	o = o.withDefaults()
	if err := o.validate(); err != nil {
		return nil, err
	}
	spaceCfg := core.Config{
		IMax:       o.scale(paperIMax4),
		P:          o.scale(paperP),
		SpaceLimit: o.scale(paperL),
	}
	eng, tb, err := setup(o, spaceCfg, 3, false)
	if err != nil {
		return nil, err
	}

	r := &Fig9Result{
		SpaceUsed:  metrics.NewSeries("space_used"),
		HitsA:      metrics.NewSeries("hit_rate_a"),
		SpaceLimit: spaceCfg.SpaceLimit,
	}
	for c, name := range []string{"entries_a", "entries_b", "entries_c"} {
		r.Entries[c] = metrics.NewSeries(name)
	}

	mix := workload.MustMix(0.5, 1.0/3, 1.0/6)
	rng := o.queryRng()
	covered, uncovered := coveredDraw(), uncoveredDraw()
	var hitsA, queriesA int
	for q := 0; q < o.Queries; q++ {
		col := mix.Pick(rng)
		var key int64
		if col == 0 {
			p := 0.8
			if q >= o.Queries/2 {
				p = 0.2
			}
			key = workload.WithHitRate(p, covered, uncovered)(rng)
		} else {
			key = uncovered(rng)
		}
		_, stats, err := tb.QueryRangeCtx(context.Background(), col, intVal(key), intVal(key))
		if err != nil {
			return nil, err
		}
		if col == 0 {
			queriesA++
			if stats.PartialHit {
				hitsA++
			}
		}
		for c := 0; c < 3; c++ {
			r.Entries[c].Add(float64(tb.Buffer(c).EntryCount()))
		}
		r.SpaceUsed.Add(float64(eng.Space().Used()))
		if queriesA > 0 {
			r.HitsA.Add(float64(hitsA) / float64(queriesA))
		} else {
			r.HitsA.Add(0)
		}
	}
	return r, nil
}
