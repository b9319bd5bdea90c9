package bench

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
)

// Fig7Config is one curve of the paper's Figure 7 sweep: a choice of
// I^MAX and space bound L (both at paper scale; runners rescale to the
// configured row count). L == 0 means unlimited.
type Fig7Config struct {
	IMax int
	L    int
}

// Label renders the configuration for legends.
func (c Fig7Config) Label() string {
	if c.L == 0 {
		return fmt.Sprintf("imax=%d,L=inf", c.IMax)
	}
	return fmt.Sprintf("imax=%d,L=%d", c.IMax, c.L)
}

// DefaultFig7Configs returns the sweep of the paper's experiment 2: the
// I^MAX dimension (aggressiveness) at unlimited space, and the L
// dimension (ceiling) at the paper's I^MAX.
func DefaultFig7Configs() []Fig7Config {
	return []Fig7Config{
		{IMax: 500, L: 0},
		{IMax: 1000, L: 0},
		{IMax: 5000, L: 0},
		{IMax: 5000, L: 100000},
		{IMax: 5000, L: 300000},
	}
}

// Fig7Curve is one configuration's per-query cost series.
type Fig7Curve struct {
	Config    Fig7Config
	PagesRead *metrics.Series
	Entries   *metrics.Series
}

// Fig7Result carries all sweep curves.
type Fig7Result struct {
	Curves     []Fig7Curve
	TablePages int
}

// Frame renders the cost curves.
func (r *Fig7Result) Frame() *metrics.Frame {
	series := make([]*metrics.Series, len(r.Curves))
	for i, c := range r.Curves {
		series[i] = c.PagesRead
	}
	return metrics.NewFrame("query", series...)
}

// RunFig7 reproduces Figure 7 (experiment 2): the influence of I^MAX and
// the Index Buffer Space bound L on a single buffer. Each configuration
// replays the identical query stream on a fresh engine. Expected shape:
// higher I^MAX drops the cost curve faster within the first ~15 queries;
// smaller L leaves a higher cost floor.
func RunFig7(o Options, configs []Fig7Config) (*Fig7Result, error) {
	o = o.withDefaults()
	if err := o.validate(); err != nil {
		return nil, err
	}
	if configs == nil {
		configs = DefaultFig7Configs()
	}
	r := &Fig7Result{}
	for _, cfg := range configs {
		spaceCfg := core.Config{
			IMax:       o.scale(cfg.IMax),
			P:          o.scale(paperP),
			SpaceLimit: o.scale(cfg.L),
		}
		if cfg.L == 0 {
			spaceCfg.SpaceLimit = 0 // unlimited stays unlimited
		}
		_, tb, err := setup(o, spaceCfg, 1, false)
		if err != nil {
			return nil, err
		}
		r.TablePages = tb.NumPages()
		curve := Fig7Curve{
			Config:    cfg,
			PagesRead: metrics.NewSeries(cfg.Label()),
			Entries:   metrics.NewSeries("entries:" + cfg.Label()),
		}
		rng := o.queryRng() // same stream for every configuration
		draw := uncoveredDraw()
		buf := tb.Buffer(0)
		for q := 0; q < o.Queries; q++ {
			key := intVal(draw(rng))
			_, stats, err := tb.QueryRangeCtx(context.Background(), 0, key, key)
			if err != nil {
				return nil, err
			}
			curve.PagesRead.Add(float64(stats.PagesRead))
			curve.Entries.Add(float64(buf.EntryCount()))
		}
		r.Curves = append(r.Curves, curve)
	}
	return r, nil
}
