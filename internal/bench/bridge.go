package bench

import (
	"context"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// The bridge experiment is this reproduction's synthesis of the paper's
// overall argument (its Figures 1 and 6 combined): a workload shift hits
// a partially indexed column; the disk-based partial index eventually
// adapts (modelled as a monitored redefinition with a realistic control
// loop delay), and the Index Buffer covers the gap in between. Three
// systems run the identical query stream:
//
//	baseline   — partial index never adapts, no Index Buffer
//	adapt      — partial index redefines after the monitor trips
//	adapt+buf  — the same adaptation plus the Adaptive Index Buffer
//
// The paper's claim is that adapt+buf turns the long expensive window
// between the shift and the adaptation into a short one, at no loss
// afterwards.

// BridgeOptions configures the experiment.
type BridgeOptions struct {
	Rows    int // table size; 0 = 20,000
	Queries int // total queries; 0 = 150
	ShiftAt int // query index of the workload shift; 0 = Queries/5

	// MonitorWindow and MissThreshold model the tuning facility's
	// control loop: the index redefines once misses within the window
	// reach the threshold. Defaults 50 and 40.
	MonitorWindow int
	MissThreshold int

	Seed int64
}

func (o BridgeOptions) withDefaults() BridgeOptions {
	if o.Rows <= 0 {
		o.Rows = 20000
	}
	if o.Queries <= 0 {
		o.Queries = 150
	}
	if o.ShiftAt <= 0 {
		o.ShiftAt = o.Queries / 5
	}
	if o.MonitorWindow <= 0 {
		o.MonitorWindow = 50
	}
	if o.MissThreshold <= 0 {
		o.MissThreshold = 40
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// BridgeResult carries per-query logical cost for the three systems.
type BridgeResult struct {
	Baseline  *metrics.Series // no adaptation, no buffer
	Adapt     *metrics.Series // adaptation only
	AdaptBuf  *metrics.Series // adaptation + Index Buffer
	AdaptedAt int             // query index at which the redefinition ran (-1 if never)
}

// Frame renders the three cost curves.
func (r *BridgeResult) Frame() *metrics.Frame {
	return metrics.NewFrame("query", r.Baseline, r.Adapt, r.AdaptBuf)
}

// Cumulative returns total pages read by each system.
func (r *BridgeResult) Cumulative() (baseline, adapt, adaptBuf float64) {
	sum := func(s *metrics.Series) float64 {
		t := 0.0
		for _, v := range s.Y {
			t += v
		}
		return t
	}
	return sum(r.Baseline), sum(r.Adapt), sum(r.AdaptBuf)
}

// bridgeSystem is one engine under test.
type bridgeSystem struct {
	tb      *engine.Table
	adapts  bool
	adapted bool
	misses  []bool // ring of recent miss flags
	next    int
	series  *metrics.Series
}

// RunBridge runs the bridge experiment. Before the shift, queries draw
// from the covered range [1, 5000]; after it, from a narrow uncovered
// hot range. Adaptation redefines the partial index to cover the new hot
// range, charging the rebuild's full-scan cost to the query that
// triggered it — the paper's "adaptation adds to the total execution
// costs" (§I).
func RunBridge(o BridgeOptions) (*BridgeResult, error) {
	o = o.withDefaults()

	const hotLo, hotHi = 40000, 45000 // post-shift hot range (uncovered)
	build := func(disableBuffer bool, adapts bool, name string) (*bridgeSystem, error) {
		spaceCfg := core.Config{
			IMax: (&Options{Rows: o.Rows}).scale(paperIMax),
			P:    (&Options{Rows: o.Rows}).scale(paperP),
		}
		_, tb, err := setup(Options{Rows: o.Rows, Queries: o.Queries, Seed: o.Seed}, spaceCfg, 1, disableBuffer)
		if err != nil {
			return nil, err
		}
		return &bridgeSystem{
			tb:     tb,
			adapts: adapts,
			misses: make([]bool, o.MonitorWindow),
			series: metrics.NewSeries(name),
		}, nil
	}

	baseline, err := build(true, false, "baseline")
	if err != nil {
		return nil, err
	}
	adapt, err := build(true, true, "adapt_only")
	if err != nil {
		return nil, err
	}
	adaptBuf, err := build(false, true, "adapt_plus_buffer")
	if err != nil {
		return nil, err
	}
	systems := []*bridgeSystem{baseline, adapt, adaptBuf}

	r := &BridgeResult{
		Baseline: baseline.series,
		Adapt:    adapt.series,
		AdaptBuf: adaptBuf.series,
	}
	r.AdaptedAt = -1

	rng := (Options{Seed: o.Seed}).queryRng()
	covered, hot := coveredDraw(), workload.Uniform(hotLo, hotHi)
	for q := 0; q < o.Queries; q++ {
		var key int64
		if q < o.ShiftAt {
			key = covered(rng)
		} else {
			key = hot(rng)
		}
		for _, sys := range systems {
			_, stats, err := sys.tb.QueryRangeCtx(context.Background(), 0, intVal(key), intVal(key))
			if err != nil {
				return nil, err
			}
			cost := float64(stats.PagesRead)

			if sys.adapts && !sys.adapted {
				sys.misses[sys.next] = !stats.PartialHit
				sys.next = (sys.next + 1) % len(sys.misses)
				missCount := 0
				for _, m := range sys.misses {
					if m {
						missCount++
					}
				}
				if missCount >= o.MissThreshold {
					// The control loop trips: redefine the partial index
					// to cover both the old and the new hot range,
					// charging the rebuild scan.
					if err := sys.tb.RedefineIndex(0, index.UnionCoverage{
						index.IntRange(1, coveredHi()),
						index.IntRange(hotLo, hotHi),
					}); err != nil {
						return nil, err
					}
					cost += float64(sys.tb.NumPages())
					sys.adapted = true
					if sys == adapt {
						r.AdaptedAt = q
					}
				}
			}
			sys.series.Add(cost)
		}
	}
	return r, nil
}
