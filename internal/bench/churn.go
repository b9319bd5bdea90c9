package bench

import (
	"context"
	"math/rand"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/workload"
)

// The churn experiment exercises the paper's Table I in anger: a stream
// that interleaves uncovered queries with inserts, updates and deletes.
// Inserts land on fresh pages (raising their counters), updates move
// tuples across the covered/uncovered boundary and between pages, and
// deletes shrink postings — all while scans keep skipping. The
// measurement is the per-query cost staying near the index-scan level
// despite the churn, with the buffer's maintenance keeping every skip
// safe (correctness is asserted separately by the engine's randomized
// ground-truth tests).

// ChurnOptions configures the experiment.
type ChurnOptions struct {
	Rows       int     // initial table size; 0 = 20,000
	Operations int     // total operations; 0 = 400
	DMLShare   float64 // fraction of operations that are DML; 0 = 0.5
	Seed       int64
}

func (o ChurnOptions) withDefaults() ChurnOptions {
	if o.Rows <= 0 {
		o.Rows = 20000
	}
	if o.Operations <= 0 {
		o.Operations = 400
	}
	if o.DMLShare <= 0 {
		o.DMLShare = 0.5
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// ChurnResult carries the series.
type ChurnResult struct {
	QueryPages *metrics.Series // per-query pages read
	Skipped    *metrics.Series // per-query pages skipped
	Entries    *metrics.Series // buffer entries after each operation
	TablePages *metrics.Series // heap size over time (inserts grow it)
	Queries    int
	DML        int
}

// Frame renders the series.
func (r *ChurnResult) Frame() *metrics.Frame {
	return metrics.NewFrame("query", r.QueryPages, r.Skipped, r.Entries, r.TablePages)
}

// RunChurn runs the mixed query/DML stream.
func RunChurn(o ChurnOptions) (*ChurnResult, error) {
	o = o.withDefaults()
	spaceCfg := core.Config{
		IMax: (&Options{Rows: o.Rows}).scale(paperIMax),
		P:    (&Options{Rows: o.Rows}).scale(paperP),
	}
	_, tb, err := setup(Options{Rows: o.Rows, Seed: o.Seed}, spaceCfg, 1, false)
	if err != nil {
		return nil, err
	}
	buf := tb.Buffer(0)

	r := &ChurnResult{
		QueryPages: metrics.NewSeries("query_pages"),
		Skipped:    metrics.NewSeries("pages_skipped"),
		Entries:    metrics.NewSeries("buffer_entries"),
		TablePages: metrics.NewSeries("table_pages"),
	}

	var rids []storage.RID
	if err := tb.Scan(func(rid storage.RID, _ storage.Tuple) error {
		rids = append(rids, rid)
		return nil
	}); err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(o.Seed + 5))
	anyKey := workload.Uniform(1, paperDomain)
	uncovered := uncoveredDraw()
	payload := func() storage.Value {
		n := 1 + rng.Intn(512)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return storage.StringValue(string(b))
	}
	row := func() storage.Tuple {
		return storage.NewTuple(intVal(anyKey(rng)), intVal(anyKey(rng)), intVal(anyKey(rng)), payload())
	}

	for op := 0; op < o.Operations; op++ {
		if rng.Float64() < o.DMLShare && len(rids) > 0 {
			r.DML++
			switch rng.Intn(3) {
			case 0:
				rid, err := tb.InsertCtx(context.Background(), row())
				if err != nil {
					return nil, err
				}
				rids = append(rids, rid)
			case 1:
				i := rng.Intn(len(rids))
				if err := tb.DeleteCtx(context.Background(), rids[i]); err != nil {
					return nil, err
				}
				rids[i] = rids[len(rids)-1]
				rids = rids[:len(rids)-1]
			default:
				i := rng.Intn(len(rids))
				nr, err := tb.UpdateCtx(context.Background(), rids[i], row())
				if err != nil {
					return nil, err
				}
				rids[i] = nr
			}
		} else {
			r.Queries++
			key := intVal(uncovered(rng))
			_, stats, err := tb.QueryRangeCtx(context.Background(), 0, key, key)
			if err != nil {
				return nil, err
			}
			r.QueryPages.Add(float64(stats.PagesRead))
			r.Skipped.Add(float64(stats.PagesSkipped))
		}
		r.Entries.Add(float64(buf.EntryCount()))
		r.TablePages.Add(float64(tb.NumPages()))
	}
	return r, nil
}
