package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/buffer"
	"repro/internal/heap"
	"repro/internal/storage"
	"repro/internal/wal"
)

// The probes time single layers in isolation, on the workload's schema,
// row width and seeded rows: a heap table built from the public
// constructors, and the partial index and Index Buffer of the depth C
// engine after its replay.

// perOp calls fn(0), fn(1), ... in reps batches of n calls and returns
// the median batch's mean time per call, in nanoseconds.
func perOp(reps, n int, fn func(i int) error) (float64, error) {
	if err := fn(0); err != nil { // first touch: lazy set-up, cold caches
		return 0, err
	}
	per := make([]float64, reps)
	k := 1
	for r := range per {
		t0 := time.Now()
		for j := 0; j < n; j++ {
			if err := fn(k); err != nil {
				return 0, err
			}
			k++
		}
		per[r] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(per), nil
}

type probeResult struct {
	name  string
	value float64
	unit  string
}

func (w *workload) probes(d *data, e *engineInstance, seed int64, scratch string) ([]probeResult, error) {
	rng := rand.New(rand.NewSource(seed + 99))
	sch := schema(w.indexed)
	disk := buffer.NewSimDisk()
	pool, err := buffer.NewPool(disk, w.pool())
	if err != nil {
		return nil, err
	}
	ht := heap.NewTable(sch, pool)
	rids := make([]storage.RID, len(d.keys))
	raws := make([][]byte, len(d.keys))
	for i := range d.keys {
		tu := row(d.keys[i], d.payload[i])
		if rids[i], err = ht.Insert(tu); err != nil {
			return nil, err
		}
		if raws[i], err = storage.EncodeTuple(sch, tu, nil); err != nil {
			return nil, err
		}
	}
	if err := pool.FlushAll(); err != nil {
		return nil, err
	}
	rng.Shuffle(len(rids), func(i, j int) { rids[i], rids[j] = rids[j], rids[i] })
	pages := ht.NumPages()

	var out []probeResult
	add := func(name, unit string, scale float64, reps, n int, fn func(i int) error) error {
		ns, err := perOp(reps, n, fn)
		if err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
		out = append(out, probeResult{name, ns / scale, unit})
		return nil
	}
	const us = 1000.0
	err = add("heap.get_us", "us", us, 15, 2000, func(i int) error {
		_, err := ht.Get(rids[i%len(rids)])
		return err
	})
	if err != nil {
		return nil, err
	}
	// Pages in order, round and round: with a pool smaller than the table
	// every fetch misses, as in scan-churn's indexing scans.
	noop := func(storage.RID, storage.Tuple) error { return nil }
	err = add("heap.scan_page_us", "us", us, 15, max(pages, 50), func(i int) error {
		return ht.ScanPage(storage.PageID(i%pages), noop)
	})
	if err != nil {
		return nil, err
	}
	err = add("storage.decode_ns", "ns", 1, 15, 5000, func(i int) error {
		_, err := storage.DecodeTuple(sch, raws[i%len(raws)])
		return err
	})
	if err != nil {
		return nil, err
	}
	// An 8-frame pool cycling through every page never hits.
	small, err := buffer.NewPool(disk, 8)
	if err != nil {
		return nil, err
	}
	err = add("buffer.fetch_miss_us", "us", us, 15, 2000, func(i int) error {
		f, err := small.Fetch(storage.PageID(i % pages))
		if err != nil {
			return err
		}
		small.Unpin(f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if st := small.Stats(); st.Hits != 0 {
		return nil, fmt.Errorf("probe buffer.fetch_miss_us: %d of %d fetches hit", st.Hits, st.Hits+st.Misses)
	}

	keys := func(lo, hi int64) []storage.Value {
		ks := make([]storage.Value, 1024)
		for i := range ks {
			ks[i] = storage.Int64Value(lo + rng.Int63n(hi-lo+1))
		}
		return ks
	}
	buf, ix := e.t.Buffer(0), e.t.Index(0)
	if buf == nil || ix == nil {
		return nil, fmt.Errorf("probes: column a has no partial index or Index Buffer")
	}
	missKeys, hitKeys := keys(w.covered+1, w.domain), keys(1, w.covered)
	err = add("core.lookup_ns", "ns", 1, 15, 5000, func(i int) error {
		buf.Lookup(missKeys[i%len(missKeys)])
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = add("index.lookup_ns", "ns", 1, 15, 5000, func(i int) error {
		ix.Lookup(hitKeys[i%len(hitKeys)])
		return nil
	})
	if err != nil {
		return nil, err
	}

	walOut, err := walProbe(disk, rids, pages, scratch)
	if err != nil {
		return nil, err
	}
	return append(out, walOut...), nil
}

// walProbe times Append plus Commit of one insert-sized record — the
// logical fields and one full page image, as the engine logs an INSERT —
// under SyncBatch, and reads the writer's own fsync latency.
func walProbe(disk *buffer.SimDisk, rids []storage.RID, pages int, scratch string) ([]probeResult, error) {
	dir, err := os.MkdirTemp(scratch, "wal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	wr, err := wal.Create(dir, wal.Options{Policy: wal.SyncBatch})
	if err != nil {
		return nil, err
	}
	img := make([]byte, buffer.PageSize)
	commit, err := perOp(9, 20, func(i int) error {
		rid := rids[i%len(rids)]
		if err := disk.Read(rid.Page, img); err != nil {
			return err
		}
		lsn, err := wr.Append(&wal.Record{
			Kind: wal.KindInsert, Table: "t", Pages: pages, RID: rid,
			Images: []wal.PageImage{{Page: rid.Page, Data: img}},
		})
		if err != nil {
			return err
		}
		return wr.Commit(lsn)
	})
	tel := wr.Telemetry()
	if cerr := wr.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("probe wal.commit_us: %w", err)
	}
	return []probeResult{
		{"wal.commit_us", commit / 1000, "us"},
		{"wal.fsync_p50_us", tel.FsyncLatency.P50 * 1e6, "us"},
	}, nil
}
