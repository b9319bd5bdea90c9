package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/storage"
)

// The traced run replays one seeded statement script serially, by one
// client, at three depths, each on a fresh instance built from the same
// seed and options:
//
//	A  over the wire to an in-process aibserver
//	B  through repro.DB.Exec
//	C  through engine.Table calls on an engine.New instance
//
// Serial replay keeps the three instances in identical states, so the
// per-statement difference between two depths is the self time of the
// layers between them.

// replayParallelism is the scan parallelism of every replay instance;
// see workload.options.
const replayParallelism = 1

// scripted is one statement of the replay script.
type scripted struct {
	stmt
	recorded bool // timed and counted; false for warm-up
}

// script renders the statements a replay sends: the same warm-up as the
// end-to-end run, then w.replay statements alternating between the
// connections' streams, then (read-only mixes) side-table writes.
func (w *workload) script(d *data, seed int64) []scripted {
	var out []scripted
	for _, st := range w.warmupStmts(d) {
		out = append(out, scripted{stmt: st})
	}
	streams := w.streams(d, seed)
	for i := 0; i < w.warmup*conns; i++ {
		out = append(out, scripted{stmt: streams[i%conns].next()})
	}
	for i := 0; i < w.replay; i++ {
		out = append(out, scripted{stmt: streams[i%conns].next(), recorded: true})
	}
	if w.readOnly() {
		next := sideStream(seed)
		for i := 0; i < sideReplay; i++ {
			out = append(out, scripted{stmt: next(i % conns), recorded: true})
		}
	}
	return out
}

// sideReplay is the number of side-table writes in the replay script.
const sideReplay = 400

// span is one timed call the benchmark made into a layer.
type span struct {
	Depth  string `json:"depth"`
	Name   string `json:"name"`
	Stmt   int    `json:"stmt"`
	Parent int    `json:"parent"` // index of the parent span in the dump; -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spans keeps spans in memory until the run writes them out; a nil
// *spans records nothing.
type spans struct {
	base time.Time
	list []span
}

func (s *spans) begin(depth, name string, stmt, parent int) int {
	if s == nil {
		return -1
	}
	s.list = append(s.list, span{Depth: depth, Name: name, Stmt: stmt, Parent: parent, Start: int64(time.Since(s.base))})
	return len(s.list) - 1
}

func (s *spans) end(i int) {
	if s != nil {
		s.list[i].End = int64(time.Since(s.base))
	}
}

func (s *spans) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, sp := range s.list {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timing is a replay's per-statement wall time at one depth, indexed
// like the script; unrecorded statements stay zero.
type timing []time.Duration

// layerCounts aggregates the depth C accessors over the recorded
// SELECTs on table t.
type layerCounts struct {
	selects       int
	pagesRead     int
	pagesSkipped  int
	indexingScans int
	matches       int
	bufferMatches int
	entriesAdded  int
	entriesDrop   uint64
	pool          buffer.PoolStats // deltas
}

// replayWire runs the script at depth A and returns the mean reply size
// of recorded statements alongside the timings.
func (w *workload) replayWire(d *data, sc []scripted, scratch string, rec *spans) (timing, float64, int, error) {
	in, _, err := w.setup(d, scratch, replayParallelism)
	if err != nil {
		return nil, 0, 0, err
	}
	defer in.close()
	c, err := dial(in.addr)
	if err != nil {
		return nil, 0, 0, err
	}
	defer c.close()
	tm := make(timing, len(sc))
	replyBytes, n, failed := 0, 0, 0
	side := false
	for i, st := range sc {
		if st.table == "w" && !side {
			side = true
			for _, s := range sideDDL {
				if err := c.mustOK(s); err != nil {
					return nil, 0, 0, err
				}
			}
		}
		sp := rec.begin("A", "wire", i, -1)
		t0 := time.Now()
		r, err := c.do(st.text)
		el := time.Since(t0)
		rec.end(sp)
		if err != nil {
			return nil, 0, 0, err
		}
		if !r.OK || r.Rows != st.want {
			failed++
		}
		if st.recorded {
			tm[i] = el
			replyBytes += r.bytes
			n++
		}
	}
	return tm, float64(replyBytes) / float64(max(n, 1)), failed, nil
}

// replayExec runs the script at depth B.
func (w *workload) replayExec(d *data, sc []scripted, scratch string, rec *spans) (timing, int, error) {
	dir, err := w.dataDir(scratch)
	if err != nil {
		return nil, 0, err
	}
	db, err := repro.Open(w.options(dir, replayParallelism))
	if err != nil {
		return nil, 0, err
	}
	defer db.Close()
	ctx := context.Background()
	setup := append([]string{w.createTable()}, w.loadStatements(d)...)
	for _, s := range append(setup, w.createIndexes()...) {
		if _, err := db.Exec(ctx, s); err != nil {
			return nil, 0, err
		}
	}
	tm := make(timing, len(sc))
	failed := 0
	side := false
	for i, st := range sc {
		if st.table == "w" && !side {
			side = true
			for _, s := range sideDDL {
				if _, err := db.Exec(ctx, s); err != nil {
					return nil, 0, err
				}
			}
		}
		sp := rec.begin("B", "exec", i, -1)
		t0 := time.Now()
		r, err := db.Exec(ctx, st.text)
		el := time.Since(t0)
		rec.end(sp)
		if err != nil || r.Rows != st.want {
			failed++
		}
		if st.recorded {
			tm[i] = el
		}
	}
	return tm, failed, nil
}

// dataDir makes a fresh DataDir under scratch for a durable workload,
// and returns "" (in memory) for the others.
func (w *workload) dataDir(scratch string) (string, error) {
	if !w.durable {
		return "", nil
	}
	return os.MkdirTemp(scratch, "db-")
}

func schema(cols int) *storage.Schema {
	var cs []storage.Column
	for c := 0; c < cols; c++ {
		cs = append(cs, storage.Column{Name: columnNames[c], Kind: storage.KindInt64})
	}
	return storage.MustSchema(append(cs, storage.Column{Name: "payload", Kind: storage.KindString})...)
}

func row(keys []int64, pay string) storage.Tuple {
	vals := make([]storage.Value, 0, len(keys)+1)
	for _, k := range keys {
		vals = append(vals, storage.Int64Value(k))
	}
	return storage.NewTuple(append(vals, storage.StringValue(pay))...)
}

// engineInstance is the depth C database, kept open after the replay so
// the probes can reach its partial indexes and Index Buffers.
type engineInstance struct {
	eng *engine.Engine
	t   *engine.Table
}

// openEngine builds the depth C instance with the options the other
// depths get through repro.Options, and loads the same rows.
func (w *workload) openEngine(d *data, scratch string) (*engineInstance, error) {
	dir, err := w.dataDir(scratch)
	if err != nil {
		return nil, err
	}
	cfg := engine.Config{
		PoolPages:       w.poolPages,
		ScanParallelism: replayParallelism,
		Space:           core.Config{SpaceLimit: w.spaceLimit},
	}
	if w.durable {
		cfg.DataDir = dir // the zero WALConfig is the WAL on, SyncBatch
	}
	e := &engineInstance{eng: engine.New(cfg)}
	ctx := context.Background()
	t, err := e.eng.CreateTable("t", schema(w.indexed))
	if err == nil {
		for i := 0; i < len(d.keys) && err == nil; i++ {
			_, err = t.InsertCtx(ctx, row(d.keys[i], d.payload[i]))
		}
	}
	for c := 0; c < w.indexed && err == nil; c++ {
		err = t.CreatePartialIndex(c, index.IntRange(1, w.covered))
	}
	if err != nil {
		e.eng.Close()
		return nil, err
	}
	e.t = t
	return e, nil
}

// replayEngine runs the script at depth C on a fresh engine, reading the
// public stats accessors around every call. The caller closes the
// returned instance.
func (w *workload) replayEngine(d *data, sc []scripted, scratch string, rec *spans) (timing, *layerCounts, *engineInstance, int, error) {
	e, err := w.openEngine(d, scratch)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	ctx := context.Background()
	tm := make(timing, len(sc))
	lc := &layerCounts{}
	failed := 0
	var side *engine.Table
	for i, st := range sc {
		t := e.t
		if st.table == "w" {
			if side == nil {
				side, err = e.eng.CreateTable("w", schema(1))
				if err == nil {
					err = side.CreatePartialIndex(0, index.IntRange(1, sideDomain))
				}
				if err != nil {
					e.eng.Close()
					return nil, nil, nil, 0, err
				}
			}
			t = side
		}
		space0, pool0 := e.eng.Space().Stats(), t.PoolStats()
		root := rec.begin("C", "stmt", i, -1)
		t0 := time.Now()
		var qs exec.QueryStats
		rows, err := 0, error(nil)
		switch {
		case st.class != write:
			sp := rec.begin("C", "engine.QueryEqualCtx", i, root)
			var m []exec.Match
			m, qs, err = t.QueryEqualCtx(ctx, st.col, storage.Int64Value(st.key))
			rec.end(sp)
			rows = len(m)
		case st.insert:
			sp := rec.begin("C", "engine.InsertCtx", i, root)
			_, err = t.InsertCtx(ctx, row([]int64{st.key}, st.pay))
			rec.end(sp)
			rows = 1
		default:
			rows, err = updateKey(ctx, t, st, rec, i, root)
		}
		el := time.Since(t0)
		rec.end(root)
		if err != nil || rows != st.want {
			failed++
		}
		if !st.recorded {
			continue
		}
		tm[i] = el
		if st.class == write {
			continue
		}
		space1, pool1 := e.eng.Space().Stats(), t.PoolStats()
		lc.selects++
		lc.pagesRead += qs.PagesRead
		lc.pagesSkipped += qs.PagesSkipped
		if qs.PagesSelected > 0 {
			lc.indexingScans++
		}
		lc.matches += qs.Matches
		lc.bufferMatches += qs.BufferMatches
		lc.entriesAdded += qs.EntriesAdded
		lc.entriesDrop += space1.EntriesDropped - space0.EntriesDropped
		lc.pool.Hits += pool1.Hits - pool0.Hits
		lc.pool.Misses += pool1.Misses - pool0.Misses
		lc.pool.Evictions += pool1.Evictions - pool0.Evictions
	}
	return tm, lc, e, failed, nil
}

// updateKey is the shell's UPDATE ... SET a = new WHERE a = key as
// engine calls: find the rows, then update each.
func updateKey(ctx context.Context, t *engine.Table, st scripted, rec *spans, i, root int) (int, error) {
	sp := rec.begin("C", "engine.QueryEqualCtx", i, root)
	m, _, err := t.QueryEqualCtx(ctx, 0, storage.Int64Value(st.key))
	rec.end(sp)
	if err != nil {
		return 0, err
	}
	for _, r := range m {
		sp := rec.begin("C", "engine.UpdateCtx", i, root)
		_, err := t.UpdateCtx(ctx, r.RID, r.Tuple.WithValue(0, storage.Int64Value(st.newKey)))
		rec.end(sp)
		if err != nil {
			return 0, err
		}
	}
	return len(m), nil
}

// spanPath names the span dump of one traced run.
func spanPath(scratch, workload string, seed int64) string {
	return filepath.Join(scratch, fmt.Sprintf("spans-%s-%d.jsonl", workload, seed))
}
