// Group-commit durability benchmark: measures what the WAL's batched
// fsync protocol buys over fsync-per-commit under concurrent writers.
// Both arms run the same insert workload — W workers, each committing
// to its own table so commits genuinely overlap (same-table DML
// serializes on the table lock and could not batch) — with every log
// fsync charged a simulated device latency, the repo's SimDisk
// convention, so the ratio is stable on fast filesystems. RunDurability
// emits a baseline-comparable result (BENCH_durability.json in CI); the
// acceptance criterion is the group-commit arm at ≥ 2× the throughput
// of fsync-per-commit.
package bench

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/wal"
)

// durabilitySyncDelay is the simulated fsync latency. Real devices sit
// between ~50µs (NVMe) and ~10ms (spinning rust); 200µs keeps the run
// short while dwarfing tmpfs fsync noise.
const durabilitySyncDelay = 200 * time.Microsecond

// durabilityWorkers is the writer concurrency of both arms. Group
// commit's steady state alternates a 1-record fsync (the first signal
// fires immediately) with one covering everyone who arrived during it,
// so the batch factor approaches W/2 — 8 writers give the gate
// comfortable headroom over the 2x criterion.
const durabilityWorkers = 8

// DurabilityArmResult is one sync-policy arm's measurement.
type DurabilityArmResult struct {
	Arm           string  `json:"arm"`
	Policy        string  `json:"policy"`
	ElapsedMicros int64   `json:"elapsed_micros"`
	OpsPerSec     float64 `json:"ops_per_sec"`
	// Commits and Syncs are the log writer's counters for the workload;
	// BatchFactor = Commits/Syncs is how many commits the average fsync
	// amortized (1.0 for fsync-per-commit by construction).
	Commits     uint64  `json:"commits"`
	Syncs       uint64  `json:"syncs"`
	BatchFactor float64 `json:"batch_factor"`
}

// DurabilityResult is the benchmark's output, shaped for
// BENCH_durability.json. ElapsedMicros and OpsPerSec are wall-clock and
// vary run to run; BatchSpeedup and BatchFactor are the gated,
// comparison-stable quantities.
type DurabilityResult struct {
	Workers         int                   `json:"workers"`
	OpsPerWorker    int                   `json:"ops_per_worker"`
	SyncDelayMicros int64                 `json:"sync_delay_micros"`
	Arms            []DurabilityArmResult `json:"arms"`
	// BatchSpeedup is group-commit throughput over fsync-per-commit
	// throughput — the headline number.
	BatchSpeedup float64 `json:"batch_speedup"`
}

// withDurabilityDefaults sizes the benchmark: Queries is the per-worker
// commit count.
func (o Options) withDurabilityDefaults() Options {
	if o.Queries <= 0 {
		o.Queries = 60
	}
	if o.PoolPages <= 0 {
		o.PoolPages = 64
	}
	return o
}

// RunDurability measures both sync-policy arms and returns the speedup.
func RunDurability(o Options) (*DurabilityResult, error) {
	o = o.withDurabilityDefaults()
	r := &DurabilityResult{
		Workers:         durabilityWorkers,
		OpsPerWorker:    o.Queries,
		SyncDelayMicros: durabilitySyncDelay.Microseconds(),
	}
	always, err := runDurabilityArm(o, "fsync-per-commit", wal.SyncAlways)
	if err != nil {
		return nil, err
	}
	batch, err := runDurabilityArm(o, "group-commit", wal.SyncBatch)
	if err != nil {
		return nil, err
	}
	r.Arms = []DurabilityArmResult{always, batch}
	if batch.ElapsedMicros > 0 {
		r.BatchSpeedup = float64(always.ElapsedMicros) / float64(batch.ElapsedMicros)
	}
	return r, nil
}

// runDurabilityArm times the insert workload under one sync policy on a
// throwaway DataDir.
func runDurabilityArm(o Options, name string, policy wal.SyncPolicy) (DurabilityArmResult, error) {
	res := DurabilityArmResult{Arm: name, Policy: policy.String()}
	dir, err := os.MkdirTemp("", "aib-durability-*")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)

	eng := engine.New(engine.Config{
		DataDir:   dir,
		PoolPages: o.PoolPages,
		WAL: engine.WALConfig{
			SyncPolicy: policy,
			SyncDelay:  durabilitySyncDelay,
		},
	})
	defer eng.Close()

	schema := storage.MustSchema(
		storage.Column{Name: "k", Kind: storage.KindInt64},
		storage.Column{Name: "payload", Kind: storage.KindString},
	)
	tables := make([]*engine.Table, durabilityWorkers)
	for w := range tables {
		tb, err := eng.CreateTable(fmt.Sprintf("w%d", w), schema)
		if err != nil {
			return res, err
		}
		tables[w] = tb
	}

	before := eng.WALStats()
	payload := storage.StringValue(strings.Repeat("d", 64))
	errs := make([]error, durabilityWorkers)
	var wg sync.WaitGroup
	start := time.Now()
	for w, tb := range tables {
		wg.Add(1)
		go func(w int, tb *engine.Table) {
			defer wg.Done()
			for i := 0; i < o.Queries; i++ {
				tu := storage.NewTuple(storage.Int64Value(int64(w*o.Queries+i)), payload)
				if _, err := tb.InsertCtx(context.Background(), tu); err != nil {
					errs[w] = err
					return
				}
			}
		}(w, tb)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}

	after := eng.WALStats()
	res.ElapsedMicros = elapsed.Microseconds()
	res.Commits = after.Commits - before.Commits
	res.Syncs = after.Syncs - before.Syncs
	if res.Syncs > 0 {
		res.BatchFactor = float64(res.Commits) / float64(res.Syncs)
	}
	if elapsed > 0 {
		res.OpsPerSec = float64(durabilityWorkers*o.Queries) / elapsed.Seconds()
	}
	return res, nil
}

// arm finds one arm's result by name.
func (r *DurabilityResult) arm(name string) *DurabilityArmResult {
	for i := range r.Arms {
		if r.Arms[i].Arm == name {
			return &r.Arms[i]
		}
	}
	return nil
}

// Check enforces the acceptance criterion: group commit at least twice
// the throughput of fsync-per-commit under concurrent writers.
func (r *DurabilityResult) Check() error {
	if r.BatchSpeedup < 2 {
		return fmt.Errorf("bench: group-commit speedup %.2fx is below the 2x criterion", r.BatchSpeedup)
	}
	b := r.arm("group-commit")
	if b == nil {
		return fmt.Errorf("bench: no group-commit arm in result")
	}
	if b.BatchFactor < 1.5 {
		return fmt.Errorf("bench: group-commit batch factor %.2f shows fsyncs are not batching", b.BatchFactor)
	}
	return nil
}

// CompareBaseline diffs r against a committed baseline and returns one
// message per regression (empty means the gate passes). Wall-clock
// numbers are noisy across machines, so the gate compares the
// dimensionless ratios only: the speedup criterion must still hold, and
// neither the speedup nor the batch factor may fall below half the
// baseline's.
func (r *DurabilityResult) CompareBaseline(base *DurabilityResult) []string {
	var regressions []string
	if base == nil {
		return []string{"no baseline to compare against"}
	}
	if err := r.Check(); err != nil {
		regressions = append(regressions, err.Error())
	}
	if base.BatchSpeedup > 0 && r.BatchSpeedup < base.BatchSpeedup/2 {
		regressions = append(regressions,
			fmt.Sprintf("batch speedup regressed %.2fx → %.2fx (allowed ≥ half of baseline)", base.BatchSpeedup, r.BatchSpeedup))
	}
	if bb, cb := base.arm("group-commit"), r.arm("group-commit"); bb != nil && cb != nil &&
		bb.BatchFactor > 0 && cb.BatchFactor < bb.BatchFactor/2 {
		regressions = append(regressions,
			fmt.Sprintf("batch factor regressed %.2f → %.2f (allowed ≥ half of baseline)", bb.BatchFactor, cb.BatchFactor))
	}
	return regressions
}
