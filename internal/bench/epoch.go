// Contended-read benchmark for the epoch-based lock-free read path:
// measures what taking index hits off the table RWMutex buys when a
// writer is committing through a synchronous WAL at the same time. Both
// arms run the identical workload — NumCPU-bounded readers hammering
// covered point queries while one writer inserts through an fsync
// charged a simulated device latency — differing only in the
// DisableEpochReadPath switch. Under the RWMutex the writer holds the
// table lock across its fsync, so every read convoys behind every
// commit; on the epoch path a hit never touches the lock. RunEpoch
// emits a baseline-comparable result (BENCH_epoch.json in CI); the
// acceptance criterion is the epoch arm at ≥ 2× the read throughput of
// the RWMutex arm.
package bench

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/storage"
	"repro/internal/wal"
)

// epochSyncDelay is the simulated fsync latency the active writer pays
// per commit — the window the RWMutex arm's readers wait out and the
// epoch arm's readers never see.
const epochSyncDelay = 1 * time.Millisecond

// Workload shape: a small table whose covered keys are fully indexed
// and buffered after warm-up, so steady-state reads are pure index
// hits — the case the lock-free path serves.
const (
	epochRows      = 600
	epochKeyDomain = 50
	epochCovered   = 20
)

// EpochArmResult is one read-path arm's measurement.
type EpochArmResult struct {
	Arm           string  `json:"arm"`
	ElapsedMicros int64   `json:"elapsed_micros"`
	Reads         int64   `json:"reads"`
	ReadsPerSec   float64 `json:"reads_per_sec"`
	// Writes is how many commits the concurrent writer landed during the
	// read phase — evidence the reads were actually contended.
	Writes int64 `json:"writes"`
	// FastHits and Fallbacks are the engine's lock-free path counters
	// for the read phase (zero by construction on the rwmutex arm).
	FastHits  uint64 `json:"fast_hits"`
	Fallbacks uint64 `json:"fallbacks"`
}

// EpochResult is the benchmark's output, shaped for BENCH_epoch.json.
// Wall-clock numbers vary run to run; ReadSpeedup is the gated,
// comparison-stable quantity.
type EpochResult struct {
	Readers         int              `json:"readers"`
	ReadsPerReader  int              `json:"reads_per_reader"`
	SyncDelayMicros int64            `json:"sync_delay_micros"`
	Arms            []EpochArmResult `json:"arms"`
	// ReadSpeedup is epoch-arm read throughput over rwmutex-arm read
	// throughput with the writer active — the headline number.
	ReadSpeedup float64 `json:"read_speedup"`
}

// withEpochDefaults sizes the benchmark: Queries is the per-reader read
// count.
func (o Options) withEpochDefaults() Options {
	if o.Queries <= 0 {
		o.Queries = 300
	}
	if o.PoolPages <= 0 {
		o.PoolPages = 64
	}
	return o
}

// epochReaders bounds reader concurrency: enough parallelism to form a
// convoy, capped so small CI runners aren't pure scheduler noise.
func epochReaders() int {
	n := runtime.NumCPU()
	if n < 2 {
		n = 2
	}
	if n > 8 {
		n = 8
	}
	return n
}

// RunEpoch measures both read-path arms under an active writer and
// returns the speedup.
func RunEpoch(o Options) (*EpochResult, error) {
	o = o.withEpochDefaults()
	r := &EpochResult{
		Readers:         epochReaders(),
		ReadsPerReader:  o.Queries,
		SyncDelayMicros: epochSyncDelay.Microseconds(),
	}
	locked, err := runEpochArm(o, "rwmutex", true)
	if err != nil {
		return nil, err
	}
	epoch, err := runEpochArm(o, "epoch", false)
	if err != nil {
		return nil, err
	}
	r.Arms = []EpochArmResult{locked, epoch}
	if locked.ReadsPerSec > 0 {
		r.ReadSpeedup = epoch.ReadsPerSec / locked.ReadsPerSec
	}
	return r, nil
}

// runEpochArm times the contended read workload with the lock-free
// path on or off. The table is loaded and warmed through a no-fsync
// WAL, then reopened with the slow synchronous policy so only the
// measured phase pays the simulated device.
func runEpochArm(o Options, name string, disable bool) (EpochArmResult, error) {
	res := EpochArmResult{Arm: name}
	dir, err := os.MkdirTemp("", "aib-epoch-*")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)

	cfg := engine.Config{
		DataDir:              dir,
		PoolPages:            o.PoolPages,
		DisableEpochReadPath: disable,
		WAL:                  engine.WALConfig{SyncPolicy: wal.SyncNever},
	}
	loader := engine.New(cfg)
	schema := storage.MustSchema(
		storage.Column{Name: "k", Kind: storage.KindInt64},
		storage.Column{Name: "payload", Kind: storage.KindString},
	)
	tb, err := loader.CreateTable("data", schema)
	if err != nil {
		loader.Close()
		return res, err
	}
	payload := storage.StringValue(strings.Repeat("e", 160))
	for i := 0; i < epochRows; i++ {
		tu := storage.NewTuple(storage.Int64Value(int64(i%epochKeyDomain)), payload)
		if _, err := tb.InsertCtx(context.Background(), tu); err != nil {
			loader.Close()
			return res, err
		}
	}
	if err := tb.CreatePartialIndex(0, index.IntRange(0, epochCovered-1)); err != nil {
		loader.Close()
		return res, err
	}
	if err := loader.Close(); err != nil {
		return res, err
	}

	cfg.WAL = engine.WALConfig{SyncPolicy: wal.SyncAlways, SyncDelay: epochSyncDelay}
	eng, err := engine.Load(cfg)
	if err != nil {
		return res, err
	}
	defer eng.Close()
	tb = eng.Table("data")
	if tb == nil {
		return res, fmt.Errorf("bench: table not recovered for %s arm", name)
	}
	// Warm: after this every covered key is an index hit.
	for k := 0; k < epochCovered; k++ {
		key := storage.Int64Value(int64(k))
		if _, _, err := tb.QueryRangeCtx(context.Background(), 0, key, key); err != nil {
			return res, err
		}
	}

	readers := epochReaders()
	statsBefore := eng.EpochStats()
	var (
		stop     atomic.Bool
		writes   atomic.Int64
		writeErr atomic.Value
		wg       sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := epochRows; !stop.Load(); n++ {
			tu := storage.NewTuple(storage.Int64Value(int64(epochCovered+n%(epochKeyDomain-epochCovered))), payload)
			if _, err := tb.InsertCtx(context.Background(), tu); err != nil {
				writeErr.Store(err)
				return
			}
			writes.Add(1)
		}
	}()

	errs := make([]error, readers)
	start := time.Now()
	var rg sync.WaitGroup
	for w := 0; w < readers; w++ {
		rg.Add(1)
		go func(w int) {
			defer rg.Done()
			for i := 0; i < o.Queries; i++ {
				key := storage.Int64Value(int64((w + i) % epochCovered))
				if _, _, err := tb.QueryRangeCtx(context.Background(), 0, key, key); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	rg.Wait()
	elapsed := time.Since(start)
	stop.Store(true)
	wg.Wait()
	if err := writeErr.Load(); err != nil {
		return res, err.(error)
	}
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}

	statsAfter := eng.EpochStats()
	res.ElapsedMicros = elapsed.Microseconds()
	res.Reads = int64(readers) * int64(o.Queries)
	res.Writes = writes.Load()
	res.FastHits = statsAfter.FastHits - statsBefore.FastHits
	res.Fallbacks = statsAfter.Fallbacks - statsBefore.Fallbacks
	if elapsed > 0 {
		res.ReadsPerSec = float64(res.Reads) / elapsed.Seconds()
	}
	return res, nil
}

// arm finds one arm's result by name.
func (r *EpochResult) arm(name string) *EpochArmResult {
	for i := range r.Arms {
		if r.Arms[i].Arm == name {
			return &r.Arms[i]
		}
	}
	return nil
}

// Check enforces the acceptance criterion: the epoch read path at least
// doubles contended read throughput, and actually serves the reads
// lock-free rather than winning on noise.
func (r *EpochResult) Check() error {
	if r.ReadSpeedup < 2 {
		return fmt.Errorf("bench: epoch read speedup %.2fx is below the 2x criterion", r.ReadSpeedup)
	}
	e := r.arm("epoch")
	if e == nil {
		return fmt.Errorf("bench: no epoch arm in result")
	}
	if e.Reads > 0 && e.FastHits < uint64(e.Reads)*9/10 {
		return fmt.Errorf("bench: only %d of %d epoch-arm reads were lock-free fast hits", e.FastHits, e.Reads)
	}
	if l := r.arm("rwmutex"); l != nil && l.FastHits != 0 {
		return fmt.Errorf("bench: rwmutex arm recorded %d fast hits; the baseline arm is not a baseline", l.FastHits)
	}
	return nil
}

// CompareBaseline diffs r against a committed baseline and returns one
// message per regression (empty means the gate passes). Wall-clock
// numbers are noisy across machines, so the gate compares the
// dimensionless speedup only: the criterion must still hold, and the
// speedup may not fall below half the baseline's.
func (r *EpochResult) CompareBaseline(base *EpochResult) []string {
	var regressions []string
	if base == nil {
		return []string{"no baseline to compare against"}
	}
	if err := r.Check(); err != nil {
		regressions = append(regressions, err.Error())
	}
	if base.ReadSpeedup > 0 && r.ReadSpeedup < base.ReadSpeedup/2 {
		regressions = append(regressions,
			fmt.Sprintf("read speedup regressed %.2fx → %.2fx (allowed ≥ half of baseline)", base.ReadSpeedup, r.ReadSpeedup))
	}
	return regressions
}
