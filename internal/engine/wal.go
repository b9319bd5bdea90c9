package engine

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/buffer"
	"repro/internal/catalog"
	"repro/internal/flight"
	"repro/internal/storage"
	"repro/internal/wal"
)

// WALConfig configures the engine's write-ahead log. It only takes
// effect on DataDir-backed engines; in-memory engines have nothing
// durable to log.
type WALConfig struct {
	// Disable turns the WAL off, reverting to PR-era snapshot-only
	// persistence: Save/Close write a point-in-time image and anything
	// after the last Save is lost on a crash.
	Disable bool

	// SyncPolicy selects the Commit durability protocol (group commit by
	// default); see wal.SyncPolicy.
	SyncPolicy wal.SyncPolicy

	// SegmentBytes overrides the log segment rotation threshold.
	SegmentBytes int

	// SyncDelay charges every log fsync with an extra sleep, the same
	// simulated-device convention as Config.ReadLatency, so group-commit
	// experiments keep a real device's shape on fast filesystems.
	SyncDelay time.Duration

	// CheckpointEvery, when positive, runs a background checkpoint loop
	// at this period. Zero means checkpoints happen only on DDL, Save,
	// Close, and explicit Checkpoint calls.
	CheckpointEvery time.Duration

	// DisableQueryLog stops logging query descriptors. Queries are never
	// needed for redo correctness — they only feed post-recovery buffer
	// re-warming — so this trades restart warmth for log volume.
	DisableQueryLog bool
}

// walSubdir is the log's directory under DataDir.
const walSubdir = "wal"

func walDir(dataDir string) string { return filepath.Join(dataDir, walSubdir) }

func walOptions(cfg Config) wal.Options {
	return wal.Options{
		Policy:       cfg.WAL.SyncPolicy,
		SegmentBytes: cfg.WAL.SegmentBytes,
		SyncDelay:    cfg.WAL.SyncDelay,
	}
}

// RecoveryStats describes what Load's recovery pass did.
type RecoveryStats struct {
	// CheckpointLSN is the catalog's checkpoint position redo started
	// from.
	CheckpointLSN uint64 `json:"checkpoint_lsn"`
	// RedoRecords and RedoPages count replayed DML records and the page
	// images they wrote.
	RedoRecords int `json:"redo_records"`
	RedoPages   int `json:"redo_pages"`
	// TruncatedPages counts heap pages dropped because the page file ran
	// past the catalog's extent — an append that never reached a durable
	// checkpoint or log record.
	TruncatedPages int `json:"truncated_pages"`
	// VacuumRepairs counts tables whose extent was taken from a
	// vacuum-commit marker: a vacuum swapped its rewritten page file in
	// but crashed before republishing the catalog.
	VacuumRepairs int `json:"vacuum_repairs"`
	// TornPageBytes counts partial-page bytes trimmed from page files;
	// TornWALBytes counts bytes of a mid-write log record truncated from
	// the final segment.
	TornPageBytes int64 `json:"torn_page_bytes"`
	TornWALBytes  int64 `json:"torn_wal_bytes"`
	// QueryTail is the number of logged query descriptors recovered for
	// Rewarm.
	QueryTail int `json:"query_tail"`
}

// RecoveryStats returns what the Load that produced this engine did
// during redo. Zero for engines created with New.
func (e *Engine) RecoveryStats() RecoveryStats { return e.recovery }

// WALStats returns log-writer counters, or zeros when the WAL is off.
func (e *Engine) WALStats() wal.Stats {
	if e.wal == nil {
		return wal.Stats{}
	}
	return e.wal.Stats()
}

// WALTelemetry returns the log writer's full observability snapshot;
// ok is false when the WAL is off (in-memory or disabled engines).
func (e *Engine) WALTelemetry() (wal.Telemetry, bool) {
	if e.wal == nil {
		return wal.Telemetry{}, false
	}
	return e.wal.Telemetry(), true
}

// CheckpointStats is the checkpoint-telemetry snapshot.
type CheckpointStats struct {
	// Completed counts finished checkpoints over the engine's lifetime.
	Completed uint64 `json:"completed"`
	// LastDuration is the wall time of the most recent checkpoint (0
	// before the first completes).
	LastDuration time.Duration `json:"last_duration_ns"`
	// Age is the time since the last checkpoint completed — or since the
	// engine started, when none has.
	Age time.Duration `json:"age_ns"`
}

// CheckpointStats returns the engine's checkpoint telemetry (zero Age
// basis is engine start for engines that never checkpointed).
func (e *Engine) CheckpointStats() CheckpointStats {
	s := CheckpointStats{
		Completed:    e.ckptCount.Load(),
		LastDuration: time.Duration(e.ckptLastNanos.Load()),
	}
	if end := e.ckptLastEnd.Load(); end > 0 {
		s.Age = time.Since(time.Unix(0, end))
	} else {
		s.Age = time.Since(e.started)
	}
	return s
}

// checkpointStallFactor: with a periodic checkpointer configured, an
// age beyond this many periods while log work is pending means the
// loop is stuck (wedged fsync, starved goroutine) — the health surface
// flips unhealthy rather than letting the segment backlog grow quietly.
const checkpointStallFactor = 4

// DurabilityHealth is the WAL/checkpoint health summary `/healthz`
// serves — and the condition under which it returns 503.
type DurabilityHealth struct {
	// WALEnabled is false for in-memory or WAL-disabled engines; all
	// other fields are zero then and the engine counts as healthy (there
	// is no durability to be unhealthy about).
	WALEnabled bool   `json:"wal_enabled"`
	SyncPolicy string `json:"sync_policy,omitempty"`
	// SyncError is the writer's sticky fsync error ("" while healthy).
	SyncError string `json:"sync_error,omitempty"`
	// WALInitError reports a WAL that failed to initialize (the engine
	// is refusing DML).
	WALInitError string `json:"wal_init_error,omitempty"`

	AppendedLSN   uint64 `json:"appended_lsn"`
	DurableLSN    uint64 `json:"durable_lsn"`
	CheckpointLSN uint64 `json:"checkpoint_lsn"`
	// SegmentBacklog is the live segment-file count; it grows while
	// checkpoints stall.
	SegmentBacklog int `json:"segment_backlog"`

	Checkpoints          uint64  `json:"checkpoints"`
	LastCheckpointMillis float64 `json:"last_checkpoint_ms"`
	CheckpointAgeSeconds float64 `json:"checkpoint_age_seconds"`
	// CheckpointStalled is set when a periodic checkpointer is
	// configured, log work is pending, and the age exceeds
	// checkpointStallFactor periods.
	CheckpointStalled bool `json:"checkpoint_stalled,omitempty"`

	// Healthy is false on a sticky sync error, a failed WAL init, or a
	// stalled checkpointer; Reason names the first failing condition.
	Healthy bool   `json:"healthy"`
	Reason  string `json:"reason,omitempty"`
}

// DurabilityHealth evaluates the engine's durability health.
func (e *Engine) DurabilityHealth() DurabilityHealth {
	h := DurabilityHealth{Healthy: true}
	if e.walErr != nil {
		h.WALInitError = e.walErr.Error()
		h.Healthy = false
		h.Reason = "wal failed to initialize"
		return h
	}
	if e.wal == nil {
		return h
	}
	h.WALEnabled = true
	h.SyncPolicy = e.cfg.WAL.SyncPolicy.String()
	h.AppendedLSN = uint64(e.wal.AppendedLSN())
	h.DurableLSN = uint64(e.wal.DurableLSN())
	h.CheckpointLSN = e.lastCkpt.Load()
	t := e.wal.Telemetry()
	h.SegmentBacklog = t.ActiveSegments
	ck := e.CheckpointStats()
	h.Checkpoints = ck.Completed
	h.LastCheckpointMillis = float64(ck.LastDuration) / float64(time.Millisecond)
	h.CheckpointAgeSeconds = ck.Age.Seconds()
	if err := e.wal.SyncError(); err != nil {
		h.SyncError = err.Error()
		h.Healthy = false
		h.Reason = "wal sync error: " + err.Error()
		return h
	}
	if every := e.cfg.WAL.CheckpointEvery; every > 0 &&
		h.AppendedLSN > h.CheckpointLSN &&
		ck.Age > checkpointStallFactor*every {
		h.CheckpointStalled = true
		h.Healthy = false
		h.Reason = fmt.Sprintf("checkpointer stalled: %.1fs since last checkpoint (period %s)",
			ck.Age.Seconds(), every)
	}
	return h
}

// walError surfaces a WAL that failed to initialize: the engine stays
// queryable but refuses DML rather than silently running non-durable.
func (e *Engine) walError() error {
	if e.walErr != nil {
		return fmt.Errorf("engine: wal unavailable: %w", e.walErr)
	}
	return nil
}

// capturePage copies the current image of one heap page. Called with
// the table lock exclusive; the page is resident (just dirtied by the
// operation being logged, or pinned by the caller), so this is a pool
// hit, not device I/O.
func (t *Table) capturePage(p storage.PageID) (wal.PageImage, error) {
	f, err := t.pool.Fetch(p)
	if err != nil {
		return wal.PageImage{}, err
	}
	img := make([]byte, buffer.PageSize)
	copy(img, f.Data())
	t.pool.Unpin(f)
	return wal.PageImage{Page: p, Data: img}, nil
}

// logDML appends one DML record — logical fields plus full images of
// the dirtied pages — and blocks until it is durable per the sync
// policy. Called with the table lock exclusive, after the heap
// operation and index maintenance succeeded. Pages may repeat (an
// in-place update names the same page twice); duplicates are captured
// once.
func (t *Table) logDML(fa *flight.Active, kind wal.Kind, rid, oldRID storage.RID, pages ...storage.PageID) error {
	w := t.engine.wal
	if w == nil {
		return nil
	}
	var start time.Time
	if fa != nil {
		start = time.Now()
	}
	rec := &wal.Record{
		Kind:   kind,
		Table:  t.name,
		Pages:  t.heap.NumPages(),
		RID:    rid,
		OldRID: oldRID,
	}
	for _, p := range pages {
		dup := false
		for _, im := range rec.Images {
			if im.Page == p {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		im, err := t.capturePage(p)
		if err != nil {
			return fmt.Errorf("engine: wal image of %s page %d: %w", t.name, p, err)
		}
		rec.Images = append(rec.Images, im)
	}
	lsn, err := w.Append(rec)
	if err != nil {
		return fmt.Errorf("engine: wal append: %w", err)
	}
	if err := w.Commit(lsn); err != nil {
		return fmt.Errorf("engine: wal commit: %w", err)
	}
	if fa != nil {
		// Append+Commit wall time is the statement's durability cost; the
		// batch is the group the covering fsync made durable with it.
		fa.WAL(time.Since(start), w.LastBatch())
	}
	return nil
}

// logQuery appends one query descriptor for post-recovery re-warming.
// Best-effort and async: the record rides the next fsync (a lost query
// record costs a little restart warmth, never correctness), and errors
// are swallowed for the same reason.
func (t *Table) logQuery(column int, lo, hi storage.Value) {
	w := t.engine.wal
	if w == nil || t.engine.cfg.WAL.DisableQueryLog {
		return
	}
	_, _ = w.Append(&wal.Record{
		Kind:   wal.KindQuery,
		Table:  t.name,
		Column: column,
		Lo:     lo,
		Hi:     hi,
	})
}

// Checkpoint flushes every table's dirty pages, writes a catalog
// consistent with them, and truncates the log up to the captured
// position. Readers are not blocked: only shared table locks are taken
// (the pool is internally synchronized), so queries proceed while the
// checkpoint runs; DML on a table briefly waits for that table's flush.
func (e *Engine) Checkpoint() error {
	if err := e.checkOpen(); err != nil {
		return err
	}
	if e.wal == nil {
		return fmt.Errorf("engine: Checkpoint requires a WAL-backed engine")
	}
	return e.checkpoint()
}

// checkpointIfWAL checkpoints when a WAL is active — the DDL epilogue.
// DDL forcing a synchronous checkpoint keeps the log free of schema
// records: everything in the log is DML or queries against a catalog
// that already reflects all DDL.
func (e *Engine) checkpointIfWAL() error {
	if e.wal == nil {
		return nil
	}
	return e.checkpoint()
}

// checkpoint is the internal variant without the closed check, used by
// Close for the final checkpoint. Ordering is the write-ahead rule run
// backwards: capture the log position, make the log durable up to it,
// then flush pages, then publish a catalog naming the position, then
// reclaim the log. Records appended mid-checkpoint are beyond the
// captured position and simply replay on top after a crash — redo by
// full page images is idempotent.
func (e *Engine) checkpoint() error {
	start := time.Now()
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	e.mu.RLock()
	defer e.mu.RUnlock()

	lsn := e.wal.AppendedLSN()
	if err := e.wal.Sync(); err != nil {
		return err
	}

	var cat catalog.Catalog
	names := make([]string, 0, len(e.tables))
	for n := range e.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t := e.tables[n]
		t.mu.RLock()
		err := t.saveMetaLocked(&cat)
		t.mu.RUnlock()
		if err != nil {
			return err
		}
	}
	cat.CheckpointLSN = uint64(lsn)
	if err := catalog.Save(e.cfg.DataDir, cat); err != nil {
		return err
	}
	e.lastCkpt.Store(uint64(lsn))
	if err := e.wal.TruncateTo(lsn); err != nil {
		return err
	}
	e.ckptCount.Add(1)
	e.ckptLastNanos.Store(int64(time.Since(start)))
	e.ckptLastEnd.Store(time.Now().UnixNano())
	return nil
}

// startCheckpointer launches the periodic checkpoint loop when
// configured.
func (e *Engine) startCheckpointer() {
	if e.wal == nil || e.cfg.WAL.CheckpointEvery <= 0 {
		return
	}
	e.ckptStop = make(chan struct{})
	e.ckptDone = make(chan struct{})
	go func() {
		defer close(e.ckptDone)
		tick := time.NewTicker(e.cfg.WAL.CheckpointEvery)
		defer tick.Stop()
		for {
			select {
			case <-e.ckptStop:
				return
			case <-tick.C:
				// Skip when nothing was logged since the last checkpoint.
				if uint64(e.wal.AppendedLSN()) == e.lastCkpt.Load() {
					continue
				}
				_ = e.checkpoint() // surfaced again by the Close checkpoint
			}
		}
	}()
}

// stopCheckpointer halts the periodic loop and waits for it.
func (e *Engine) stopCheckpointer() {
	if e.ckptStop == nil {
		return
	}
	close(e.ckptStop)
	<-e.ckptDone
	e.ckptStop = nil
}

// rewarmQuery is one recovered query descriptor awaiting replay.
type rewarmQuery struct {
	table  string
	column int
	lo, hi storage.Value
}

// Rewarm replays the query tail recovered from the log through the
// normal query path, so the volatile Index Buffers — which never
// survive a restart by design (paper §III) — converge back toward
// their pre-crash state without waiting for live traffic. Each
// affected buffer gets one "buffer-reset" event first, so the restart
// registers as a fresh convergence episode on the adaptation timeline
// (turn observation on before calling Rewarm to record it).
//
// The tail is consumed: a second call replays nothing. Returns the
// number of queries replayed; unknown tables or columns in the tail
// (dropped since logging) are skipped.
func (e *Engine) Rewarm(ctx context.Context) (int, error) {
	if err := e.checkOpen(); err != nil {
		return 0, err
	}
	e.rewarmMu.Lock()
	tail := e.rewarm
	e.rewarm = nil
	e.rewarmMu.Unlock()

	reset := make(map[string]bool)
	n := 0
	for _, q := range tail {
		if err := ctx.Err(); err != nil {
			return n, err
		}
		t := e.Table(q.table)
		if t == nil || q.column < 0 || q.column >= t.schema.NumColumns() {
			continue
		}
		if t.Index(q.column) == nil {
			continue
		}
		if name := t.bufferName(q.column); t.Buffer(q.column) != nil && !reset[name] {
			reset[name] = true
			e.emit(nil, "buffer-reset", name, -1, 0)
		}
		if _, _, err := t.QueryRangeCtx(ctx, q.column, q.lo, q.hi); err != nil {
			return n, fmt.Errorf("engine: rewarm replay on %s: %w", q.table, err)
		}
		n++
	}
	return n, nil
}
