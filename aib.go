// Package repro is the public API of the Adaptive Index Buffer library —
// a from-scratch Go reproduction of "Adaptive Index Buffer" (Voigt,
// Jaekel, Kissinger, Lehner; ICDE Workshops 2012).
//
// The library bundles a small storage engine (slotted-page heap tables on
// a simulated disk behind an LRU buffer pool), partial secondary B+-tree
// indexes, and the paper's contribution: volatile in-memory Index Buffers
// that complete the indexing of table pages during scans so subsequent
// scans can skip them, managed by benefit within a bounded Index Buffer
// Space.
//
// Quick start:
//
//	db, _ := repro.Open(repro.Options{SpaceLimit: 100000})
//	t, _ := db.CreateTable("flights",
//		repro.Int64Column("delay"),
//		repro.StringColumn("airport"),
//	)
//	t.Insert(int64(12), "ORD")
//	t.CreatePartialRangeIndex("delay", 0, 60)
//	rows, stats, _ := t.Query("delay", int64(12)) // partial index hit
//	rows, stats, _ = t.Query("delay", int64(90))  // miss: indexing scan
//	_ = rows
//	_ = stats.PagesSkipped
//
// A DB is safe for concurrent use: index-covered reads run in parallel
// across goroutines, while DML and buffer-building scans serialize per
// table (see DESIGN.md, "Concurrency model"). Concurrent misses on the
// same table and column are coalesced into one shared indexing scan
// rather than queuing for their own (SharedScanStats reports how often);
// long scans can be abandoned via the context-aware variants QueryCtx
// and QueryRangeCtx.
//
// See the examples/ directory for runnable programs and cmd/aibench for
// the paper's full experiment suite.
package repro

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/flight"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/shell"
	"repro/internal/storage"
	"repro/internal/timeline"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Options configures a database. The zero value gives the paper's
// defaults: B+-tree buffers, I^MAX = 5000 pages, P = 10000 pages,
// LRU-2 histories, unlimited Index Buffer Space.
type Options struct {
	// IMax caps pages indexed per table scan (paper I^MAX).
	IMax int
	// PartitionPages is the page capacity of one buffer partition
	// (paper P).
	PartitionPages int
	// HistoryDepth is the LRU-K depth (paper K).
	HistoryDepth int
	// SpaceLimit bounds total Index Buffer entries (paper L); 0 =
	// unlimited.
	SpaceLimit int
	// PoolPages is the buffer-pool capacity per table.
	PoolPages int
	// ScanParallelism bounds the worker pool every table-scan stage
	// (indexing scans and full scans) fans out to: 1 forces the serial
	// scan, n > 1 splits the page range into contiguous chunks read by at
	// most n goroutines, and 0 (the default) uses GOMAXPROCS. Query
	// results, QueryStats, and Index Buffer state are identical across
	// settings — parallelism changes wall-clock time only. Each worker
	// pins one buffer-pool page, so keep PoolPages comfortably above the
	// parallelism.
	ScanParallelism int
	// Structure selects the buffer's index structure.
	Structure Structure
	// Selection orders the page candidates of Algorithm 2's selection.
	// The zero value is the paper's ascending-counter policy; see
	// SelectRandom for the workloads where determinism backfires.
	Selection SelectionPolicy
	// DisplacementJitter is the probability, per victim-partition pick,
	// that displacement drops a uniformly random partition instead of
	// following the paper's deterministic incomplete-first order. 0 (the
	// default) is the paper's policy; nonzero values defeat workloads
	// that key off displacement events to starve a buffer (cf.
	// stochastic cracking). Must be in [0, 1].
	DisplacementJitter float64
	// Seed drives every random stream of the database — benefit-weighted
	// victim selection, SelectRandom page ordering and displacement
	// jitter — per the repo seeding convention (sub-streams derive from
	// this one seed by fixed offsets). 0 means a fixed default, so runs
	// are reproducible unless a seed is chosen explicitly.
	Seed int64
	// DisableIndexBuffer turns the contribution off (baseline mode):
	// partial-index misses degrade to full scans.
	DisableIndexBuffer bool
	// DataDir, when non-empty, stores table pages in real files under
	// the directory instead of the in-memory simulated disk. Call Close
	// to flush and release them.
	DataDir string
	// ReadLatency and WriteLatency, when positive, charge each simulated
	// disk access with a sleep so wall-clock behavior (and contention)
	// takes a real device's shape. Ignored for DataDir-backed tables.
	ReadLatency  time.Duration
	WriteLatency time.Duration
	// WAL configures crash-consistent durability for DataDir-backed
	// databases: every acknowledged DML is written ahead to a log, and
	// OpenExisting replays it so a crash — process kill, power cut —
	// loses nothing that was acknowledged. The zero value enables the
	// log with group commit. Ignored for in-memory databases.
	WAL WALOptions
	// Tenants declares the database's budget domains: each tenant's
	// Index Buffers compete within the tenant's entry quota before the
	// global pool, and an over-quota tenant's misses degrade to
	// unindexed scans instead of evicting other tenants' buffers (or
	// fail with ErrQuotaExceeded for a strict tenant). Tables created
	// through a tenant Session are visible to that tenant only. More
	// tenants can be added later with CreateTenant.
	Tenants []Tenant
}

// WALOptions configures the write-ahead log (Options.WAL).
type WALOptions struct {
	// Disable turns the WAL off, reverting to snapshot-only persistence:
	// only Save/Close write durable state, and anything after the last
	// Save is lost on a crash.
	Disable bool
	// Sync selects the commit durability protocol; the zero value is
	// SyncBatch (group commit).
	Sync SyncPolicy
	// SegmentBytes overrides the log segment rotation threshold
	// (default 4 MiB).
	SegmentBytes int
	// SyncDelay charges every log fsync with an extra sleep — the same
	// simulated-device convention as Options.WriteLatency — so
	// group-commit experiments keep a real device's shape on fast
	// filesystems.
	SyncDelay time.Duration
	// CheckpointEvery, when positive, runs a background checkpoint at
	// this period, bounding both recovery time and log size. Zero means
	// checkpoints happen only on DDL, Save, Close, and Checkpoint calls.
	CheckpointEvery time.Duration
	// DisableQueryLog stops logging query descriptors. They are never
	// needed for redo correctness — they only feed Rewarm's
	// post-recovery buffer warm-up — so this trades restart warmth for
	// log volume.
	DisableQueryLog bool
}

// SyncPolicy selects when a committed DML operation's log record is
// forced to disk (WALOptions.Sync).
type SyncPolicy int

const (
	// SyncBatch is group commit, the default: commits wait for
	// durability, but one fsync covers every record appended while the
	// previous fsync was in flight. Durability of SyncAlways at a
	// fraction of the fsyncs under concurrency.
	SyncBatch SyncPolicy = iota
	// SyncAlways fsyncs on every commit.
	SyncAlways
	// SyncNever lets commits return without forcing the log; a crash
	// can lose the unforced tail (but never corrupts).
	SyncNever
)

// policy maps the enum to the wal package's policy.
func (s SyncPolicy) policy() wal.SyncPolicy {
	switch s {
	case SyncAlways:
		return wal.SyncAlways
	case SyncNever:
		return wal.SyncNever
	default:
		return wal.SyncBatch
	}
}

// Tenant declares one budget domain for Options.Tenants / CreateTenant.
type Tenant struct {
	// Name identifies the tenant; it must be unique, non-empty and free
	// of ':', which qualifies tenant tables in the catalog ("" is
	// the default tenant, which always exists and has no quota).
	Name string
	// Quota is the tenant's Index Buffer entry budget carved from
	// SpaceLimit; 0 means unlimited.
	Quota int
	// Strict makes over-quota misses fail with ErrQuotaExceeded instead
	// of degrading to unindexed scans.
	Strict bool
}

// SelectionPolicy enumerates the page-selection orderings of
// Algorithm 2 — which candidate pages an indexing scan buffers first.
type SelectionPolicy int

const (
	// SelectAscending is the paper's policy: cheapest counters first
	// (pages needing the fewest entries to become skippable).
	SelectAscending SelectionPolicy = iota
	// SelectDescending buffers the most expensive pages first; it exists
	// for ablation benchmarks.
	SelectDescending
	// SelectRandom shuffles the candidates (seeded by Options.Seed).
	// Deterministic selection re-picks the same pages after every
	// displacement, so adversarial or unluckily aligned workloads can
	// starve a buffer indefinitely; random order converges on them
	// (cf. Halim et al., "Stochastic Database Cracking").
	SelectRandom
)

// order maps the enum to the core policy.
func (s SelectionPolicy) order() core.SelectionOrder {
	switch s {
	case SelectDescending:
		return core.DescendingCounter
	case SelectRandom:
		return core.RandomOrder
	default:
		return core.AscendingCounter
	}
}

// Structure enumerates the index structures an Index Buffer can use —
// the three the paper names.
type Structure int

const (
	// BTree is the default (the paper's B*-tree).
	BTree Structure = iota
	// CSBTree is the cache-sensitive B+-tree variant.
	CSBTree
	// HashTable is a chained hash index.
	HashTable
)

// factory maps the enum to the core factory.
func (s Structure) factory() core.StructureFactory {
	switch s {
	case CSBTree:
		return core.NewCSBTreeStructure
	case HashTable:
		return core.NewHashStructure
	default:
		return core.NewBTreeStructure
	}
}

// DB is a database instance.
type DB struct {
	eng *engine.Engine
	// sh evaluates statements for Exec, scoped to the default tenant.
	sh *shell.Shell
	// sink is the attached telemetry sink, if any (EnableTelemetrySink).
	sink *timeline.Sink
}

// OpenExisting reopens a database previously persisted into o.DataDir.
// With the WAL enabled (the default) this runs crash recovery: torn
// page and log tails are repaired, and every acknowledged operation
// since the last checkpoint is replayed from the log — even after an
// unclean shutdown. Tables and partial indexes are restored; Index
// Buffers start fresh (use Rewarm to warm them from the recovered
// query tail). RecoveryStats reports what recovery did.
func OpenExisting(o Options) (*DB, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	eng, err := engine.Load(engineConfig(o))
	if err != nil {
		return nil, err
	}
	return newDB(eng), nil
}

// Open creates a new database (in-memory unless o.DataDir is set). It
// fails on nonsensical options rather than silently accepting them; the
// zero Options value is always valid.
func Open(o Options) (*DB, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	return newDB(engine.New(engineConfig(o))), nil
}

// newDB wraps a constructed engine.
func newDB(eng *engine.Engine) *DB { return &DB{eng: eng, sh: shell.New(eng)} }

// MustOpen is Open for tests and examples where invalid options are a
// programming error; it panics instead of returning one.
func MustOpen(o Options) *DB {
	db, err := Open(o)
	if err != nil {
		panic(err)
	}
	return db
}

// validate rejects option values that Open used to accept silently and
// misbehave on later.
func (o Options) validate() error {
	switch {
	case o.IMax < 0:
		return fmt.Errorf("repro: Options.IMax %d is negative", o.IMax)
	case o.PartitionPages < 0:
		return fmt.Errorf("repro: Options.PartitionPages %d is negative", o.PartitionPages)
	case o.HistoryDepth < 0:
		return fmt.Errorf("repro: Options.HistoryDepth %d is negative", o.HistoryDepth)
	case o.SpaceLimit < 0:
		return fmt.Errorf("repro: Options.SpaceLimit %d is negative", o.SpaceLimit)
	case o.PoolPages < 0:
		return fmt.Errorf("repro: Options.PoolPages %d is negative", o.PoolPages)
	case o.ScanParallelism < 0:
		return fmt.Errorf("repro: Options.ScanParallelism %d is negative", o.ScanParallelism)
	case o.DisplacementJitter < 0 || o.DisplacementJitter > 1:
		return fmt.Errorf("repro: Options.DisplacementJitter %v is outside [0, 1]", o.DisplacementJitter)
	}
	switch o.Structure {
	case BTree, CSBTree, HashTable:
	default:
		return fmt.Errorf("repro: unknown Options.Structure %d", o.Structure)
	}
	switch o.Selection {
	case SelectAscending, SelectDescending, SelectRandom:
	default:
		return fmt.Errorf("repro: unknown Options.Selection %d", o.Selection)
	}
	switch o.WAL.Sync {
	case SyncBatch, SyncAlways, SyncNever:
	default:
		return fmt.Errorf("repro: unknown Options.WAL.Sync %d", o.WAL.Sync)
	}
	switch {
	case o.WAL.SegmentBytes < 0:
		return fmt.Errorf("repro: Options.WAL.SegmentBytes %d is negative", o.WAL.SegmentBytes)
	case o.WAL.SyncDelay < 0:
		return fmt.Errorf("repro: Options.WAL.SyncDelay %v is negative", o.WAL.SyncDelay)
	case o.WAL.CheckpointEvery < 0:
		return fmt.Errorf("repro: Options.WAL.CheckpointEvery %v is negative", o.WAL.CheckpointEvery)
	}
	seen := make(map[string]bool, len(o.Tenants))
	for _, tn := range o.Tenants {
		switch {
		case tn.Name == "":
			return fmt.Errorf("repro: Options.Tenants has an empty tenant name")
		case strings.Contains(tn.Name, ":"):
			return fmt.Errorf("repro: tenant name %q must not contain ':'", tn.Name)
		case tn.Quota < 0:
			return fmt.Errorf("repro: tenant %q quota %d is negative", tn.Name, tn.Quota)
		case seen[tn.Name]:
			return fmt.Errorf("repro: duplicate tenant %q", tn.Name)
		}
		seen[tn.Name] = true
	}
	return nil
}

// engineConfig maps public options to the engine configuration.
func engineConfig(o Options) engine.Config {
	cfg := engine.Config{
		PoolPages:       o.PoolPages,
		ScanParallelism: o.ScanParallelism,
		DataDir:         o.DataDir,
		ReadLatency:     o.ReadLatency,
		WriteLatency:    o.WriteLatency,
		Space: core.Config{
			IMax:               o.IMax,
			P:                  o.PartitionPages,
			K:                  o.HistoryDepth,
			SpaceLimit:         o.SpaceLimit,
			NewStructure:       o.Structure.factory(),
			Selection:          o.Selection.order(),
			DisplacementJitter: o.DisplacementJitter,
			Seed:               o.Seed,
		},
		DisableIndexBuffer: o.DisableIndexBuffer,
		WAL: engine.WALConfig{
			Disable:         o.WAL.Disable,
			SyncPolicy:      o.WAL.Sync.policy(),
			SegmentBytes:    o.WAL.SegmentBytes,
			SyncDelay:       o.WAL.SyncDelay,
			CheckpointEvery: o.WAL.CheckpointEvery,
			DisableQueryLog: o.WAL.DisableQueryLog,
		},
	}
	for _, tn := range o.Tenants {
		cfg.Tenants = append(cfg.Tenants, engine.TenantSpec{Name: tn.Name, Quota: tn.Quota, Strict: tn.Strict})
	}
	return cfg
}

// Column describes a table column for CreateTable.
type Column struct {
	Name string
	kind storage.Kind
}

// Int64Column declares an INTEGER column.
func Int64Column(name string) Column { return Column{Name: name, kind: storage.KindInt64} }

// StringColumn declares a VARCHAR column.
func StringColumn(name string) Column { return Column{Name: name, kind: storage.KindString} }

// Table is a handle to one table.
type Table struct {
	t      *engine.Table
	schema *storage.Schema
}

// CreateTable creates an empty table with the given columns.
func (db *DB) CreateTable(name string, cols ...Column) (*Table, error) {
	sc := make([]storage.Column, len(cols))
	for i, c := range cols {
		sc[i] = storage.Column{Name: c.Name, Kind: c.kind}
	}
	schema, err := storage.NewSchema(sc...)
	if err != nil {
		return nil, err
	}
	t, err := db.eng.CreateTable(name, schema)
	if err != nil {
		return nil, err
	}
	return &Table{t: t, schema: schema}, nil
}

// Table returns an existing table handle, or nil.
func (db *DB) Table(name string) *Table {
	t := db.eng.Table(name)
	if t == nil {
		return nil
	}
	return &Table{t: t, schema: t.Schema()}
}

// RID is a stable record identifier returned by Insert and Update.
type RID = storage.RID

// Row is one query result.
type Row struct {
	RID    RID
	values []storage.Value
	schema *storage.Schema
}

// Int64 returns the named INTEGER column's value.
func (r Row) Int64(column string) (int64, error) {
	v, err := r.value(column)
	if err != nil {
		return 0, err
	}
	if v.Kind() != storage.KindInt64 {
		return 0, fmt.Errorf("repro: column %q is %v, not INTEGER", column, v.Kind())
	}
	return v.Int64(), nil
}

// String returns the named VARCHAR column's value.
func (r Row) String(column string) (string, error) {
	v, err := r.value(column)
	if err != nil {
		return "", err
	}
	if v.Kind() != storage.KindString {
		return "", fmt.Errorf("repro: column %q is %v, not VARCHAR", column, v.Kind())
	}
	return v.Str(), nil
}

func (r Row) value(column string) (storage.Value, error) {
	i := r.schema.ColumnIndex(column)
	if i < 0 {
		return storage.Value{}, fmt.Errorf("repro: column %q: %w", column, ErrNoColumn)
	}
	return r.values[i], nil
}

// QueryStats reports the cost and mechanism of one query; see the fields
// of exec.QueryStats. PagesRead is the logical I/O (the paper's runtime
// proxy), PagesSkipped the pages the Index Buffer saved.
type QueryStats = exec.QueryStats

// Plan is a non-mutating EXPLAIN of a query's access path and cost; see
// exec.Plan.
type Plan = exec.Plan

// toValue converts a friendly Go value to a storage value.
func toValue(v any) (storage.Value, error) {
	switch x := v.(type) {
	case int:
		return storage.Int64Value(int64(x)), nil
	case int64:
		return storage.Int64Value(x), nil
	case string:
		return storage.StringValue(x), nil
	case storage.Value:
		return x, nil
	default:
		return storage.Value{}, fmt.Errorf("repro: unsupported value type %T (want int, int64 or string)", v)
	}
}

// tuple builds a schema-conforming tuple from friendly values.
func (t *Table) tuple(values []any) (storage.Tuple, error) {
	if len(values) != t.schema.NumColumns() {
		return storage.Tuple{}, fmt.Errorf("repro: %d values for %d columns", len(values), t.schema.NumColumns())
	}
	vs := make([]storage.Value, len(values))
	for i, v := range values {
		sv, err := toValue(v)
		if err != nil {
			return storage.Tuple{}, err
		}
		vs[i] = sv
	}
	return storage.NewTuple(vs...), nil
}

// Insert adds a row; values must match the column order and kinds.
func (t *Table) Insert(values ...any) (RID, error) {
	tu, err := t.tuple(values)
	if err != nil {
		return storage.InvalidRID, err
	}
	return t.t.InsertCtx(context.Background(), tu)
}

// Update replaces the row at rid, returning its (possibly new) RID.
func (t *Table) Update(rid RID, values ...any) (RID, error) {
	tu, err := t.tuple(values)
	if err != nil {
		return storage.InvalidRID, err
	}
	return t.t.UpdateCtx(context.Background(), rid, tu)
}

// Delete removes the row at rid.
func (t *Table) Delete(rid RID) error { return t.t.DeleteCtx(context.Background(), rid) }

// columnIndex resolves a column name.
func (t *Table) columnIndex(column string) (int, error) {
	i := t.schema.ColumnIndex(column)
	if i < 0 {
		return 0, fmt.Errorf("repro: table %s column %q: %w", t.t.Name(), column, ErrNoColumn)
	}
	return i, nil
}

// CreatePartialRangeIndex builds a partial index covering values in
// [lo, hi] of the named column, and (unless disabled) the column's Index
// Buffer.
func (t *Table) CreatePartialRangeIndex(column string, lo, hi any) error {
	i, err := t.columnIndex(column)
	if err != nil {
		return err
	}
	lv, err := toValue(lo)
	if err != nil {
		return err
	}
	hv, err := toValue(hi)
	if err != nil {
		return err
	}
	return t.t.CreatePartialIndex(i, index.RangeCoverage{Lo: lv, Hi: hv})
}

// CreatePartialSetIndex builds a partial index covering an explicit value
// set.
func (t *Table) CreatePartialSetIndex(column string, values ...any) error {
	i, err := t.columnIndex(column)
	if err != nil {
		return err
	}
	vs := make([]storage.Value, len(values))
	for j, v := range values {
		sv, err := toValue(v)
		if err != nil {
			return err
		}
		vs[j] = sv
	}
	return t.t.CreatePartialIndex(i, index.NewSetCoverage(vs...))
}

// RedefineRangeIndex changes the partial index's covered range — the
// expensive disk-side adaptation the Index Buffer bridges.
func (t *Table) RedefineRangeIndex(column string, lo, hi any) error {
	i, err := t.columnIndex(column)
	if err != nil {
		return err
	}
	lv, err := toValue(lo)
	if err != nil {
		return err
	}
	hv, err := toValue(hi)
	if err != nil {
		return err
	}
	return t.t.RedefineIndex(i, index.RangeCoverage{Lo: lv, Hi: hv})
}

// Query answers column = key, maintaining the Index Buffer machinery as
// a side effect, and reports the query's cost profile. It is QueryCtx
// with context.Background().
func (t *Table) Query(column string, key any) ([]Row, QueryStats, error) {
	return t.QueryCtx(context.Background(), column, key)
}

// QueryCtx is Query honoring ctx: a query that misses the partial index
// runs a (possibly long) table scan, and the scan checks for
// cancellation between page reads, returning ctx.Err() when the deadline
// passes or the context is canceled. Index-covered queries are a handful
// of page fetches and complete regardless. A point query is the range
// [key, key].
func (t *Table) QueryCtx(ctx context.Context, column string, key any) ([]Row, QueryStats, error) {
	return t.QueryRangeCtx(ctx, column, key, key)
}

// QueryRange answers lo <= column <= hi. The partial index serves the
// query only when its predicate covers the entire interval; any other
// range runs through the indexing-scan machinery, building the Index
// Buffer as a side effect. It is QueryRangeCtx with
// context.Background().
func (t *Table) QueryRange(column string, lo, hi any) ([]Row, QueryStats, error) {
	return t.QueryRangeCtx(context.Background(), column, lo, hi)
}

// QueryRangeCtx is QueryRange honoring ctx; see QueryCtx.
func (t *Table) QueryRangeCtx(ctx context.Context, column string, lo, hi any) ([]Row, QueryStats, error) {
	i, err := t.columnIndex(column)
	if err != nil {
		return nil, QueryStats{}, err
	}
	lv, err := toValue(lo)
	if err != nil {
		return nil, QueryStats{}, err
	}
	hv, err := toValue(hi)
	if err != nil {
		return nil, QueryStats{}, err
	}
	matches, stats, err := t.t.QueryRangeCtx(ctx, i, lv, hv)
	if err != nil {
		return nil, stats, err
	}
	return t.rows(matches), stats, nil
}

// rows materializes exec matches into public Rows.
func (t *Table) rows(matches []exec.Match) []Row {
	rows := make([]Row, len(matches))
	for j, m := range matches {
		vals := make([]storage.Value, t.schema.NumColumns())
		for c := range vals {
			vals[c] = m.Tuple.Value(c)
		}
		rows[j] = Row{RID: m.RID, values: vals, schema: t.schema}
	}
	return rows
}

// Explain plans column = key — the range [key, key] — without executing
// or touching any Index Buffer state.
func (t *Table) Explain(column string, key any) (Plan, error) {
	return t.ExplainRange(column, key, key)
}

// ExplainRange plans lo <= column <= hi without executing.
func (t *Table) ExplainRange(column string, lo, hi any) (Plan, error) {
	i, err := t.columnIndex(column)
	if err != nil {
		return Plan{}, err
	}
	lv, err := toValue(lo)
	if err != nil {
		return Plan{}, err
	}
	hv, err := toValue(hi)
	if err != nil {
		return Plan{}, err
	}
	return t.t.ExplainRange(i, lv, hv)
}

// Vacuum rewrites the table's heap densely, reclaiming dead space after
// heavy DML, and rebuilds its indexes. All RIDs change; the column's
// Index Buffers restart empty. It returns the page counts before and
// after.
func (t *Table) Vacuum() (pagesBefore, pagesAfter int, err error) {
	return t.t.Vacuum()
}

// NumPages returns the table's heap page count.
func (t *Table) NumPages() int { return t.t.NumPages() }

// Count returns the number of live rows (via a raw scan).
func (t *Table) Count() (int, error) { return t.t.Count() }

// BufferStats describes one Index Buffer's current state.
type BufferStats struct {
	Name          string
	Entries       int
	Partitions    int
	BufferedPages int
	MeanInterval  float64
	Benefit       float64
}

// BufferStats returns per-buffer occupancy, in creation order.
func (db *DB) BufferStats() []BufferStats {
	var out []BufferStats
	for _, b := range db.eng.Space().Buffers() {
		out = append(out, BufferStats{
			Name:          b.Name(),
			Entries:       b.EntryCount(),
			Partitions:    b.PartitionCount(),
			BufferedPages: b.BufferedPages(),
			MeanInterval:  b.History().Mean(),
			Benefit:       b.Benefit(),
		})
	}
	return out
}

// SpaceUsed returns total entries across all Index Buffers.
func (db *DB) SpaceUsed() int { return db.eng.Space().Used() }

// SharedScanStats reports the scan-sharing counters: how many queries
// missed into the indexing-scan path, how many Algorithm-1 passes
// actually ran, and how many scans coalescing saved; see
// metrics.SharedScanStats.
type SharedScanStats = metrics.SharedScanStats

// SharedScanStats reads the database-wide scan-sharing counters.
func (db *DB) SharedScanStats() SharedScanStats { return db.eng.SharedScanStats() }

// ParallelScanStats reports the parallel scan-execution counters: how
// many table-scan stages fanned out to more than one worker and the
// total workers they used; see metrics.ParallelScanStats.
type ParallelScanStats = metrics.ParallelScanStats

// ParallelScanStats reads the database-wide parallel-scan counters.
func (db *DB) ParallelScanStats() ParallelScanStats { return db.eng.ParallelScanStats() }

// TraceReport renders per-column query statistics — queries, hit rate,
// mean pages per query, the share of pages the Index Buffer let scans
// skip, and mean wall-clock microseconds per query.
func (db *DB) TraceReport() string { return db.eng.Tracer().Report(nil) }

// TraceEvent is one structured span event from the adaptive machinery:
// miss admission, shared-scan leadership or attachment, Algorithm-2 page
// selection, displacement, and page completion (C[p] → 0). Seq is a
// process-wide monotonic sequence number; see trace.Span.
type TraceEvent = trace.Span

// Observe turns observation on or off — the one switch behind span
// events (TraceEvents), adaptation-timeline sampling (Timeline) and the
// per-statement flight recorder (RecentQueries, SlowQueries). Off (the
// default) reduces the instrumentation on every query path to a single
// atomic load with no allocation — see the overhead contract in
// DESIGN.md, "Observability". Retained data stays readable when off.
//
// While on, every statement that enters the statement API (Exec,
// Session.Exec, the wire server) is flight-recorded: a trace ID is
// minted (or taken from the caller via the wire protocol's TRACE
// prefix), threaded through execution so span events and WAL commits
// carry it, and the completed record lands in a bounded ring;
// statements of at least 10ms also enter the slow-query ring. Every
// query boundary samples the queried column's coverage, counter
// distribution and occupancy, and adaptive events (displacement, page
// completion) mark their buffer for resampling.
func (db *DB) Observe(on bool) { db.eng.Observe(on) }

// Observing reports whether observation is on.
func (db *DB) Observing() bool { return db.eng.Observing() }

// TraceEvents returns the retained span events, newest first. Events
// are recorded while Observe is on; the ring keeps the most recent
// events only.
func (db *DB) TraceEvents() []TraceEvent { return db.eng.Tracer().Spans(1 << 30) }

// LatencyStats is one execution mechanism's query-latency summary in
// microseconds: exact count, sum, mean and max, with reservoir-sampled
// p50/p95/p99.
type LatencyStats = trace.MechanismLatency

// LatencyStats returns per-mechanism latency summaries (hit,
// indexing-scan, full-scan, shared-follower), sorted by mechanism.
func (db *DB) LatencyStats() []LatencyStats { return db.eng.Tracer().LatencyStats() }

// WriteMetrics renders every monitor — scan-sharing counters, Index
// Buffer Space occupancy, per-buffer gauges, per-column aggregates, and
// per-mechanism latency summaries — to w in the Prometheus text
// exposition format (v0.0.4).
func (db *DB) WriteMetrics(w io.Writer) error { return db.eng.WriteMetrics(w) }

// MetricsHandler returns an http.Handler serving /metrics (Prometheus
// text), /timeline (adaptation timeline as JSON), /healthz and
// /debug/pprof/* for this database. Mount it on a server of your
// choosing; nothing listens unless you do.
func (db *DB) MetricsHandler() http.Handler { return obs.Handler(db.eng) }

// ServeMetrics binds addr (e.g. "localhost:9090", or ":0" for an
// ephemeral port) and serves MetricsHandler on it in a background
// goroutine. It returns the server and the bound address; shut down
// with srv.Close or srv.Shutdown.
func (db *DB) ServeMetrics(addr string) (*http.Server, string, error) {
	return obs.Serve(addr, db.eng)
}

// TimelineSample is one adaptation-timeline data point: coverage
// fraction, C[p] distribution summary, occupancy, churn counters and
// the per-mechanism query mix at one sampling instant; see
// timeline.Sample.
type TimelineSample = timeline.Sample

// TimelineSeries is the retained timeline of one (table, column) pair,
// samples oldest-first; see timeline.Series.
type TimelineSeries = timeline.Series

// Convergence is the convergence detector's verdict for one column:
// whether (and after how many queries) coverage reached the target
// fraction, and whether it has since regressed; see
// timeline.Convergence.
type Convergence = timeline.Convergence

// Timeline returns the retained adaptation timeline, one series per
// (table, column), sorted by buffer name. Empty until queries run while
// Observe is on.
func (db *DB) Timeline() []TimelineSeries { return db.eng.Timeline().Series() }

// Convergence returns the convergence verdicts — the paper-shaped
// answer to "how many queries until column X became 95% skippable?" —
// sorted by buffer name. The target fraction defaults to 0.95.
func (db *DB) Convergence() []Convergence { return db.eng.Convergence() }

// TelemetryStats reports a telemetry sink's counters: records written
// and write failures; see timeline.SinkStats.
type TelemetryStats = timeline.SinkStats

// EnableTelemetrySink streams structured telemetry — every trace span,
// timeline sample and completed flight record, one JSON object per
// line — to w and calls Observe(true). The caller owns w's lifecycle;
// writes are serialized internally and a failed write drops that
// record (see TelemetryStats) rather than failing queries. A nil w
// detaches the current sink and leaves observation on.
func (db *DB) EnableTelemetrySink(w io.Writer) {
	if w == nil {
		db.eng.SetTelemetrySink(nil)
		db.sink = nil
		return
	}
	db.sink = timeline.NewSink(w)
	db.eng.SetTelemetrySink(db.sink)
}

// TelemetryStats reads the attached sink's counters (zero if no sink
// is attached).
func (db *DB) TelemetryStats() TelemetryStats {
	if db.sink == nil {
		return TelemetryStats{}
	}
	return db.sink.Stats()
}

// FlightRecord is one completed statement's flight record: trace ID,
// tenant, statement text, execution mechanism, page counts, quota
// degradation, WAL commit latency with the group-commit batch size, the
// span tree of adaptive events the statement triggered, wall-clock
// duration and error; see flight.Record.
type FlightRecord = flight.Record

// FlightStats reports the flight recorder's counters: whether Observe
// is on, completed and slow-captured statements, and the slow
// threshold; see flight.Stats.
type FlightStats = flight.Stats

// FlightStats reads the flight recorder's counters.
func (db *DB) FlightStats() FlightStats { return db.eng.FlightStats() }

// MintTraceID returns a fresh process-unique trace ID, the same minting
// the recorder applies to statements that arrive without one. The wire
// server uses it to stamp statements so the client can correlate its
// response with the flight record and span stream.
func (db *DB) MintTraceID() string { return db.eng.Flight().MintID() }

// SlowQueries returns up to n records from the slow-query ring, slowest
// first. Empty until statements run while Observe is on.
func (db *DB) SlowQueries(n int) []FlightRecord { return db.eng.Flight().Slow(n) }

// RecentQueries returns up to n most recently completed flight records,
// newest first.
func (db *DB) RecentQueries(n int) []FlightRecord { return db.eng.Flight().Recent(n) }

// FlightRecords searches both retained rings for records matching every
// given filter — trace ID, tenant, minimum duration — newest first, at
// most n. Zero values ("" and 0) match everything.
func (db *DB) FlightRecords(traceID, tenant string, minDuration time.Duration, n int) []FlightRecord {
	return db.eng.Flight().Find(traceID, tenant, minDuration, n)
}

// DurabilityHealth summarizes the durability pipeline's health — WAL
// sync errors, LSN positions, segment backlog and checkpoint
// staleness — with an overall healthy verdict; /healthz serves it and
// turns 503 when unhealthy. See engine.DurabilityHealth.
type DurabilityHealth = engine.DurabilityHealth

// DurabilityHealth reads the durability health summary.
func (db *DB) DurabilityHealth() DurabilityHealth { return db.eng.DurabilityHealth() }

// WALTelemetry extends WALStats with distribution telemetry: fsync
// latency and group-commit batch-size summaries, LSN positions, active
// segment count and the sticky sync error; see wal.Telemetry.
type WALTelemetry = wal.Telemetry

// WALTelemetry reads the log writer's telemetry; ok is false when the
// WAL is off.
func (db *DB) WALTelemetry() (WALTelemetry, bool) { return db.eng.WALTelemetry() }

// CheckpointStats reports checkpoint activity: completed count, last
// duration, and the age of the last checkpoint; see
// engine.CheckpointStats.
type CheckpointStats = engine.CheckpointStats

// CheckpointStats reads the checkpoint counters.
func (db *DB) CheckpointStats() CheckpointStats { return db.eng.CheckpointStats() }

// Close flushes buffer pools and releases file-backed stores. In-memory
// databases need no Close, but calling it is always safe.
func (db *DB) Close() error { return db.eng.Close() }

// Save persists the database's catalog and flushes all pages. It
// requires a DataDir-backed database. With the WAL enabled (the
// default) Save is a checkpoint — see Checkpoint. Index Buffers are
// never persisted — they are volatile scratch-pad structures (paper
// §III) and start empty after OpenExisting.
func (db *DB) Save() error { return db.eng.Save() }

// Checkpoint flushes every table's dirty pages, writes a catalog
// consistent with them, and truncates the write-ahead log behind the
// checkpoint. Queries are not blocked while it runs. It requires a
// WAL-backed database (DataDir set, WAL not disabled).
func (db *DB) Checkpoint() error { return db.eng.Checkpoint() }

// RecoveryStats describes what OpenExisting's recovery pass did: the
// checkpoint position redo started from, records and page images
// replayed, torn bytes repaired, surplus pages truncated, and the
// query-tail length recovered for Rewarm. See engine.RecoveryStats.
type RecoveryStats = engine.RecoveryStats

// RecoveryStats returns what the OpenExisting that produced this
// database did during recovery; zero for databases created with Open.
func (db *DB) RecoveryStats() RecoveryStats { return db.eng.RecoveryStats() }

// WALStats reports write-ahead-log counters — appends, commits, fsyncs,
// bytes, segments — or zeros when the WAL is off. The Commits/Syncs
// ratio is the group-commit batching factor.
type WALStats = wal.Stats

// WALStats reads the log writer's counters.
func (db *DB) WALStats() WALStats { return db.eng.WALStats() }

// EpochStats reports the epoch-based lock-free read path's health: the
// reclamation domain's state (current epoch, pinned readers, retired
// backlog, reclaimed total, reclamation lag) plus the fast-path
// counters (queries served lock-free, attempts that fell back to the
// locked path). A quiescent database reports a drained backlog; see
// engine.EpochStats.
type EpochStats = engine.EpochStats

// EpochStats reads the epoch read-path statistics.
func (db *DB) EpochStats() EpochStats { return db.eng.EpochStats() }

// Rewarm replays the query tail recovered from the log through the
// normal query path, so the volatile Index Buffers converge back toward
// their pre-crash state without waiting for live traffic. Call it once
// after OpenExisting (enable the timeline first to record the restart
// as a fresh convergence episode); the tail is consumed. Returns the
// number of queries replayed.
func (db *DB) Rewarm(ctx context.Context) (int, error) { return db.eng.Rewarm(ctx) }
