// Package engine assembles the substrates into a small database engine:
// heap tables on a simulated disk behind a buffer pool, at most one
// partial secondary index per column, and an Index Buffer Space shared by
// every partial index. It exposes the DML and query surface the paper's
// experiments run against.
//
// Concurrency model (see DESIGN.md for the full treatment): the engine
// holds no global operation lock. A catalog RWMutex guards only table
// creation and lookup; each table carries its own RWMutex. Queries
// answered by the partial index or by a plain full scan take the table
// lock shared — they read the heap and advance only internally
// synchronized state (LRU-K histories, tracer) — so index-covered reads
// on different tables, and on different columns of the same table, run
// fully in parallel. Indexing scans (which mutate C[p] counters and
// insert buffer entries, paper Algorithms 1/2) and all DML take the
// table lock exclusive — but concurrent misses on the same table and
// column do not each run their own scan: a per-table admission layer
// coalesces them into one shared Algorithm-1 pass (see sharedscan.go).
// Lock order: Engine.mu → Table.mu → scanAdmission.mu → Space.mu →
// IndexBuffer.mu → History.mu.
package engine

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/exec"
	"repro/internal/flight"
	"repro/internal/heap"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/timeline"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Config configures a new engine.
type Config struct {
	// PoolPages is the buffer-pool capacity in pages per table. The
	// default (256 = 2 MiB) is far below the experiment table sizes, so
	// scans are disk-bound as in the paper. Zero means the default.
	PoolPages int

	// Space configures the Index Buffer Space (I^MAX, P, K, L, structure,
	// rand); see core.Config.
	Space core.Config

	// ScanParallelism bounds the worker pool of every table-scan stage
	// (indexing scans and full scans): 1 forces the serial path, n > 1
	// fans page-range chunks out to at most n goroutines, 0 defaults to
	// GOMAXPROCS. Results and Index Buffer state are identical across
	// settings; see exec's parallel scan. Parallel scans pin one pool
	// page per worker, so PoolPages should comfortably exceed the
	// parallelism.
	ScanParallelism int

	// DisableIndexBuffer turns the Index Buffer machinery off: partial
	// index misses degrade to full table scans. This is the paper's
	// baseline system.
	DisableIndexBuffer bool

	// DisableEpochReadPath forces every query through the table-lock
	// read path, turning the epoch-based lock-free hit path off. The
	// benchmark's RWMutex baseline arm; results are identical either
	// way (see readpath.go).
	DisableEpochReadPath bool

	// DataDir, when non-empty, backs each table with a real file
	// (<DataDir>/<table>.pages) instead of the in-memory simulated disk.
	// The files are truncated on creation; Close releases them.
	DataDir string

	// ReadLatency and WriteLatency, when positive, charge each simulated
	// device access with a sleep so wall-clock curves take a real
	// device's shape. Ignored for file-backed tables (they have real
	// latency).
	ReadLatency  time.Duration
	WriteLatency time.Duration

	// WAL configures crash-consistent durability for DataDir-backed
	// engines; see WALConfig. Ignored without a DataDir.
	WAL WALConfig

	// Tenants declares the budget domains registered as the engine is
	// built — before Load binds each recovered tenant table, so the
	// table's buffers charge its tenant's quota from the first query.
	Tenants []TenantSpec

	// wrapStore, when set, wraps every table's page store as it is
	// created or reopened — the crash-test hook for interposing a
	// buffer.FaultStore. The string is the table name.
	wrapStore func(string, pageStore) pageStore
}

const defaultPoolPages = 256

// Engine is the top-level database object. Safe for concurrent use.
type Engine struct {
	mu       sync.RWMutex // catalog lock: guards tables (create/lookup only)
	closed   atomic.Bool
	cfg      Config
	space    *core.Space
	tables   map[string]*Table
	tracer   *trace.Tracer
	timeline *timeline.Recorder
	flight   *flight.Recorder
	started  time.Time

	// observing is the one observability gate: span events, timeline
	// sampling and flight records all happen only while it is on.
	observing atomic.Bool

	// Epoch-based read path (readpath.go): the reclamation domain every
	// retired snapshot goes through, and the fast-path counters.
	epochs        *epoch.Domain
	fastHits      atomic.Uint64
	fastFallbacks atomic.Uint64

	sharedScans   metrics.SharedScanCounters
	parallelScans metrics.ParallelScanCounters

	// Durability (nil / zero for in-memory or WAL-disabled engines).
	wal      *wal.Writer
	walErr   error         // WAL failed to initialize; DML refuses
	ckptMu   sync.Mutex    // serializes checkpoints
	lastCkpt atomic.Uint64 // LSN of the last completed checkpoint
	ckptStop chan struct{} // periodic checkpointer lifecycle
	ckptDone chan struct{}

	// Checkpoint telemetry: completions, last duration, last completion
	// instant (unix nanos; 0 until the first checkpoint finishes).
	ckptCount     atomic.Uint64
	ckptLastNanos atomic.Int64
	ckptLastEnd   atomic.Int64

	rewarmMu sync.Mutex
	rewarm   []rewarmQuery // recovered query tail, consumed by Rewarm
	recovery RecoveryStats
}

// ParallelScanStats reads the engine-wide parallel-scan counters: how
// many table-scan stages fanned out to more than one worker and the
// total workers they used.
func (e *Engine) ParallelScanStats() metrics.ParallelScanStats {
	return e.parallelScans.Snapshot()
}

// noteScanWorkers attributes one executed scan's fan-out to the
// engine-wide counters. Serial scans (0 or 1 workers) are not counted.
func (e *Engine) noteScanWorkers(stats exec.QueryStats) {
	if stats.ScanWorkers > 1 {
		e.parallelScans.Scans.Add(1)
		e.parallelScans.Workers.Add(uint64(stats.ScanWorkers))
	}
}

// SharedScanStats reads the engine-wide scan-sharing counters: how many
// miss queries entered the admission layer, how many Algorithm-1 passes
// actually ran, and how many queries rode along on another's scan.
func (e *Engine) SharedScanStats() metrics.SharedScanStats {
	return e.sharedScans.Snapshot()
}

// traceCapacity is the query-event ring size of the built-in tracer.
const traceCapacity = 512

// flightRecentCap and flightSlowCap size the flight recorder's rings:
// the recent ring matches the tracer's event ring, the slow ring is
// smaller because slow captures are meant to survive much longer than
// their surrounding traffic.
const (
	flightRecentCap = 512
	flightSlowCap   = 128
)

// New creates an empty engine. With a DataDir and the WAL enabled (the
// default), a fresh log is initialized under <DataDir>/wal — any
// existing segments there are cleared, mirroring how table page files
// are truncated on creation. A WAL that fails to initialize does not
// fail New (its signature predates durability); instead the engine
// refuses DML with the initialization error, so nothing runs silently
// non-durable.
//
// New panics on an invalid cfg.Tenants declaration (see CreateTenant):
// the database options are validated before any engine is built, so
// only a programming error reaches it. Load returns the same failure as
// an error.
func New(cfg Config) *Engine {
	e, err := newEngine(cfg)
	if err != nil {
		panic(err)
	}
	if cfg.DataDir != "" && !cfg.WAL.Disable {
		w, err := wal.Create(walDir(cfg.DataDir), walOptions(cfg))
		if err != nil {
			e.walErr = err
		} else {
			e.wal = w
			e.startCheckpointer()
		}
	}
	return e
}

// newEngine builds the engine skeleton shared by New and Load and
// registers the declared tenants; it never touches the WAL directory
// (Load must replay it before a writer may start a new segment).
func newEngine(cfg Config) (*Engine, error) {
	if cfg.PoolPages <= 0 {
		cfg.PoolPages = defaultPoolPages
	}
	e := &Engine{
		cfg:      cfg,
		space:    core.NewSpace(cfg.Space),
		tables:   make(map[string]*Table),
		tracer:   trace.New(traceCapacity),
		timeline: timeline.New(timeline.DefaultCapacity, timeline.DefaultTarget),
		flight:   flight.NewRecorder(flightRecentCap, flightSlowCap),
		started:  time.Now(),
		epochs:   epoch.NewDomain(),
	}
	// Retired counter snapshots flow through the engine's epoch domain,
	// reclaimed only once every pinned reader has moved on.
	e.space.SetEpochDomain(e.epochs)
	// Buffer resets happen outside any query; they reach emit through a
	// statement-less observer.
	e.space.SetObserver(stmtObserver{e: e})
	for _, tn := range cfg.Tenants {
		if _, err := e.createTenant(tn.Name, tn.Quota, tn.Strict); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Observe turns observation on or off: span events in the tracer's
// ring, adaptation-timeline sampling and per-statement flight records.
// Off (the default) costs one atomic load per gated site and allocates
// nothing; retained spans, samples and records stay readable.
func (e *Engine) Observe(on bool) { e.observing.Store(on) }

// Observing reports whether observation is on.
func (e *Engine) Observing() bool { return e.observing.Load() }

// emit records one adaptive event — miss admission, scan batching,
// Algorithm-2 page selection, displacement, C[p]→0, buffer reset — once
// in every consumer: the tracer's span ring (stamped with the
// statement's trace ID), the adaptation timeline and the statement's
// flight record (fa may be nil). A no-op while observation is off. It
// touches only leaf-locked state, so it is safe under Space.mu.
func (e *Engine) emit(fa *flight.Active, kind, buffer string, page, n int) {
	if !e.observing.Load() {
		return
	}
	e.tracer.Span(kind, buffer, page, n, fa.Trace())
	e.timeline.NoteEvent(kind, buffer, page, n)
	fa.Span(kind, buffer, page, n)
}

// stmtObserver is the core.Observer that routes events to emit on
// behalf of one statement (fa, nil outside statements). Events naming
// no buffer — exec's scan-parallel and page-complete, the admission
// layer's spans — belong to the queried column's buffer.
type stmtObserver struct {
	e      *Engine
	fa     *flight.Active
	column string
}

func (o stmtObserver) SpaceEvent(kind, buffer string, page, n int) {
	if buffer == "" {
		buffer = o.column
	}
	o.e.emit(o.fa, kind, buffer, page, n)
}

// observer returns the statement's event observer for column, or nil
// while observation is off (one atomic load, no allocation).
func (t *Table) observer(ctx context.Context, column int) core.Observer {
	if !t.engine.observing.Load() {
		return nil
	}
	return stmtObserver{e: t.engine, fa: flight.FromContext(ctx), column: t.bufferName(column)}
}

// Tracer exposes the engine's query monitor.
func (e *Engine) Tracer() *trace.Tracer { return e.tracer }

// Flight exposes the engine's per-statement flight recorder; statements
// are recorded while the engine is observing.
func (e *Engine) Flight() *flight.Recorder { return e.flight }

// FlightStats reads the flight recorder's counters, Enabled reporting
// the observation gate.
func (e *Engine) FlightStats() flight.Stats {
	s := e.flight.Stats()
	s.Enabled = e.Observing()
	return s
}

// flightActive resolves the calling statement's in-progress flight
// record: nil while observation is off (one atomic load — the 0-alloc
// contract) or when the context carries no statement.
func (e *Engine) flightActive(ctx context.Context) *flight.Active {
	if !e.observing.Load() {
		return nil
	}
	return flight.FromContext(ctx)
}

// Timeline exposes the engine's adaptation-timeline recorder; it
// samples while the engine is observing.
func (e *Engine) Timeline() *timeline.Recorder { return e.timeline }

// Convergence returns the timeline's convergence verdicts — queries to
// the coverage target per (table, column), regression flags — sorted by
// buffer name. Empty until queries run while observing.
func (e *Engine) Convergence() []timeline.Convergence {
	return e.timeline.Convergence()
}

// SetTelemetrySink streams structured telemetry — every trace span,
// timeline sample and completed flight record — to s as JSONL, turning
// observation on. A nil s detaches the sink and leaves observation on
// (Observe(false) turns it off).
func (e *Engine) SetTelemetrySink(s *timeline.Sink) {
	if s == nil {
		e.tracer.SetSpanSink(nil)
		e.timeline.SetSink(nil)
		e.flight.SetSink(nil)
		return
	}
	e.timeline.SetSink(s)
	e.tracer.SetSpanSink(func(sp trace.Span) {
		s.WriteSpan(timeline.SpanRecord{Seq: sp.Seq, Kind: sp.Kind, Target: sp.Target, Page: sp.Page, N: sp.N, Trace: sp.Trace})
	})
	e.flight.SetSink(func(r flight.Record) { s.WriteFlight(r) })
	e.Observe(true)
}

// Space exposes the Index Buffer Space for inspection (entry counts,
// stats). Callers must not mutate it.
func (e *Engine) Space() *core.Space { return e.space }

// checkOpen fails with ErrClosed once Close has run.
func (e *Engine) checkOpen() error {
	if e.closed.Load() {
		return fmt.Errorf("engine: %w", ErrClosed)
	}
	return nil
}

// Close flushes every table's buffer pool and closes file-backed stores.
// Subsequent operations fail with ErrClosed. Close waits for in-flight
// operations by taking every table's exclusive lock; it is a no-op for
// the stores of purely in-memory engines. WAL-backed engines take a
// final checkpoint first, so a clean shutdown leaves an empty log and
// the next Load has no redo work.
func (e *Engine) Close() error {
	if !e.closed.CompareAndSwap(false, true) {
		return nil // already closed
	}
	var first error
	if e.wal != nil {
		e.stopCheckpointer()
		first = e.checkpoint()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, t := range e.tables {
		t.mu.Lock()
		if err := t.pool.FlushAll(); err != nil && first == nil {
			first = err
		}
		if c, ok := t.store.(interface{ Close() error }); ok {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
		t.mu.Unlock()
	}
	if e.wal != nil {
		if err := e.wal.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// pageStore is the store surface the engine needs: device ops plus the
// logical I/O counters both backends expose.
type pageStore interface {
	buffer.Store
	Stats() buffer.IOStats
}

// Table is one heap table with its indexes and Index Buffers.
//
// The table's RWMutex is the unit of isolation for everything hanging
// off the table: DML, index DDL, vacuum, and indexing scans take it
// exclusive; index-hit queries, full scans, explains and raw scans take
// it shared. The Index Buffer and Space carry their own locks underneath
// because displacement on behalf of *another* table's scan may reach
// into this table's buffers without holding this table's lock.
type Table struct {
	engine *Engine
	name   string // qualified catalog name ("<tenant>:<table>" for tenant tables)
	tenant *core.Tenant
	schema *storage.Schema

	mu      sync.RWMutex
	store   pageStore
	pool    *buffer.Pool
	heap    *heap.Table
	indexes map[int]*index.Partial    // by column ordinal
	buffers map[int]*core.IndexBuffer // by column ordinal

	// Epoch-based read path (readpath.go): seq is the table's seqlock —
	// even at rest, odd strictly while a mutator changes reader-visible
	// in-memory state (never across a WAL fsync); read is the published
	// copy-on-write access-path state lock-free readers resolve against.
	seq  atomic.Uint64
	read atomic.Pointer[readState]

	scans scanAdmission // per-column batching of concurrent miss queries
}

// CreateTable registers a new empty table under the default tenant.
// On WAL-backed engines every DDL statement ends with a synchronous
// checkpoint, so the log never carries schema changes — recovery
// replays DML against a catalog that already reflects all DDL.
func (e *Engine) CreateTable(name string, schema *storage.Schema) (*Table, error) {
	t, err := e.createTable(nil, name, schema)
	if err != nil {
		return nil, err
	}
	if err := e.checkpointIfWAL(); err != nil {
		return nil, fmt.Errorf("engine: checkpoint after creating %s: %w", name, err)
	}
	return t, nil
}

// createTable registers a table under its qualified catalog name; tn is
// the owning tenant (nil = default). Only a tenant table's name carries
// the ':' qualifier, which is how Load finds its owner again.
func (e *Engine) createTable(tn *core.Tenant, name string, schema *storage.Schema) (*Table, error) {
	if err := e.checkOpen(); err != nil {
		return nil, err
	}
	if tn == nil && strings.Contains(name, ":") {
		return nil, fmt.Errorf("engine: table name %q: ':' qualifies tenant tables", name)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.tables[name]; dup {
		return nil, fmt.Errorf("engine: table %q: %w", name, ErrDuplicateTable)
	}
	var store pageStore
	if e.cfg.DataDir != "" {
		fs, err := buffer.OpenFileStore(filepath.Join(e.cfg.DataDir, name+".pages"))
		if err != nil {
			return nil, err
		}
		store = fs
	} else {
		sd := buffer.NewSimDisk()
		if e.cfg.ReadLatency > 0 || e.cfg.WriteLatency > 0 {
			sd.SetLatency(e.cfg.ReadLatency, e.cfg.WriteLatency)
		}
		store = sd
	}
	if e.cfg.wrapStore != nil {
		store = e.cfg.wrapStore(name, store)
	}
	pool, err := buffer.NewPool(store, e.cfg.PoolPages)
	if err != nil {
		return nil, err
	}
	t := &Table{
		engine:  e,
		name:    name,
		tenant:  tn,
		schema:  schema,
		store:   store,
		pool:    pool,
		heap:    heap.NewTable(schema, pool),
		indexes: make(map[int]*index.Partial),
		buffers: make(map[int]*core.IndexBuffer),
	}
	t.publishReadLocked() // t is unshared until the map insert below
	e.tables[name] = t
	return t, nil
}

// Table returns the named table, or nil.
func (e *Engine) Table(name string) *Table {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.tables[name]
}

// TableNames returns all table names, sorted.
func (e *Engine) TableNames() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, 0, len(e.tables))
	for n := range e.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *storage.Schema { return t.schema }

// NumPages returns the heap page count.
func (t *Table) NumPages() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.heap.NumPages()
}

// DiskStats returns device-level I/O counters for the table's store.
func (t *Table) DiskStats() buffer.IOStats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.store.Stats()
}

// PoolStats returns the table's buffer-pool counters.
func (t *Table) PoolStats() buffer.PoolStats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.pool.Stats()
}

// Index returns the partial index on the column, or nil.
func (t *Table) Index(column int) *index.Partial {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.indexes[column]
}

// Buffer returns the Index Buffer on the column, or nil.
func (t *Table) Buffer(column int) *core.IndexBuffer {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.buffers[column]
}

// checkColumn validates a column ordinal.
func (t *Table) checkColumn(column int) error {
	if column < 0 || column >= t.schema.NumColumns() {
		return fmt.Errorf("engine: table %s column %d: %w", t.name, column, ErrNoColumn)
	}
	return nil
}

// bufferName is the Index Buffer's key in the Space.
func (t *Table) bufferName(column int) string {
	return fmt.Sprintf("%s.%s", t.name, t.schema.Column(column).Name)
}

// CreatePartialIndex builds a partial index over the column with the
// given coverage, scanning the table once. Unless the engine disables
// Index Buffers, it also creates the column's Index Buffer and
// initializes the page counters — "the number of tuples in the page minus
// the tuples covered by the partial index" (paper §III). Like all DDL
// it ends with a checkpoint on WAL-backed engines.
func (t *Table) CreatePartialIndex(column int, cov index.Coverage) error {
	if err := t.createPartialIndex(column, cov); err != nil {
		return err
	}
	if err := t.engine.checkpointIfWAL(); err != nil {
		return fmt.Errorf("engine: checkpoint after indexing %s: %w", t.name, err)
	}
	return nil
}

func (t *Table) createPartialIndex(column int, cov index.Coverage) error {
	if err := t.engine.checkOpen(); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.checkColumn(column); err != nil {
		return err
	}
	if _, dup := t.indexes[column]; dup {
		return fmt.Errorf("engine: column %d of %s: %w", column, t.name, ErrDuplicateIndex)
	}
	ix := index.NewPartial(t.bufferName(column), column, cov)
	uncovered := make([]int, t.heap.NumPages())
	err := t.heap.Scan(func(rid storage.RID, tu storage.Tuple) error {
		v := tu.Value(column)
		if !ix.Add(v, rid) {
			uncovered[rid.Page]++
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("engine: building index on %s: %w", t.bufferName(column), err)
	}
	t.beginMutate()
	defer t.endMutate()
	defer t.publishReadLocked()
	t.indexes[column] = ix

	if !t.engine.cfg.DisableIndexBuffer {
		b, err := t.engine.space.CreateBufferFor(t.bufferName(column), uncovered, t.tenant)
		if err != nil {
			return err
		}
		t.buffers[column] = b
	}
	return nil
}

// DropIndex removes the column's partial index and its Index Buffer,
// releasing the buffer's Index Buffer Space.
func (t *Table) DropIndex(column int) error {
	if err := t.dropIndex(column); err != nil {
		return err
	}
	if err := t.engine.checkpointIfWAL(); err != nil {
		return fmt.Errorf("engine: checkpoint after dropping index on %s: %w", t.name, err)
	}
	return nil
}

func (t *Table) dropIndex(column int) error {
	if err := t.engine.checkOpen(); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.indexes[column] == nil {
		return fmt.Errorf("engine: column %d of %s: %w", column, t.name, ErrNoIndex)
	}
	t.beginMutate()
	defer t.endMutate()
	delete(t.indexes, column)
	if t.buffers[column] != nil {
		t.engine.space.DropBuffer(t.bufferName(column))
		delete(t.buffers, column)
	}
	t.publishReadLocked()
	return nil
}

// RedefineIndex changes the partial index's coverage (the expensive
// disk-side adaptation step). The column's Index Buffer is discarded and
// recreated with counters matching the new coverage, since its contents
// were defined relative to the old predicate.
func (t *Table) RedefineIndex(column int, cov index.Coverage) error {
	if err := t.redefineIndex(column, cov); err != nil {
		return err
	}
	if err := t.engine.checkpointIfWAL(); err != nil {
		return fmt.Errorf("engine: checkpoint after redefining index on %s: %w", t.name, err)
	}
	return nil
}

func (t *Table) redefineIndex(column int, cov index.Coverage) error {
	if err := t.engine.checkOpen(); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ix := t.indexes[column]
	if ix == nil {
		return fmt.Errorf("engine: column %d of %s: %w", column, t.name, ErrNoIndex)
	}
	t.beginMutate()
	defer t.endMutate()
	defer t.publishReadLocked()
	if _, err := ix.Rebuild(cov, t.heap); err != nil {
		return err
	}
	if t.buffers[column] == nil {
		return nil
	}
	t.engine.space.DropBuffer(t.bufferName(column))
	uncovered := make([]int, t.heap.NumPages())
	err := t.heap.Scan(func(rid storage.RID, tu storage.Tuple) error {
		if !cov.Covers(tu.Value(column)) {
			uncovered[rid.Page]++
		}
		return nil
	})
	if err != nil {
		return err
	}
	b, err := t.engine.space.CreateBufferFor(t.bufferName(column), uncovered, t.tenant)
	if err != nil {
		return err
	}
	t.buffers[column] = b
	return nil
}

// InsertCtx adds a tuple, maintaining every index and Index Buffer. On
// WAL-backed engines the operation is durable when InsertCtx returns
// (per the sync policy): the record carries the dirtied page's full
// image, and Commit blocks until the log reaches stable storage. ctx
// carries the statement: a flight-recorded statement attributes the WAL
// commit latency and group-commit batch to its record. The insert
// itself does not honor cancellation (a started mutation always
// completes and commits).
func (t *Table) InsertCtx(ctx context.Context, tu storage.Tuple) (storage.RID, error) {
	if err := t.engine.checkOpen(); err != nil {
		return storage.InvalidRID, err
	}
	if err := t.engine.walError(); err != nil {
		return storage.InvalidRID, err
	}
	fa := t.engine.flightActive(ctx)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.beginMutate()
	rid, err := t.heap.Insert(tu)
	if err != nil {
		t.endMutate()
		return storage.InvalidRID, err
	}
	for col, ix := range t.indexes {
		v := tu.Value(col)
		inIX := ix.Covers(v)
		if inIX {
			ix.Add(v, rid)
		}
		if b := t.buffers[col]; b != nil {
			b.MaintainInsert(v, rid, inIX)
		}
	}
	// The seqlock window closes here, before the WAL append: the heap,
	// indexes and buffers already carry the final state, so lock-free
	// readers may proceed while this operation waits out its fsync —
	// exactly the reader/writer convoy the epoch read path removes.
	t.endMutate()
	// The dirtied page is still resident (nothing fetched since the heap
	// write), so the image capture is a pool hit; see wal.go for why the
	// record must precede any eviction of that page.
	if err := t.logDML(fa, wal.KindInsert, rid, storage.InvalidRID, rid.Page); err != nil {
		return rid, err
	}
	return rid, nil
}

// Get fetches the tuple at rid.
func (t *Table) Get(rid storage.RID) (storage.Tuple, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.heap.Get(rid)
}

// DeleteCtx removes the tuple at rid, maintaining indexes and buffers.
// Durable on return for WAL-backed engines; see InsertCtx.
func (t *Table) DeleteCtx(ctx context.Context, rid storage.RID) error {
	if err := t.engine.checkOpen(); err != nil {
		return err
	}
	if err := t.engine.walError(); err != nil {
		return err
	}
	fa := t.engine.flightActive(ctx)
	t.mu.Lock()
	defer t.mu.Unlock()
	old, err := t.heap.Get(rid)
	if err != nil {
		return err
	}
	t.beginMutate()
	if err := t.heap.Delete(rid); err != nil {
		t.endMutate()
		return err
	}
	for col, ix := range t.indexes {
		v := old.Value(col)
		wasInIX := ix.Covers(v)
		if wasInIX {
			ix.Remove(v, rid)
		}
		if b := t.buffers[col]; b != nil {
			b.MaintainDelete(v, rid, wasInIX)
		}
	}
	t.endMutate() // before the WAL append; see InsertCtx
	return t.logDML(fa, wal.KindDelete, rid, storage.InvalidRID, rid.Page)
}

// UpdateCtx replaces the tuple at rid, returning the possibly relocated
// RID and maintaining indexes and buffers per the paper's Table I.
// Durable on return for WAL-backed engines; see InsertCtx.
func (t *Table) UpdateCtx(ctx context.Context, rid storage.RID, tu storage.Tuple) (storage.RID, error) {
	if err := t.engine.checkOpen(); err != nil {
		return storage.InvalidRID, err
	}
	if err := t.engine.walError(); err != nil {
		return storage.InvalidRID, err
	}
	fa := t.engine.flightActive(ctx)
	t.mu.Lock()
	defer t.mu.Unlock()
	old, err := t.heap.Get(rid)
	if err != nil {
		return storage.InvalidRID, err
	}
	// Pin the pre-image page for the duration of the operation. A
	// relocating update dirties the old page and then allocates into
	// others; without the pin those fetches could evict the dirty old
	// page — writing it to the store before its log record exists, the
	// one ordering the write-ahead rule forbids (a crash in that window
	// would lose the tuple: gone from the old page, never logged into
	// the new one).
	var oldFrame *buffer.Frame
	if t.engine.wal != nil {
		oldFrame, err = t.pool.Fetch(rid.Page)
		if err != nil {
			return storage.InvalidRID, err
		}
		defer t.pool.Unpin(oldFrame)
	}
	t.beginMutate()
	newRID, err := t.heap.Update(rid, tu)
	if err != nil {
		t.endMutate()
		return storage.InvalidRID, err
	}
	for col, ix := range t.indexes {
		oldV, newV := old.Value(col), tu.Value(col)
		oldIn, newIn := ix.Covers(oldV), ix.Covers(newV)
		ix.Update(oldV, newV, rid, newRID)
		if b := t.buffers[col]; b != nil {
			b.MaintainUpdate(oldV, newV, rid, newRID, oldIn, newIn)
		}
	}
	t.endMutate() // before the WAL append; see InsertCtx
	if err := t.logDML(fa, wal.KindUpdate, newRID, rid, rid.Page, newRID.Page); err != nil {
		return newRID, err
	}
	return newRID, nil
}

// Scan iterates every live tuple (a raw full scan, no buffer effects).
func (t *Table) Scan(fn func(storage.RID, storage.Tuple) error) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.heap.Scan(fn)
}

// Count returns the live tuple count.
func (t *Table) Count() (int, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	err := t.heap.Scan(func(storage.RID, storage.Tuple) error { n++; return nil })
	return n, err
}

// QueryEqualCtx answers column = key: the range [key, key].
func (t *Table) QueryEqualCtx(ctx context.Context, column int, key storage.Value) ([]exec.Match, exec.QueryStats, error) {
	return t.QueryRangeCtx(ctx, column, key, key)
}

// QueryRangeCtx answers lo <= column <= hi through the best available
// access path, maintaining the Index Buffer machinery as a side effect.
// The partial index serves the query only when its predicate covers the
// whole interval. A long indexing or full scan checks ctx between page
// reads and returns ctx.Err().
//
// Locking: the query is first planned under the table's read lock. A
// partial-index hit or a plain full scan executes right there — multiple
// such readers run in parallel, and no engine-wide exclusive lock is
// taken. Only a buffer miss that needs an indexing scan (a mutation of
// the Index Buffer) goes through the scan-sharing admission layer, where
// it either leads its own exclusive-lock scan or attaches to one already
// forming on the same column (see queryShared); the plan is implicitly
// re-validated because exec.ExecuteShared re-dispatches on the state it
// finds under the write lock.
func (t *Table) QueryRangeCtx(ctx context.Context, column int, lo, hi storage.Value) ([]exec.Match, exec.QueryStats, error) {
	matches, stats, err := t.queryRangeCtx(ctx, column, lo, hi)
	if err == nil {
		// Best-effort query record (no Commit; rides the next fsync) so
		// recovery can replay the workload tail and re-warm the buffers.
		t.logQuery(column, lo, hi)
	}
	return matches, stats, err
}

func (t *Table) queryRangeCtx(ctx context.Context, column int, lo, hi storage.Value) ([]exec.Match, exec.QueryStats, error) {
	if err := t.engine.checkOpen(); err != nil {
		return nil, exec.QueryStats{}, err
	}

	// Epoch-based lock-free hit path first; only probes the immutable
	// snapshots cannot answer fall through to the lock (readpath.go).
	if !t.engine.cfg.DisableEpochReadPath {
		if m, stats, ok := t.fastQuery(ctx, column, lo, hi); ok {
			return m, stats, nil
		}
	}

	t.mu.RLock()
	a, err := t.accessLocked(column, t.observer(ctx, column))
	if err != nil {
		t.mu.RUnlock()
		return nil, exec.QueryStats{}, err
	}
	if !a.NeedsIndexingScanRange(lo, hi) {
		defer t.mu.RUnlock()
		return t.runRange(ctx, a, column, lo, hi)
	}
	if degrade, err := t.admitMiss(&a); err != nil {
		t.mu.RUnlock()
		return nil, exec.QueryStats{}, err
	} else if degrade {
		defer t.mu.RUnlock()
		return t.runRange(ctx, a, column, lo, hi)
	}
	t.mu.RUnlock()

	return t.queryShared(ctx, column, lo, hi)
}

// runRange executes a query that mutates no Index Buffer — a hit, a full
// scan or a quota-degraded scan — under the caller's read lock.
func (t *Table) runRange(ctx context.Context, a exec.Access, column int, lo, hi storage.Value) ([]exec.Match, exec.QueryStats, error) {
	matches, stats, err := exec.Range(ctx, a, lo, hi)
	if err == nil {
		t.observe(ctx, column, stats, false)
	}
	return matches, stats, err
}

// ExplainRange plans lo <= column <= hi without executing or mutating
// state.
func (t *Table) ExplainRange(column int, lo, hi storage.Value) (exec.Plan, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	a, err := t.accessLocked(column, nil)
	if err != nil {
		return exec.Plan{}, err
	}
	return exec.ExplainRange(a, lo, hi), nil
}

// accessLocked builds the column's access path; obs receives the scan's
// adaptive events (nil while observation is off, or for a plan only).
func (t *Table) accessLocked(column int, obs core.Observer) (exec.Access, error) {
	if err := t.checkColumn(column); err != nil {
		return exec.Access{}, err
	}
	return exec.Access{
		Table:       t.heap,
		Column:      column,
		Index:       t.indexes[column],
		Buffer:      t.buffers[column],
		Space:       t.engine.space,
		Parallelism: t.engine.cfg.ScanParallelism,
		Observer:    obs,
	}, nil
}

// observe reports one successful query's outcome to every per-query
// observer: the parallel-scan counters, the tracer and — while the
// engine is observing — the adaptation timeline and the statement's
// flight record, all under one mechanism name (trace.Mechanism). The
// fast-hit, locked and shared paths all call it once per query, on the
// query's own goroutine (the flight record belongs to that goroutine's
// statement). follower marks a query that rode along on another's
// shared scan.
//
// The timeline resolves the column's buffer from the published
// readState, which is safe with no table lock held; the timeline
// recorder's lock is a strict leaf and dirty buffers are resolved
// through the Space (Space.mu is below Table.mu in the documented
// order).
func (t *Table) observe(ctx context.Context, column int, stats exec.QueryStats, follower bool) {
	e := t.engine
	e.noteScanWorkers(stats)
	col := t.schema.Column(column).Name
	mech := trace.Mechanism(stats, follower)
	e.tracer.Record(t.name, col, mech, stats)
	if !e.observing.Load() {
		return
	}
	e.timeline.ObserveQuery(t.name, col, mech, t.read.Load().buffers[column], e.space.Buffer)
	flight.FromContext(ctx).Query(t.name, col, mech, stats.Matches, stats.PagesRead, stats.PagesSkipped, stats.QuotaDegraded)
}
