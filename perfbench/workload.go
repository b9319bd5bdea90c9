package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"

	"repro"
)

// workload is one traffic mix: the table it loads, the partial indexes
// over it, and the statement stream each client connection sends.
type workload struct {
	name       string
	rows       int     // rows loaded at set-up
	payloadLen int     // bytes of the VARCHAR payload column
	indexed    int     // INT key columns: 1 (a) or 2 (a, b)
	domain     int64   // keys are drawn from [1, domain]
	covered    int64   // every partial index covers [1, covered]
	hitRate    float64 // share of SELECTs whose key is covered
	writeFrac  float64 // share of statements that are writes, half INSERT and half UPDATE
	flipEvery  int     // SELECTs per connection between hot-column flips (0 = column a only)
	durable    bool    // DataDir-backed with the WAL on (SyncBatch group commit)
	spaceLimit int     // Index Buffer Space entry limit (0 = unlimited)
	poolPages  int     // buffer-pool pages per table (0 = engine default, 256)
	warmup     int     // untimed stream statements per connection before the measured phase
	replay     int     // recorded statements of the serial traced replay
	setups     int     // set-ups per run; setup_s is their median
}

var workloads = []*workload{
	{
		name: "point-adapted", rows: 20000, payloadLen: 20, indexed: 1,
		domain: 1000, covered: 100, hitRate: 0.5,
		replay: 4000, setups: 9,
	},
	{
		name: "scan-churn", rows: 8000, payloadLen: 200, indexed: 2,
		domain: 1000, covered: 100, hitRate: 0.1, flipEvery: 100,
		spaceLimit: 4000, poolPages: 64, warmup: 100,
		replay: 800, setups: 9,
	},
	{
		name: "write-mixed", rows: 20000, payloadLen: 50, indexed: 1,
		domain: 100000, covered: 10000, hitRate: 0.5, writeFrac: 0.2, durable: true,
		warmup: 4000, replay: 4000, setups: 3,
	},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// conns is the number of closed-loop client connections of every run.
const conns = 2

// sideDomain bounds the keys of the side table w.
const sideDomain = 10000000

// sideShare is the part of a read-only mix's measured seconds spent on
// side-table writes.
const sideShare = 0.2

var columnNames = []string{"a", "b"}

// options are the database options of an instance. scanParallelism 0
// is the default (GOMAXPROCS workers per scan); the traced replay uses 1,
// because parallel scan workers interleave their buffer-pool fetches
// differently on every run and the replay's counts must repeat exactly.
func (w *workload) options(dataDir string, scanParallelism int) repro.Options {
	o := repro.Options{SpaceLimit: w.spaceLimit, PoolPages: w.poolPages, ScanParallelism: scanParallelism}
	if w.durable {
		o.DataDir = dataDir // the WAL is on by default, with SyncBatch
	}
	return o
}

// readOnly reports a mix without writes. It ends its measured phase
// with writes to a side table, so the write metrics exist on every
// workload.
func (w *workload) readOnly() bool { return w.writeFrac == 0 }

// pool is the effective buffer-pool size in pages.
func (w *workload) pool() int {
	if w.poolPages == 0 {
		return 256 // the engine default
	}
	return w.poolPages
}

func (w *workload) createTable() string {
	var sb strings.Builder
	sb.WriteString("CREATE TABLE t (")
	for c := 0; c < w.indexed; c++ {
		fmt.Fprintf(&sb, "%s INT, ", columnNames[c])
	}
	sb.WriteString("payload VARCHAR)")
	return sb.String()
}

func (w *workload) createIndexes() []string {
	out := make([]string, w.indexed)
	for c := range out {
		out[c] = fmt.Sprintf("CREATE PARTIAL INDEX ON t (%s) COVERING 1 TO %d", columnNames[c], w.covered)
	}
	return out
}

// sideDDL creates the side table that read-only mixes send their writes
// to, fully covered so an UPDATE's WHERE is an index hit and the table
// never draws on the Index Buffer Space.
var sideDDL = []string{
	"CREATE TABLE w (a INT, payload VARCHAR)",
	fmt.Sprintf("CREATE PARTIAL INDEX ON w (a) COVERING 1 TO %d", sideDomain),
}

// data is the generated table content: keys[i][c] is row i's key in
// indexed column c.
type data struct {
	keys    [][]int64
	payload []string
	counts  []map[int64]int // per indexed column: key -> rows
}

func payload(prefix string, i, n int) string {
	s := fmt.Sprintf("%s%d", prefix, i)
	if len(s) < n {
		s += strings.Repeat("x", n-len(s))
	}
	return s
}

func (w *workload) generate(seed int64) *data {
	rng := rand.New(rand.NewSource(seed))
	d := &data{keys: make([][]int64, w.rows), payload: make([]string, w.rows)}
	d.counts = make([]map[int64]int, w.indexed)
	for c := range d.counts {
		d.counts[c] = make(map[int64]int)
	}
	for i := range d.keys {
		d.keys[i] = make([]int64, w.indexed)
		for c := range d.keys[i] {
			k := rng.Int63n(w.domain) + 1
			d.keys[i][c] = k
			d.counts[c][k]++
		}
		d.payload[i] = payload("p", i, w.payloadLen)
	}
	return d
}

// loadBatch is the number of rows per multi-row INSERT at set-up.
const loadBatch = 500

// loadStatements renders the set-up INSERTs.
func (w *workload) loadStatements(d *data) []string {
	var out []string
	for lo := 0; lo < len(d.keys); lo += loadBatch {
		hi := min(lo+loadBatch, len(d.keys))
		var sb strings.Builder
		sb.WriteString("INSERT INTO t VALUES ")
		for i := lo; i < hi; i++ {
			if i > lo {
				sb.WriteString(", ")
			}
			sb.WriteByte('(')
			for _, k := range d.keys[i] {
				fmt.Fprintf(&sb, "%d, ", k)
			}
			fmt.Fprintf(&sb, "'%s')", d.payload[i])
		}
		out = append(out, sb.String())
	}
	return out
}

// class buckets statements for the latency metrics.
type class int

const (
	covered class = iota
	uncovered
	write
)

// stmt is one statement of a stream together with what a correct
// server answers.
type stmt struct {
	class  class
	text   string
	table  string
	col    int    // indexed column of the WHERE clause (SELECT, UPDATE)
	key    int64  // SELECT / UPDATE key, or the inserted key
	newKey int64  // UPDATE: the row's new column-a key
	insert bool   // write: INSERT rather than UPDATE
	pay    string // INSERT payload
	want   int    // rows returned or affected
	bytes  int    // write: encoded size of the stored tuple
}

// stream is one connection's statement generator. It keeps an exact
// model of the rows the connection can see: read-only mixes never
// change the table, and in mixes with writes each connection reads and
// writes only keys of its own residue class (key mod conns), so no
// other connection changes what it expects.
type stream struct {
	w       *workload
	conn    int
	rng     *rand.Rand
	counts  []map[int64]int
	selects *atomic.Int64 // SELECTs sent by all connections of the run
	writer  *writer       // writes to t (mixes with writes), else nil
}

func (w *workload) streams(d *data, seed int64) []*stream {
	out := make([]*stream, conns)
	selects := new(atomic.Int64)
	for c := range out {
		s := &stream{w: w, conn: c, rng: rand.New(rand.NewSource(seed + 1000*int64(c+1))), selects: selects}
		if w.writeFrac > 0 {
			// Private copy: this connection's UPDATEs and INSERTs move it.
			s.counts = []map[int64]int{make(map[int64]int)}
			var keys []int64
			for _, row := range d.keys {
				if owns(row[0], c) {
					s.counts[0][row[0]]++
					keys = append(keys, row[0])
				}
			}
			s.writer = &writer{table: "t", hi: w.domain, conn: c, counts: s.counts[0], keys: keys, payLen: w.payloadLen}
		} else {
			s.counts = d.counts // shared, never written
		}
		out[c] = s
	}
	return out
}

// owns reports whether key k is in connection c's residue class.
func owns(k int64, c int) bool { return int(k%conns) == c }

// ownKey moves k onto connection c's residue class within [1, hi].
func ownKey(k, hi int64, c int) int64 {
	k += int64(c) - k%conns
	if k < 1 {
		k += conns
	}
	if k > hi {
		k -= conns
	}
	return k
}

func (s *stream) next() stmt {
	w := s.w
	if s.writer != nil && s.rng.Float64() < w.writeFrac {
		return s.writer.next(s.rng)
	}
	// The hot column flips for all connections at once, after every
	// flipEvery SELECTs per connection, so the connections compete with
	// each other's column only across a flip.
	n := s.selects.Add(1) - 1
	col := 0
	if w.flipEvery > 0 {
		col = int(n/int64(w.flipEvery*conns)) % w.indexed
	}
	var k int64
	if s.rng.Float64() < w.hitRate {
		k = s.rng.Int63n(w.covered) + 1
	} else {
		k = w.covered + 1 + s.rng.Int63n(w.domain-w.covered)
	}
	if s.writer != nil {
		k = ownKey(k, w.domain, s.conn)
	}
	cl := uncovered
	if k <= w.covered {
		cl = covered
	}
	return stmt{
		class: cl, table: "t", col: col, key: k, want: s.counts[col][k],
		text: fmt.Sprintf("SELECT * FROM t WHERE %s = %d", columnNames[col], k),
	}
}

// warmupStmts are run serially before timing starts: one uncovered
// SELECT per indexed column, which lets the first indexing scans run
// outside the measured phase.
func (w *workload) warmupStmts(d *data) []stmt {
	out := make([]stmt, w.indexed)
	for c := range out {
		k := w.covered + 1
		out[c] = stmt{
			class: uncovered, table: "t", col: c, key: k, want: d.counts[c][k],
			text: fmt.Sprintf("SELECT * FROM t WHERE %s = %d", columnNames[c], k),
		}
	}
	return out
}

// writer generates single-row INSERTs and UPDATEs over keys [1, hi] of
// its connection's residue class, keeping counts exact.
type writer struct {
	table  string
	hi     int64
	conn   int
	counts map[int64]int
	keys   []int64 // keys of the class's rows, one entry per row
	payLen int
	seq    int
}

// sideStream returns the statement source of the side-table writes:
// one writer and one random stream per connection.
func sideStream(seed int64) func(conn int) stmt {
	ws := make([]*writer, conns)
	rngs := make([]*rand.Rand, conns)
	for c := range ws {
		ws[c] = &writer{table: "w", hi: sideDomain, conn: c, counts: make(map[int64]int), payLen: 50}
		rngs[c] = rand.New(rand.NewSource(seed + 77 + int64(c)))
	}
	return func(conn int) stmt { return ws[conn].next(rngs[conn]) }
}

// tupleBytes is the encoded size of a written (a INT, payload VARCHAR)
// row: 8 bytes of INT, then a 2-byte length and the payload.
func (wr *writer) tupleBytes() int { return 8 + 2 + wr.payLen }

// freshKey draws a key of the class that no row holds yet.
func (wr *writer) freshKey(rng *rand.Rand) int64 {
	for {
		k := ownKey(rng.Int63n(wr.hi)+1, wr.hi, wr.conn)
		if wr.counts[k] == 0 {
			return k
		}
	}
}

func (wr *writer) next(rng *rand.Rand) stmt {
	wr.seq++
	if rng.Intn(2) == 0 && len(wr.keys) > 0 {
		// UPDATE moves one row to a fresh key. Only a key held by exactly
		// one row qualifies, so the statement is single-row.
		for try := 0; try < 16; try++ {
			i := rng.Intn(len(wr.keys))
			old := wr.keys[i]
			if wr.counts[old] != 1 {
				continue
			}
			k := wr.freshKey(rng)
			delete(wr.counts, old)
			wr.counts[k] = 1
			wr.keys[i] = k
			return stmt{
				class: write, table: wr.table, key: old, newKey: k, want: 1, bytes: wr.tupleBytes(),
				text: fmt.Sprintf("UPDATE %s SET a = %d WHERE a = %d", wr.table, k, old),
			}
		}
	}
	k := ownKey(rng.Int63n(wr.hi)+1, wr.hi, wr.conn)
	wr.counts[k]++
	wr.keys = append(wr.keys, k)
	pay := payload(fmt.Sprintf("c%dw", wr.conn), wr.seq, wr.payLen)
	return stmt{
		class: write, table: wr.table, key: k, insert: true, pay: pay, want: 1, bytes: wr.tupleBytes(),
		text: fmt.Sprintf("INSERT INTO %s VALUES (%d, '%s')", wr.table, k, pay),
	}
}
