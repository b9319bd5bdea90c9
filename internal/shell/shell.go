package shell

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/flight"
	"repro/internal/index"
	"repro/internal/storage"
	"repro/internal/timeline"
)

// Aliases keep the rendering helpers readable.
type (
	engineMatch       = exec.Match
	engineStats       = exec.QueryStats
	engineConvergence = timeline.Convergence
)

// Shell evaluates commands against one engine, optionally scoped to one
// tenant: a tenant shell sees only the tenant's tables, buffers, query
// stats, timeline and slow statements, and its tables charge the
// tenant's Index-Buffer quota. A Shell holds no mutable state —
// isolation comes entirely from the engine — so concurrent EvalCtx calls
// on one Shell are safe; the statements race exactly as the underlying
// engine operations would.
type Shell struct {
	eng    *engine.Engine
	tenant *core.Tenant // nil = default tenant
}

// New creates a shell over the engine, scoped to the default tenant.
func New(eng *engine.Engine) *Shell { return &Shell{eng: eng} }

// NewTenant creates a shell scoped to tn (nil = default tenant).
func NewTenant(eng *engine.Engine, tn *core.Tenant) *Shell {
	return &Shell{eng: eng, tenant: tn}
}

// Result is the outcome of one command.
type Result struct {
	Output string           // human-readable response, possibly multi-line
	Rows   int              // rows returned (SELECT) or affected (INSERT/DELETE/UPDATE)
	Stats  *exec.QueryStats // execution stats of a SELECT, else nil
	Quit   bool             // the user asked to leave
}

// EvalCtx parses and executes one command line. Empty lines and comments
// (lines starting with --) are no-ops. ctx is checked up front and
// threaded into the query paths (SELECT, the lookups of DELETE and
// UPDATE, and DML WAL commits), so a long scan is abandoned between page
// reads when the caller gives up.
//
// While the engine is observing, every non-empty statement gets a
// flight record: the trace ID is taken from ctx (a wire client may have
// supplied one) or minted here, and the completed record — span tree,
// mechanism, WAL commit latency, duration, error — lands in the
// recorder's rings when the statement finishes.
func (s *Shell) EvalCtx(ctx context.Context, line string) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	trimmed := strings.TrimSpace(line)
	if trimmed == "" || strings.HasPrefix(trimmed, "--") {
		return Result{}, nil
	}
	if s.eng.Observing() {
		fr := s.eng.Flight()
		var act *flight.Active
		act, ctx = fr.Begin(ctx, s.tenantName(), trimmed)
		res, err := s.evalCtx(ctx, trimmed)
		fr.Complete(act, err)
		return res, err
	}
	return s.evalCtx(ctx, trimmed)
}

// tenantName labels the shell's tenant for flight records.
func (s *Shell) tenantName() string {
	if s.tenant != nil {
		return s.tenant.Name()
	}
	return "default"
}

// evalCtx dispatches one trimmed, non-empty statement.
func (s *Shell) evalCtx(ctx context.Context, trimmed string) (Result, error) {
	toks, err := lex(trimmed)
	if err != nil {
		return Result{}, err
	}
	p := &parser{toks: toks}
	head, err := p.next()
	if err != nil {
		return Result{}, err
	}
	if head.kind != tokWord {
		return Result{}, fmt.Errorf("commands start with a keyword, got %q", head.text)
	}
	switch head.text {
	case "EXIT", "QUIT":
		return Result{Output: "bye", Quit: true}, nil
	case "HELP":
		return Result{Output: helpText}, nil
	case "CREATE":
		return s.evalCreate(p)
	case "INSERT":
		return s.evalInsert(ctx, p)
	case "DELETE":
		return s.evalDelete(ctx, p)
	case "UPDATE":
		return s.evalUpdate(ctx, p)
	case "SELECT":
		return s.evalSelect(ctx, p, false)
	case "EXPLAIN":
		if err := p.word("SELECT"); err != nil {
			return Result{}, err
		}
		return s.evalSelect(ctx, p, true)
	case "DROP":
		if err := p.word("INDEX"); err != nil {
			return Result{}, err
		}
		if err := p.word("ON"); err != nil {
			return Result{}, err
		}
		tname, err := p.ident()
		if err != nil {
			return Result{}, err
		}
		t, err := s.table(tname)
		if err != nil {
			return Result{}, err
		}
		if err := p.punct("("); err != nil {
			return Result{}, err
		}
		cname, err := p.ident()
		if err != nil {
			return Result{}, err
		}
		col, err := column(t, cname)
		if err != nil {
			return Result{}, err
		}
		if err := p.punct(")"); err != nil {
			return Result{}, err
		}
		if err := t.DropIndex(col); err != nil {
			return Result{}, err
		}
		return Result{Output: fmt.Sprintf("dropped index on %s(%s)", tname, cname)}, nil
	case "SHOW":
		return s.evalShow(p)
	case "VACUUM":
		tname, err := p.ident()
		if err != nil {
			return Result{}, err
		}
		t, err := s.table(tname)
		if err != nil {
			return Result{}, err
		}
		before, after, err := t.Vacuum()
		if err != nil {
			return Result{}, err
		}
		return Result{Output: fmt.Sprintf("vacuumed %s: %d -> %d pages", tname, before, after)}, nil
	case "SAVE":
		if err := s.eng.Save(); err != nil {
			return Result{}, err
		}
		return Result{Output: "database saved"}, nil
	default:
		return Result{}, fmt.Errorf("unknown command %q (try HELP)", head.text)
	}
}

const helpText = `commands:
  CREATE TABLE name (col INT|VARCHAR, ...)
  CREATE PARTIAL INDEX ON table (col) COVERING lo TO hi
  CREATE PARTIAL INDEX ON table (col) COVERING (v1, v2, ...)
  DROP INDEX ON table (col)
  INSERT INTO table VALUES (v1, ...) [, (v1, ...) ...]
  DELETE FROM table WHERE col = value
  UPDATE table SET col = value WHERE col = value
  SELECT * FROM table WHERE col = value
  SELECT * FROM table WHERE col BETWEEN lo AND hi
  EXPLAIN SELECT * FROM table WHERE ...
  SHOW TABLES | SHOW BUFFERS | SHOW INDEXES | SHOW STATS | SHOW TIMELINE
  SHOW SLOW [n]   (slowest captured statements from the flight recorder)
  VACUUM table
  SAVE   (persist a DataDir-backed database)
  HELP | EXIT`

// table resolves a table name within the shell's tenant.
func (s *Shell) table(name string) (*engine.Table, error) {
	t := s.eng.TableFor(s.tenant, name)
	if t == nil {
		return nil, fmt.Errorf("no table %q", name)
	}
	return t, nil
}

// column resolves a column name within a table.
func column(t *engine.Table, name string) (int, error) {
	i := t.Schema().ColumnIndex(name)
	if i < 0 {
		return 0, fmt.Errorf("table %s has no column %q", t.Name(), name)
	}
	return i, nil
}

// value consumes a literal token and parses it into a storage value.
func (p *parser) value() (storage.Value, error) {
	t, err := p.next()
	if err != nil {
		return storage.Value{}, err
	}
	switch t.kind {
	case tokNumber:
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return storage.Value{}, fmt.Errorf("bad number %q", t.text)
		}
		return storage.Int64Value(n), nil
	case tokString:
		return storage.StringValue(t.text), nil
	default:
		return storage.Value{}, fmt.Errorf("expected a literal, got %q", t.text)
	}
}

func (s *Shell) evalCreate(p *parser) (Result, error) {
	t, err := p.next()
	if err != nil {
		return Result{}, err
	}
	switch t.text {
	case "TABLE":
		return s.evalCreateTable(p)
	case "PARTIAL":
		if err := p.word("INDEX"); err != nil {
			return Result{}, err
		}
		return s.evalCreateIndex(p)
	default:
		return Result{}, fmt.Errorf("CREATE %s not supported (want TABLE or PARTIAL INDEX)", t.text)
	}
}

func (s *Shell) evalCreateTable(p *parser) (Result, error) {
	name, err := p.ident()
	if err != nil {
		return Result{}, err
	}
	if err := p.punct("("); err != nil {
		return Result{}, err
	}
	var cols []storage.Column
	for {
		cname, err := p.ident()
		if err != nil {
			return Result{}, err
		}
		kind, err := p.next()
		if err != nil {
			return Result{}, err
		}
		var k storage.Kind
		switch kind.text {
		case "INT", "INTEGER", "BIGINT":
			k = storage.KindInt64
		case "VARCHAR", "TEXT", "STRING":
			k = storage.KindString
		default:
			return Result{}, fmt.Errorf("unknown type %q (want INT or VARCHAR)", kind.text)
		}
		cols = append(cols, storage.Column{Name: cname, Kind: k})
		sep, err := p.next()
		if err != nil {
			return Result{}, err
		}
		if sep.text == ")" {
			break
		}
		if sep.text != "," {
			return Result{}, fmt.Errorf("expected , or ) in column list, got %q", sep.text)
		}
	}
	schema, err := storage.NewSchema(cols...)
	if err != nil {
		return Result{}, err
	}
	if _, err := s.eng.CreateTableFor(s.tenant, name, schema); err != nil {
		return Result{}, err
	}
	return Result{Output: fmt.Sprintf("created table %s %s", name, schema)}, nil
}

func (s *Shell) evalCreateIndex(p *parser) (Result, error) {
	if err := p.word("ON"); err != nil {
		return Result{}, err
	}
	tname, err := p.ident()
	if err != nil {
		return Result{}, err
	}
	t, err := s.table(tname)
	if err != nil {
		return Result{}, err
	}
	if err := p.punct("("); err != nil {
		return Result{}, err
	}
	cname, err := p.ident()
	if err != nil {
		return Result{}, err
	}
	col, err := column(t, cname)
	if err != nil {
		return Result{}, err
	}
	if err := p.punct(")"); err != nil {
		return Result{}, err
	}
	if err := p.word("COVERING"); err != nil {
		return Result{}, err
	}

	// Either "(v1, v2, ...)" or "lo TO hi".
	nxt, ok := p.peek()
	if !ok {
		return Result{}, fmt.Errorf("expected coverage after COVERING")
	}
	var cov index.Coverage
	if nxt.kind == tokPunct && nxt.text == "(" {
		p.pos++
		var vals []storage.Value
		for {
			v, err := p.value()
			if err != nil {
				return Result{}, err
			}
			vals = append(vals, v)
			sep, err := p.next()
			if err != nil {
				return Result{}, err
			}
			if sep.text == ")" {
				break
			}
			if sep.text != "," {
				return Result{}, fmt.Errorf("expected , or ) in value list, got %q", sep.text)
			}
		}
		cov = index.NewSetCoverage(vals...)
	} else {
		lo, err := p.value()
		if err != nil {
			return Result{}, err
		}
		if err := p.word("TO"); err != nil {
			return Result{}, err
		}
		hi, err := p.value()
		if err != nil {
			return Result{}, err
		}
		cov = index.RangeCoverage{Lo: lo, Hi: hi}
	}
	if err := t.CreatePartialIndex(col, cov); err != nil {
		return Result{}, err
	}
	return Result{Output: fmt.Sprintf("created partial index on %s(%s) covering %s", tname, cname, cov)}, nil
}

func (s *Shell) evalInsert(ctx context.Context, p *parser) (Result, error) {
	if err := p.word("INTO"); err != nil {
		return Result{}, err
	}
	tname, err := p.ident()
	if err != nil {
		return Result{}, err
	}
	t, err := s.table(tname)
	if err != nil {
		return Result{}, err
	}
	if err := p.word("VALUES"); err != nil {
		return Result{}, err
	}
	count := 0
	for {
		if err := p.punct("("); err != nil {
			return Result{}, err
		}
		var vals []storage.Value
		for {
			v, err := p.value()
			if err != nil {
				return Result{}, err
			}
			vals = append(vals, v)
			sep, err := p.next()
			if err != nil {
				return Result{}, err
			}
			if sep.text == ")" {
				break
			}
			if sep.text != "," {
				return Result{}, fmt.Errorf("expected , or ) in tuple, got %q", sep.text)
			}
		}
		if _, err := t.InsertCtx(ctx, storage.NewTuple(vals...)); err != nil {
			return Result{}, err
		}
		count++
		if p.done() {
			break
		}
		if err := p.punct(","); err != nil {
			return Result{}, err
		}
	}
	return Result{Output: fmt.Sprintf("inserted %d row(s)", count), Rows: count}, nil
}

// wherePredicate parses "WHERE col = literal" and returns the column
// ordinal and key.
func (s *Shell) wherePredicate(p *parser, t *engine.Table) (int, storage.Value, error) {
	if err := p.word("WHERE"); err != nil {
		return 0, storage.Value{}, err
	}
	cname, err := p.ident()
	if err != nil {
		return 0, storage.Value{}, err
	}
	col, err := column(t, cname)
	if err != nil {
		return 0, storage.Value{}, err
	}
	if err := p.punct("="); err != nil {
		return 0, storage.Value{}, err
	}
	key, err := p.value()
	if err != nil {
		return 0, storage.Value{}, err
	}
	return col, key, nil
}

func (s *Shell) evalDelete(ctx context.Context, p *parser) (Result, error) {
	if err := p.word("FROM"); err != nil {
		return Result{}, err
	}
	tname, err := p.ident()
	if err != nil {
		return Result{}, err
	}
	t, err := s.table(tname)
	if err != nil {
		return Result{}, err
	}
	col, key, err := s.wherePredicate(p, t)
	if err != nil {
		return Result{}, err
	}
	matches, _, err := t.QueryRangeCtx(ctx, col, key, key)
	if err != nil {
		return Result{}, err
	}
	for _, m := range matches {
		if err := t.DeleteCtx(ctx, m.RID); err != nil {
			return Result{}, err
		}
	}
	return Result{Output: fmt.Sprintf("deleted %d row(s)", len(matches)), Rows: len(matches)}, nil
}

func (s *Shell) evalUpdate(ctx context.Context, p *parser) (Result, error) {
	tname, err := p.ident()
	if err != nil {
		return Result{}, err
	}
	t, err := s.table(tname)
	if err != nil {
		return Result{}, err
	}
	if err := p.word("SET"); err != nil {
		return Result{}, err
	}
	setName, err := p.ident()
	if err != nil {
		return Result{}, err
	}
	setCol, err := column(t, setName)
	if err != nil {
		return Result{}, err
	}
	if err := p.punct("="); err != nil {
		return Result{}, err
	}
	newVal, err := p.value()
	if err != nil {
		return Result{}, err
	}
	col, key, err := s.wherePredicate(p, t)
	if err != nil {
		return Result{}, err
	}
	matches, _, err := t.QueryRangeCtx(ctx, col, key, key)
	if err != nil {
		return Result{}, err
	}
	for _, m := range matches {
		if err := t.Schema().Validate(m.Tuple.WithValue(setCol, newVal)); err != nil {
			return Result{}, err
		}
		if _, err := t.UpdateCtx(ctx, m.RID, m.Tuple.WithValue(setCol, newVal)); err != nil {
			return Result{}, err
		}
	}
	return Result{Output: fmt.Sprintf("updated %d row(s)", len(matches)), Rows: len(matches)}, nil
}

func (s *Shell) evalSelect(ctx context.Context, p *parser, explain bool) (Result, error) {
	if err := p.punct("*"); err != nil {
		return Result{}, err
	}
	if err := p.word("FROM"); err != nil {
		return Result{}, err
	}
	tname, err := p.ident()
	if err != nil {
		return Result{}, err
	}
	t, err := s.table(tname)
	if err != nil {
		return Result{}, err
	}
	if err := p.word("WHERE"); err != nil {
		return Result{}, err
	}
	cname, err := p.ident()
	if err != nil {
		return Result{}, err
	}
	col, err := column(t, cname)
	if err != nil {
		return Result{}, err
	}
	op, err := p.next()
	if err != nil {
		return Result{}, err
	}
	// A point predicate is the range [key, key].
	var lo, hi storage.Value
	switch {
	case op.kind == tokPunct && op.text == "=":
		if lo, err = p.value(); err != nil {
			return Result{}, err
		}
		hi = lo
	case op.kind == tokWord && op.text == "BETWEEN":
		if lo, err = p.value(); err != nil {
			return Result{}, err
		}
		if err := p.word("AND"); err != nil {
			return Result{}, err
		}
		if hi, err = p.value(); err != nil {
			return Result{}, err
		}
	default:
		return Result{}, fmt.Errorf("expected = or BETWEEN, got %q", op.text)
	}
	if explain {
		plan, err := t.ExplainRange(col, lo, hi)
		if err != nil {
			return Result{}, err
		}
		return Result{Output: plan.String()}, nil
	}
	matches, stats, err := t.QueryRangeCtx(ctx, col, lo, hi)
	if err != nil {
		return Result{}, err
	}
	rows := renderMatches(t, matches)

	var sb strings.Builder
	for _, r := range rows {
		sb.WriteString(r.line)
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "%d row(s) | %s", len(rows), statsString(stats))
	return Result{Output: sb.String(), Rows: len(rows), Stats: &stats}, nil
}

type rowOut struct{ line string }

// renderMatches formats result tuples, truncating long strings, in RID
// order for stable output.
func renderMatches(t *engine.Table, matches []engineMatch) []rowOut {
	sorted := append([]engineMatch(nil), matches...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].RID.Less(sorted[j].RID) })
	out := make([]rowOut, len(sorted))
	for i, m := range sorted {
		var sb strings.Builder
		fmt.Fprintf(&sb, "[%v]", m.RID)
		for c := 0; c < t.Schema().NumColumns(); c++ {
			v := m.Tuple.Value(c)
			text := v.String()
			if len(text) > 24 {
				text = text[:21] + `..."`
			}
			sb.WriteByte(' ')
			sb.WriteString(text)
		}
		out[i] = rowOut{line: sb.String()}
	}
	return out
}

func statsString(st engineStats) string {
	mech := "indexing scan"
	switch {
	case st.PartialHit:
		mech = "partial index hit"
	case st.FullScan:
		mech = "full scan"
	case st.QuotaDegraded:
		mech = "degraded scan (tenant over quota)"
	}
	return fmt.Sprintf("%s: %d pages read, %d skipped, %d buffer entries added",
		mech, st.PagesRead, st.PagesSkipped, st.EntriesAdded)
}

func (s *Shell) evalShow(p *parser) (Result, error) {
	what, err := p.next()
	if err != nil {
		return Result{}, err
	}
	switch what.text {
	case "BUFFERS":
		// A tenant session sees only its own buffers and its own ledger;
		// the default session sees everything plus the global occupancy.
		var sb strings.Builder
		n := 0
		for _, b := range s.eng.Space().Buffers() {
			if s.tenant != nil && b.Tenant() != s.tenant {
				continue
			}
			fmt.Fprintf(&sb, "%s: %d entries, %d partitions, %d pages buffered, benefit %.2f\n",
				b.Name(), b.EntryCount(), b.PartitionCount(), b.BufferedPages(), b.Benefit())
			n++
		}
		if n == 0 {
			return Result{Output: "no index buffers"}, nil
		}
		if s.tenant != nil {
			fmt.Fprintf(&sb, "tenant %s used: %d entries (quota %d, degraded %d)",
				s.tenant.Name(), s.tenant.Used(), s.tenant.Quota(), s.tenant.Degraded())
		} else {
			fmt.Fprintf(&sb, "space used: %d entries", s.eng.Space().Used())
		}
		return Result{Output: sb.String(), Rows: n}, nil
	case "TABLES":
		names := s.eng.TableNamesFor(s.tenant)
		if len(names) == 0 {
			return Result{Output: "no tables"}, nil
		}
		var sb strings.Builder
		for i, n := range names {
			if i > 0 {
				sb.WriteByte('\n')
			}
			t := s.eng.TableFor(s.tenant, n)
			fmt.Fprintf(&sb, "%s %s (%d pages)", n, t.Schema(), t.NumPages())
		}
		return Result{Output: sb.String(), Rows: len(names)}, nil
	case "STATS":
		return Result{Output: s.eng.Tracer().Report(s.ownsTable)}, nil
	case "TIMELINE":
		return s.showTimeline()
	case "SLOW":
		n := 10
		if !p.done() {
			nt, err := p.next()
			if err != nil {
				return Result{}, err
			}
			v, err := strconv.Atoi(nt.text)
			if err != nil || v <= 0 {
				return Result{}, fmt.Errorf("SHOW SLOW wants a positive count, got %q", nt.text)
			}
			n = v
		}
		return s.showSlow(n)
	case "INDEXES":
		var sb strings.Builder
		found := false
		for _, n := range s.eng.TableNamesFor(s.tenant) {
			t := s.eng.TableFor(s.tenant, n)
			for c := 0; c < t.Schema().NumColumns(); c++ {
				if ix := t.Index(c); ix != nil {
					if found {
						sb.WriteByte('\n')
					}
					found = true
					fmt.Fprintf(&sb, "%s: covering %s, %d entries", ix.Name(), ix.Coverage(), ix.EntryCount())
				}
			}
		}
		if !found {
			return Result{Output: "no indexes"}, nil
		}
		return Result{Output: sb.String()}, nil
	default:
		return Result{}, fmt.Errorf("SHOW %s not supported (want TABLES, BUFFERS, INDEXES, STATS, TIMELINE or SLOW)", what.text)
	}
}

// ownsTable reports whether a catalog table name belongs to the shell's
// tenant; the default session sees every table. SHOW STATS and SHOW
// TIMELINE filter by it, as SHOW BUFFERS filters by buffer owner.
func (s *Shell) ownsTable(name string) bool {
	return s.tenant == nil || strings.HasPrefix(name, s.tenant.Name()+":")
}

// showSlow renders the flight recorder's slow-query capture: the n
// slowest completed statements, slowest first. A tenant shell sees only
// its own statements.
func (s *Shell) showSlow(n int) (Result, error) {
	if !s.eng.Observing() {
		return Result{Output: "flight recorder is off (start aibserver, or call DB.Observe)"}, nil
	}
	fr := s.eng.Flight()
	recs := fr.Slow(n)
	if s.tenant != nil {
		kept := recs[:0]
		for _, r := range recs {
			if r.Tenant == s.tenant.Name() {
				kept = append(kept, r)
			}
		}
		recs = kept
	}
	if len(recs) == 0 {
		return Result{Output: fmt.Sprintf("no statements above the slow threshold (%s) yet", flight.DefaultSlowThreshold)}, nil
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-24s %-10s %10s %8s %6s %6s %8s  %s\n",
		"trace", "tenant", "ms", "mech", "rows", "pages", "wal_ms", "statement")
	for _, r := range recs {
		stmt := r.Stmt
		if len(stmt) > 48 {
			stmt = stmt[:45] + "..."
		}
		mech := r.Mechanism
		if mech == "" {
			mech = "-"
		}
		fmt.Fprintf(&sb, "%-24s %-10s %10.2f %8s %6d %6d %8.2f  %s\n",
			r.Trace, r.Tenant, float64(r.DurationNanos)/1e6, mech,
			r.Matches, r.PagesRead, float64(r.WALCommitNanos)/1e6, stmt)
	}
	fmt.Fprintf(&sb, "slow threshold %s; %d captured since start", flight.DefaultSlowThreshold, fr.Stats().Slow)
	return Result{Output: sb.String(), Rows: len(recs)}, nil
}

// showTimeline renders the adaptation timeline: one line per buffer
// with the latest coverage sample and the convergence verdict.
func (s *Shell) showTimeline() (Result, error) {
	if !s.eng.Observing() {
		return Result{Output: "timeline sampling is off (start aibshell with -listen, or call DB.Observe)"}, nil
	}
	tl := s.eng.Timeline()
	var series []timeline.Series
	for _, ser := range tl.Series() {
		if s.ownsTable(ser.Buffer) {
			series = append(series, ser)
		}
	}
	if len(series) == 0 {
		return Result{Output: "no timeline samples yet (run some queries)"}, nil
	}
	verdicts := make(map[string]engineConvergence, len(series))
	for _, c := range s.eng.Convergence() {
		verdicts[c.Buffer] = c
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-20s %8s %9s %10s %9s %10s %8s %8s\n",
		"buffer", "queries", "coverage", "converged", "entries", "bytes", "displ", "samples")
	for _, ser := range series {
		var last engineConvergence = verdicts[ser.Buffer]
		conv := "-"
		if last.Achieved {
			conv = fmt.Sprintf("@%d", last.QueriesToTarget)
			if last.Regressed {
				conv += "!"
			}
		}
		entries, bytes := 0, 0
		var displ uint64
		if n := len(ser.Samples); n > 0 {
			latest := ser.Samples[n-1]
			entries, bytes = latest.Entries, latest.Bytes
			displ = latest.Displacements
		}
		fmt.Fprintf(&sb, "%-20s %8d %8.1f%% %10s %9d %10d %8d %8d\n",
			ser.Buffer, last.Queries, 100*last.Coverage, conv, entries, bytes, displ, len(ser.Samples))
	}
	fmt.Fprintf(&sb, "coverage target %.0f%%; '@N' = converged at query N, '!' = regressed below target",
		100*tl.Target())
	return Result{Output: sb.String()}, nil
}
