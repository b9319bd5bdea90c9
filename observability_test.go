package repro

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// newObsDB builds a small database with a partial index and runs a hit
// and a miss so every monitor has data.
func newObsDB(t *testing.T) *DB {
	t.Helper()
	db := MustOpen(Options{})
	tb, err := db.CreateTable("t", Int64Column("a"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if _, err := tb.Insert(int64(i % 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.CreatePartialRangeIndex("a", 0, 20); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tb.Query("a", 5); err != nil { // hit
		t.Fatal(err)
	}
	if _, _, err := tb.Query("a", 60); err != nil { // miss: indexing scan
		t.Fatal(err)
	}
	return db
}

func TestDBTraceEvents(t *testing.T) {
	db := MustOpen(Options{})
	tb, err := db.CreateTable("t", Int64Column("a"), Int64Column("b"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if _, err := tb.Insert(int64(i%100), int64(i%100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.CreatePartialRangeIndex("a", 0, 20); err != nil {
		t.Fatal(err)
	}
	if err := tb.CreatePartialRangeIndex("b", 0, 20); err != nil {
		t.Fatal(err)
	}

	if _, _, err := tb.Query("a", 60); err != nil {
		t.Fatal(err)
	}
	if n := len(db.TraceEvents()); n != 0 {
		t.Fatalf("%d trace events recorded while disabled", n)
	}

	// The miss on b runs a fresh indexing scan, so the enabled path sees
	// the full span sequence: admission, leadership, page selection and
	// page completion.
	db.Observe(true)
	if _, _, err := tb.Query("b", 70); err != nil {
		t.Fatal(err)
	}
	events := db.TraceEvents()
	if len(events) == 0 {
		t.Fatal("no trace events after Observe(true)")
	}
	kinds := make(map[string]bool)
	for _, ev := range events {
		kinds[ev.Kind] = true
		if ev.Seq == 0 {
			t.Error("span with zero sequence number")
		}
	}
	for _, want := range []string{"miss-admit", "scan-lead", "page-select", "page-complete"} {
		if !kinds[want] {
			t.Errorf("missing span kind %q (got %v)", want, kinds)
		}
	}
}

func TestDBLatencyStats(t *testing.T) {
	db := newObsDB(t)
	byMech := make(map[string]int)
	for _, l := range db.LatencyStats() {
		byMech[l.Mechanism] = l.Count
	}
	if byMech["hit"] != 1 || byMech["indexing-scan"] != 1 {
		t.Errorf("latency counts = %v, want one hit and one indexing-scan", byMech)
	}
}

func TestDBMetricsHandler(t *testing.T) {
	db := newObsDB(t)

	var sb strings.Builder
	if err := db.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "aib_shared_scan_misses_total 1") {
		t.Errorf("WriteMetrics output missing shared-scan counter:\n%s", sb.String())
	}

	srv := httptest.NewServer(db.MetricsHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /metrics status %d", resp.StatusCode)
	}
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	body := string(buf[:n])
	for _, want := range []string{
		`aib_queries_total{table="t",column="a"} 2`,
		`aib_buffer_entries{buffer="t.a",tenant=""}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n---\n%s", want, body)
		}
	}
}

// execOK runs one statement through the front door and fails the test on
// error.
func execOK(t *testing.T, db *DB, stmt string) ExecResult {
	t.Helper()
	r, err := db.Exec(context.Background(), stmt)
	if err != nil {
		t.Fatalf("Exec(%q): %v", stmt, err)
	}
	return r
}

// TestFlightRecorderE2E drives statements through DB.Exec against a
// DataDir-backed database and checks the flight recorder captured them:
// minted trace IDs, query attribution, WAL commit accounting on DML,
// slow capture, SHOW SLOW rendering and the FlightRecords filter.
func TestFlightRecorderE2E(t *testing.T) {
	db := MustOpen(Options{DataDir: t.TempDir()})
	defer db.Close()
	db.Observe(true)

	execOK(t, db, "CREATE TABLE t (a INT, b VARCHAR)")
	execOK(t, db, "CREATE PARTIAL INDEX ON t (a) COVERING 1 TO 20")
	for i := 0; i < 120; i++ {
		execOK(t, db, fmt.Sprintf("INSERT INTO t VALUES (%d, 'p%d')", i%40+1, i))
	}
	execOK(t, db, "SELECT * FROM t WHERE a = 30") // miss: indexing scan

	recs := db.RecentQueries(0)
	if len(recs) < 120 {
		t.Fatalf("recent ring holds %d records, want >= 120", len(recs))
	}
	sel := recs[0] // newest first: the SELECT
	if sel.Stmt != "SELECT * FROM t WHERE a = 30" || sel.Tenant != "default" {
		t.Fatalf("newest record is not the SELECT: %+v", sel)
	}
	if !strings.HasPrefix(sel.Trace, "aib-") {
		t.Errorf("embedded statement did not get a minted trace ID: %q", sel.Trace)
	}
	if sel.Table != "t" || sel.Column != "a" || sel.Mechanism != "indexing-scan" {
		t.Errorf("query attribution wrong: %+v", sel)
	}
	if sel.PagesRead == 0 || len(sel.Spans) == 0 {
		t.Errorf("SELECT record has no page/span detail: %+v", sel)
	}
	ins := recs[1] // an INSERT: durable on return, so WAL time was spent
	if ins.WALCommitNanos <= 0 || ins.WALBatch < 1 {
		t.Errorf("DML record missing WAL commit accounting: %+v", ins)
	}
	if sel.WALCommitNanos != 0 {
		t.Errorf("read-only record charged WAL time: %+v", sel)
	}

	// FlightRecords resolves the SELECT by its minted trace ID.
	byTrace := db.FlightRecords(sel.Trace, "", 0, 0)
	if len(byTrace) != 1 || byTrace[0].Seq != sel.Seq {
		t.Fatalf("FlightRecords(trace) = %+v, want exactly the SELECT", byTrace)
	}

	if st := db.FlightStats(); !st.Enabled || st.Completed < 123 {
		t.Errorf("FlightStats = %+v", st)
	}

	// A statement of at least the 10ms slow threshold is captured as slow
	// and SHOW SLOW renders it: with a 2-page pool and 1ms per device
	// read, a full scan of 16 pages takes at least 16ms.
	sdb := MustOpen(Options{PoolPages: 2, ReadLatency: time.Millisecond})
	defer sdb.Close()
	sdb.Observe(true)
	stb, err := sdb.CreateTable("s", Int64Column("a"), StringColumn("pad"))
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("p", 500)
	for i := 0; i < 256; i++ {
		if _, err := stb.Insert(int64(i), pad); err != nil {
			t.Fatal(err)
		}
	}
	if n := stb.NumPages(); n < 16 {
		t.Fatalf("slow table has %d pages, want >= 16", n)
	}
	execOK(t, sdb, "SELECT * FROM s WHERE a = 5") // no index: full scan
	if len(sdb.SlowQueries(0)) == 0 {
		t.Fatal("no slow capture of a >= 16ms statement")
	}
	out := execOK(t, sdb, "SHOW SLOW 5").Output
	if !strings.Contains(out, "SELECT * FROM s WHERE a = 5") {
		t.Errorf("SHOW SLOW does not list the slow SELECT:\n%s", out)
	}
	if !strings.Contains(out, "trace") || !strings.Contains(out, "wal_ms") {
		t.Errorf("SHOW SLOW header missing:\n%s", out)
	}
	if st := sdb.FlightStats(); !st.Enabled || st.Slow == 0 {
		t.Errorf("FlightStats = %+v", st)
	}
}

// TestObserveRoundTrip drives the one observation switch through the
// statement API. Off (the default), Exec leaves no flight record,
// counter, span or timeline sample behind and SHOW SLOW reports the
// recorder off. After Observe(true) an uncovered SELECT leaves spans in
// the global ring, a timeline series, and a flight record whose spans
// include page-select and page-complete — each event recorded once, in
// the ring under the record's trace ID and in the record. After
// Observe(false) none of the three grows.
func TestObserveRoundTrip(t *testing.T) {
	db := MustOpen(Options{})
	defer db.Close()
	tb, err := db.CreateTable("t", Int64Column("a"), Int64Column("b"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if _, err := tb.Insert(int64(i%100), int64(i%100)); err != nil {
			t.Fatal(err)
		}
	}
	for _, col := range []string{"a", "b"} {
		if err := tb.CreatePartialRangeIndex(col, 0, 20); err != nil {
			t.Fatal(err)
		}
	}
	samples := func() (n int) {
		for _, ser := range db.Timeline() {
			n += len(ser.Samples)
		}
		return n
	}

	if db.Observing() {
		t.Fatal("observation on by default")
	}
	execOK(t, db, "SELECT * FROM t WHERE a = 5")
	if n := len(db.RecentQueries(0)); n != 0 {
		t.Fatalf("recorder captured %d records while off", n)
	}
	if st := db.FlightStats(); st.Enabled || st.Completed != 0 {
		t.Fatalf("recorder counted while off: %+v", st)
	}
	if n, m := len(db.TraceEvents()), samples(); n != 0 || m != 0 {
		t.Fatalf("%d spans, %d timeline samples while off", n, m)
	}
	if out := execOK(t, db, "SHOW SLOW").Output; !strings.Contains(out, "off") {
		t.Errorf("SHOW SLOW while off = %q, want an off notice", out)
	}

	db.Observe(true)
	if !db.Observing() || !db.FlightStats().Enabled {
		t.Fatal("Observe(true) did not turn observation on")
	}
	execOK(t, db, "SELECT * FROM t WHERE a = 60") // uncovered: indexing scan
	recs := db.RecentQueries(0)
	if len(recs) != 1 {
		t.Fatalf("recorder captured %d records, want 1", len(recs))
	}
	rec := recs[0]
	kinds := make(map[string]int)
	for _, sp := range rec.Spans {
		kinds[sp.Kind]++
	}
	if kinds["page-select"] != 1 || kinds["page-complete"] == 0 {
		t.Errorf("flight record spans = %v, want one page-select and page-completes", kinds)
	}
	traced := 0
	for _, ev := range db.TraceEvents() {
		if ev.Trace == rec.Trace {
			traced++
		}
	}
	if traced == 0 || traced != len(rec.Spans) {
		t.Errorf("%d ring spans carry trace %q, the record holds %d", traced, rec.Trace, len(rec.Spans))
	}
	if len(db.Timeline()) == 0 {
		t.Error("no timeline series after an observed query")
	}

	db.Observe(false)
	spans, sampled, records := len(db.TraceEvents()), samples(), len(db.RecentQueries(0))
	execOK(t, db, "SELECT * FROM t WHERE b = 60") // a fresh indexing scan
	if n := len(db.TraceEvents()); n != spans {
		t.Errorf("span ring grew %d -> %d after Observe(false)", spans, n)
	}
	if n := samples(); n != sampled {
		t.Errorf("timeline grew %d -> %d samples after Observe(false)", sampled, n)
	}
	if n := len(db.RecentQueries(0)); n != records {
		t.Errorf("flight records grew %d -> %d after Observe(false)", records, n)
	}
}
