package repro

import (
	"context"
	"testing"
	"time"
)

// TestDurabilityRoundTrip exercises the public durability surface: a
// DataDir-backed database is abandoned without Close (a crash — nothing
// flushed), reopened with OpenExisting, and must retain every
// acknowledged write; Rewarm then replays the recovered query tail.
func TestDurabilityRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db := MustOpen(Options{DataDir: dir, Seed: 3})
	tb, err := db.CreateTable("flights", Int64Column("delay"), StringColumn("airport"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.CreatePartialRangeIndex("delay", 0, 30); err != nil {
		t.Fatal(err)
	}
	rids := make([]RID, 0, 60)
	for i := 0; i < 60; i++ {
		rid, err := tb.Insert(int64(i%90), "ORD")
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if _, err := tb.Update(rids[5], int64(77), "SFO"); err != nil {
		t.Fatal(err)
	}
	if err := tb.Delete(rids[6]); err != nil {
		t.Fatal(err)
	}
	// Misses past the covered range log query descriptors; the stats of
	// the log writer show commits were acknowledged durably.
	for i := 0; i < 5; i++ {
		if _, _, err := tb.Query("delay", int64(40+i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tb.Insert(int64(1), "LAX"); err != nil { // flushes the query appends
		t.Fatal(err)
	}
	if ws := db.WALStats(); ws.Commits == 0 || ws.Syncs == 0 {
		t.Fatalf("WALStats shows no durable commits: %+v", ws)
	}

	// Crash: walk away. No Close, no Save.
	db2, err := OpenExisting(Options{DataDir: dir, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rs := db2.RecoveryStats()
	if rs.RedoRecords == 0 {
		t.Fatalf("recovery replayed nothing: %+v", rs)
	}
	tb2 := db2.Table("flights")
	n, err := tb2.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 60 { // 61 inserts minus 1 delete
		t.Fatalf("Count = %d, want 60", n)
	}
	rows, _, err := tb2.Query("delay", int64(77))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("updated row lost: %d matches for delay=77", len(rows))
	}
	if ap, _ := rows[0].String("airport"); ap != "SFO" {
		t.Fatalf("updated row airport = %q, want SFO", ap)
	}

	db2.Observe(true)
	if rs.QueryTail == 0 {
		t.Fatalf("no query tail recovered: %+v", rs)
	}
	warmed, err := db2.Rewarm(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if warmed == 0 {
		t.Fatal("Rewarm replayed nothing")
	}
	var resets uint64
	for _, c := range db2.Convergence() {
		resets += c.Resets
	}
	if resets == 0 {
		t.Fatalf("restart did not register a convergence reset: %+v", db2.Convergence())
	}
	// Explicit checkpoint works and clean close follows.
	if err := db2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// TestDurabilityDisabled keeps the old snapshot-only contract reachable:
// with the WAL off, Save is the durability boundary.
func TestDurabilityDisabled(t *testing.T) {
	dir := t.TempDir()
	db := MustOpen(Options{DataDir: dir, WAL: WALOptions{Disable: true}})
	tb, err := db.CreateTable("t", Int64Column("k"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Insert(int64(1)); err != nil {
		t.Fatal(err)
	}
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err == nil {
		t.Fatal("Checkpoint on a WAL-disabled database should fail")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenExisting(Options{DataDir: dir, WAL: WALOptions{Disable: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if n, _ := db2.Table("t").Count(); n != 1 {
		t.Fatalf("Count = %d, want 1", n)
	}
}

// TestWALOptionsValidation covers the new validation arms.
func TestWALOptionsValidation(t *testing.T) {
	for _, o := range []Options{
		{WAL: WALOptions{Sync: SyncPolicy(9)}},
		{WAL: WALOptions{SegmentBytes: -1}},
		{WAL: WALOptions{SyncDelay: -time.Second}},
		{WAL: WALOptions{CheckpointEvery: -time.Second}},
	} {
		if _, err := Open(o); err == nil {
			t.Errorf("Open(%+v) accepted invalid WAL options", o.WAL)
		}
	}
}

// TestBackgroundCheckpointer verifies the periodic checkpoint loop
// truncates the log without an explicit Save.
func TestBackgroundCheckpointer(t *testing.T) {
	dir := t.TempDir()
	db := MustOpen(Options{DataDir: dir, WAL: WALOptions{CheckpointEvery: 10 * time.Millisecond, SegmentBytes: 4096}})
	defer db.Close()
	tb, err := db.CreateTable("t", Int64Column("k"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := tb.Insert(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if db.WALStats().Removed > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("background checkpointer never truncated the log: %+v", db.WALStats())
}
