package repro

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/index"
	"repro/internal/storage"
)

// TestEpochPointIsDegenerateRange drives twin databases through the same
// stream of point lookups — one with Query(k), the other with
// QueryRange(k, k) — for every coverage kind and buffer structure. Rows,
// QueryStats, C[p], partial-index probe counts and EXPLAIN text must
// match after every query: a point query is exactly the range [k, k].
func TestEpochPointIsDegenerateRange(t *testing.T) {
	iv := storage.Int64Value
	coverages := []struct {
		name string
		cov  index.Coverage
	}{
		{"range", index.RangeCoverage{Lo: iv(1), Hi: iv(8)}},
		{"set", index.NewSetCoverage(iv(2), iv(5), iv(17), iv(30))},
		{"union", index.UnionCoverage{{Lo: iv(1), Hi: iv(4)}, {Lo: iv(20), Hi: iv(24)}}},
		{"all", index.AllCoverage{}},
		{"none", index.NoneCoverage{}},
	}
	structures := []struct {
		name string
		s    Structure
	}{{"btree", BTree}, {"csbtree", CSBTree}, {"hash", HashTable}}

	for _, c := range coverages {
		for _, st := range structures {
			t.Run(c.name+"/"+st.name, func(t *testing.T) {
				open := func() (*DB, *Table) {
					db := MustOpen(Options{Structure: st.s, IMax: 3, PartitionPages: 4, SpaceLimit: 150, ScanParallelism: 1, Seed: 5})
					t.Cleanup(func() { db.Close() })
					tb, err := db.CreateTable("t", Int64Column("a"), StringColumn("pad"))
					if err != nil {
						t.Fatal(err)
					}
					for i := 0; i < 400; i++ {
						if _, err := tb.Insert(int64(i%40+1), fmt.Sprintf("%0120d", i)); err != nil {
							t.Fatal(err)
						}
					}
					if err := db.eng.Table("t").CreatePartialIndex(0, c.cov); err != nil {
						t.Fatal(err)
					}
					return db, tb
				}
				pdb, point := open()
				rdb, rng := open()

				keys := rand.New(rand.NewSource(9))
				var wantProbes uint64
				for q := 0; q < 60; q++ {
					k := int64(keys.Intn(43)) // 0 and 41..42 match no row
					pp, err := point.Explain("a", k)
					if err != nil {
						t.Fatal(err)
					}
					rp, err := rng.ExplainRange("a", k, k)
					if err != nil {
						t.Fatal(err)
					}
					if pp.String() != rp.String() {
						t.Fatalf("q%d k=%d: Explain %q, ExplainRange %q", q, k, pp, rp)
					}
					prows, pstats, err := point.Query("a", k)
					if err != nil {
						t.Fatal(err)
					}
					rrows, rstats, err := rng.QueryRange("a", k, k)
					if err != nil {
						t.Fatal(err)
					}
					pstats.Duration, rstats.Duration = 0, 0
					if !reflect.DeepEqual(pstats, rstats) {
						t.Fatalf("q%d k=%d: stats\n point %+v\n range %+v", q, k, pstats, rstats)
					}
					if got, want := rowKeys(t, rrows), rowKeys(t, prows); !reflect.DeepEqual(got, want) {
						t.Fatalf("q%d k=%d: rows\n point %v\n range %v", q, k, want, got)
					}
					// A point probes the partial index only when it covers the
					// key: once to explain, once to answer. A miss never does.
					if pstats.PartialHit {
						wantProbes += 2
					}
					pt, rt := pdb.eng.Table("t"), rdb.eng.Table("t")
					if pp, rp := pt.Index(0).Stats().Probes, rt.Index(0).Stats().Probes; pp != wantProbes || rp != wantProbes {
						t.Fatalf("q%d k=%d: partial-index probes point %d, range %d, want %d", q, k, pp, rp, wantProbes)
					}
					pb, rb := pt.Buffer(0), rt.Buffer(0)
					for p := 0; p < pt.NumPages(); p++ {
						if pc, rc := pb.Counter(storage.PageID(p)), rb.Counter(storage.PageID(p)); pc != rc {
							t.Fatalf("q%d k=%d: C[%d] point %d, range %d", q, k, p, pc, rc)
						}
					}
				}
			})
		}
	}
}

// rowKeys renders result rows as RID/key pairs for comparison.
func rowKeys(t *testing.T, rows []Row) []string {
	t.Helper()
	out := make([]string, len(rows))
	for i, r := range rows {
		a, err := r.Int64("a")
		if err != nil {
			t.Fatal(err)
		}
		out[i] = fmt.Sprintf("%v=%d", r.RID, a)
	}
	return out
}

// TestEpochFastPointAllocs pins the allocation cost of a covered point
// query served by the epoch fast path: 12 allocations for this four-row
// result — the sorted RID copy, the presized match slice and the
// decoded tuples. Distinct pages are counted by walking the sorted RIDs,
// so no per-query page set is allocated.
func TestEpochFastPointAllocs(t *testing.T) {
	db := MustOpen(Options{})
	defer db.Close()
	tb, err := db.CreateTable("t", Int64Column("a"), StringColumn("s"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := tb.Insert(int64(i%50), "x"); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.CreatePartialRangeIndex("a", 0, 10); err != nil {
		t.Fatal(err)
	}
	et := db.eng.Table("t")
	ctx := context.Background()
	key := storage.Int64Value(5)
	before := db.EpochStats().FastHits
	allocs := testing.AllocsPerRun(200, func() {
		if m, _, err := et.QueryRangeCtx(ctx, 0, key, key); err != nil || len(m) != 4 {
			t.Fatalf("point query: %d matches, %v", len(m), err)
		}
	})
	if hits := db.EpochStats().FastHits - before; hits != 201 {
		t.Fatalf("fast path served %d of 201 queries", hits)
	}
	const maxAllocs = 12
	if allocs > maxAllocs {
		t.Fatalf("covered point query allocates %.1f times, want <= %d", allocs, maxAllocs)
	}
}

// TestEpochFastBufferAllocs is TestEpochFastPointAllocs for an uncovered
// point once the Index Buffer is complete: the miss is answered from the
// buffer on the lock-free path — no admission, no table lock, no page
// walk — for the same allocation budget as a covered hit.
func TestEpochFastBufferAllocs(t *testing.T) {
	db := MustOpen(Options{})
	defer db.Close()
	tb, err := db.CreateTable("t", Int64Column("a"), StringColumn("s"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := tb.Insert(int64(i%50), "x"); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.CreatePartialRangeIndex("a", 0, 10); err != nil {
		t.Fatal(err)
	}
	et := db.eng.Table("t")
	ctx := context.Background()
	key := storage.Int64Value(25)
	// The first miss indexes every page (default I^MAX) through a
	// shared scan; from then on the buffer is complete.
	if _, stats, err := et.QueryRangeCtx(ctx, 0, key, key); err != nil || stats.PagesSelected != et.NumPages() {
		t.Fatalf("warm-up miss: %+v, %v", stats, err)
	}
	before := db.EpochStats().FastHits
	allocs := testing.AllocsPerRun(200, func() {
		m, stats, err := et.QueryRangeCtx(ctx, 0, key, key)
		if err != nil || len(m) != 4 || stats.BufferMatches != 4 || stats.PagesSkipped != et.NumPages() {
			t.Fatalf("buffered point query: %d matches, %+v, %v", len(m), stats, err)
		}
	})
	if hits := db.EpochStats().FastHits - before; hits != 201 {
		t.Fatalf("fast path served %d of 201 buffered misses", hits)
	}
	if misses := db.SharedScanStats().Misses; misses != 1 {
		t.Fatalf("%d misses admitted to a shared scan, want only the warm-up", misses)
	}
	const maxAllocs = 12
	if allocs > maxAllocs {
		t.Fatalf("buffered point miss allocates %.1f times, want <= %d", allocs, maxAllocs)
	}
}
