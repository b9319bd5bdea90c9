package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/storage"
)

// newTenantTable creates a tenant-owned two-column table with rows rows,
// values cycling over [1, domain], and a partial index covering
// [1, covered]. The payload pads rows so a page holds only a handful.
func newTenantTable(t *testing.T, e *Engine, tn *core.Tenant, rows, domain, covered int) *Table {
	t.Helper()
	schema := storage.MustSchema(
		storage.Column{Name: "a", Kind: storage.KindInt64},
		storage.Column{Name: "payload", Kind: storage.KindString},
	)
	tb, err := e.CreateTableFor(tn, "t", schema)
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("x", 200)
	for i := 0; i < rows; i++ {
		tu := storage.NewTuple(iv(int64(i%domain)+1), storage.StringValue(pad))
		if _, err := tb.InsertCtx(context.Background(), tu); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.CreatePartialIndex(0, index.RangeCoverage{Lo: iv(1), Hi: iv(int64(covered))}); err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestTenantCatalogIsolation(t *testing.T) {
	e := New(Config{Space: core.Config{IMax: 100, P: 100}})
	defer e.Close()
	tn, err := e.CreateTenant("acme", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateTenant("acme", 0, false); err == nil {
		t.Error("duplicate tenant accepted")
	}
	if _, err := e.TenantFor("ghost"); !errors.Is(err, ErrTenantUnknown) {
		t.Errorf("TenantFor(ghost) = %v, want ErrTenantUnknown", err)
	}
	if got, err := e.TenantFor(""); got != nil || err != nil {
		t.Errorf("TenantFor(\"\") = %v, %v, want nil, nil", got, err)
	}

	tb := newTenantTable(t, e, tn, 50, 20, 5)
	if got := tb.Name(); got != "acme:t" {
		t.Errorf("catalog name = %q, want acme:t", got)
	}
	if got := tb.DisplayName(); got != "t" {
		t.Errorf("display name = %q, want t", got)
	}
	if e.Table("t") != nil {
		t.Error("tenant table visible under its bare name")
	}
	if e.TableFor(tn, "t") != tb {
		t.Error("TableFor(tn) did not resolve the tenant table")
	}
	if e.TableFor(nil, "t") != nil {
		t.Error("default-tenant lookup leaked into the tenant namespace")
	}
	names := e.TableNamesFor(tn)
	if len(names) != 1 || names[0] != "t" {
		t.Errorf("TableNamesFor = %v, want [t]", names)
	}
	if len(e.TableNamesFor(nil)) != 0 {
		t.Errorf("default tenant sees %v", e.TableNamesFor(nil))
	}
}

// TestTenantDegradedScan drives a non-strict tenant past its quota and
// checks the degrade path end to end: correct rows, QuotaDegraded set,
// no buffer mutation, Degraded counted.
func TestTenantDegradedScan(t *testing.T) {
	e := New(Config{Space: core.Config{IMax: 100, P: 100, SpaceLimit: 10000}})
	defer e.Close()
	tn, err := e.CreateTenant("tiny", 3, false)
	if err != nil {
		t.Fatal(err)
	}
	tb := newTenantTable(t, e, tn, 200, 50, 5)

	ctx := context.Background()
	sawDegraded := false
	for k := int64(6); k <= 50; k++ {
		rows, stats, err := tb.QueryEqualCtx(ctx, 0, iv(k))
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if len(rows) != 4 { // 200 rows over domain 50
			t.Fatalf("k=%d: %d rows, want 4", k, len(rows))
		}
		if stats.QuotaDegraded {
			sawDegraded = true
			if stats.EntriesAdded != 0 || stats.PagesSelected != 0 {
				t.Fatalf("degraded scan mutated the buffer: %+v", stats)
			}
		}
	}
	if !sawDegraded {
		t.Fatal("tenant with a 3-entry quota never degraded")
	}
	if tn.Degraded() == 0 {
		t.Error("Degraded counter not bumped")
	}
	if used, q := tn.Used(), tn.Quota(); used > q {
		t.Errorf("used %d > quota %d", used, q)
	}
}

// TestTenantStrictQuota checks that a strict tenant's over-quota miss
// fails with ErrQuotaExceeded instead of degrading.
func TestTenantStrictQuota(t *testing.T) {
	e := New(Config{Space: core.Config{IMax: 100, P: 100, SpaceLimit: 10000}})
	defer e.Close()
	tn, err := e.CreateTenant("hard", 3, true)
	if err != nil {
		t.Fatal(err)
	}
	tb := newTenantTable(t, e, tn, 200, 50, 5)

	ctx := context.Background()
	var quotaErr error
	for k := int64(6); k <= 50; k++ {
		if _, _, err := tb.QueryEqualCtx(ctx, 0, iv(k)); err != nil {
			quotaErr = err
			break
		}
	}
	if !errors.Is(quotaErr, ErrQuotaExceeded) {
		t.Fatalf("strict tenant error = %v, want ErrQuotaExceeded", quotaErr)
	}
	if tn.Degraded() != 0 {
		t.Errorf("strict tenant counted %d degraded misses", tn.Degraded())
	}
	// Covered queries still work — the quota gates indexing scans only.
	if _, _, err := tb.QueryEqualCtx(ctx, 0, iv(1)); err != nil {
		t.Errorf("covered query failed under exhausted quota: %v", err)
	}
}

// TestTenantRangeDegrades covers the range-query admission path.
func TestTenantRangeDegrades(t *testing.T) {
	e := New(Config{Space: core.Config{IMax: 100, P: 100, SpaceLimit: 10000}})
	defer e.Close()
	tn, err := e.CreateTenant("tiny", 3, false)
	if err != nil {
		t.Fatal(err)
	}
	tb := newTenantTable(t, e, tn, 200, 50, 5)

	ctx := context.Background()
	sawDegraded := false
	for lo := int64(6); lo <= 40; lo += 2 {
		rows, stats, err := tb.QueryRangeCtx(ctx, 0, iv(lo), iv(lo+1))
		if err != nil {
			t.Fatalf("lo=%d: %v", lo, err)
		}
		if len(rows) != 8 {
			t.Fatalf("lo=%d: %d rows, want 8", lo, len(rows))
		}
		if stats.QuotaDegraded {
			sawDegraded = true
		}
	}
	if !sawDegraded {
		t.Fatal("range misses never degraded")
	}
}

// TestTenantMetricsFamilies checks the per-tenant exposition: ledger
// families present, and buffer families labeled with the tenant.
func TestTenantMetricsFamilies(t *testing.T) {
	e := New(Config{Space: core.Config{IMax: 100, P: 100, SpaceLimit: 10000}})
	defer e.Close()
	tn, err := e.CreateTenant("tiny", 3, false)
	if err != nil {
		t.Fatal(err)
	}
	tb := newTenantTable(t, e, tn, 200, 50, 5)
	ctx := context.Background()
	for k := int64(6); k <= 20; k++ {
		if _, _, err := tb.QueryEqualCtx(ctx, 0, iv(k)); err != nil {
			t.Fatal(err)
		}
	}

	var sb strings.Builder
	if err := e.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{
		`aib_tenant_entries_used{tenant="tiny"}`,
		`aib_tenant_entries_quota{tenant="tiny"} 3`,
		`aib_tenant_degraded_total{tenant="tiny"}`,
		`aib_tenant_entries_evicted_total{tenant="tiny"} 0`,
		`aib_buffer_entries{buffer="tiny:t.a",tenant="tiny"}`,
		"aib_space_cross_tenant_entries_dropped_total 0",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if tn.Degraded() > 0 {
		want := fmt.Sprintf(`aib_tenant_degraded_total{tenant="tiny"} %d`, tn.Degraded())
		if !strings.Contains(got, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
