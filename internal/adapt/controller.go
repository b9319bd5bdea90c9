// Package adapt implements the disk-side half of the paper's vision of
// "self-tuned adaptive partial indexing" (§VII): an online controller
// that watches one column's query stream, detects a sustained workload
// shift through its miss rate, and redefines the partial index to cover
// the newly hot regions. The Index Buffer (internal/core) is the fast,
// volatile half that bridges the gap while this deliberately slow
// control loop converges — run together, they reproduce the paper's
// architecture end to end (see the bridge experiment and the selftuning
// example).
package adapt

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/storage"
)

// Policy configures the control loop.
type Policy struct {
	// Window is the number of recent queries monitored. Zero means 64.
	Window int
	// MissRate trips adaptation when the miss fraction over the window
	// reaches it. Zero means 0.7.
	MissRate float64
	// MinGap is the minimum number of queries between adaptations
	// (hysteresis, so one shift causes one rebuild). Zero means Window.
	MinGap int
	// BucketWidth groups integer keys into histogram buckets when
	// choosing the new coverage. Zero means 1000.
	BucketWidth int64
	// TopK is how many hottest buckets (or, for string columns, exact
	// values) the new coverage includes. Zero means 4.
	TopK int
}

func (p Policy) withDefaults() Policy {
	if p.Window <= 0 {
		p.Window = 64
	}
	if p.MissRate <= 0 {
		p.MissRate = 0.7
	}
	if p.MinGap <= 0 {
		p.MinGap = p.Window
	}
	if p.BucketWidth <= 0 {
		p.BucketWidth = 1000
	}
	if p.TopK <= 0 {
		p.TopK = 4
	}
	return p
}

// Stats counts controller activity.
type Stats struct {
	Queries     uint64
	Misses      uint64
	Adaptations uint64
}

// observation is one monitored query.
type observation struct {
	key    storage.Value
	missed bool
}

// Controller adapts one column's partial index. Not safe for concurrent
// use; serialize with the query stream it observes.
type Controller struct {
	table  *engine.Table
	column int
	policy Policy

	ring     []observation
	next     int
	filled   int
	sinceAdp int

	stats Stats
}

// New creates a controller for the column's partial index, which must
// already exist.
func New(table *engine.Table, column int, policy Policy) (*Controller, error) {
	if table.Index(column) == nil {
		return nil, fmt.Errorf("adapt: column %d of %s has no partial index", column, table.Name())
	}
	p := policy.withDefaults()
	return &Controller{
		table:    table,
		column:   column,
		policy:   p,
		ring:     make([]observation, p.Window),
		sinceAdp: p.MinGap, // allow an immediate first adaptation
	}, nil
}

// Stats returns a snapshot of the counters.
func (c *Controller) Stats() Stats { return c.stats }

// Query answers column = key through the engine and feeds the
// observation to the control loop, adapting the index when it trips.
// adapted reports whether this query triggered a redefinition (whose
// rebuild cost the caller may want to charge to it).
func (c *Controller) Query(key storage.Value) (matches []exec.Match, stats exec.QueryStats, adapted bool, err error) {
	matches, stats, err = c.table.QueryRangeCtx(context.Background(), c.column, key, key)
	if err != nil {
		return nil, stats, false, err
	}
	adapted, err = c.Observe(key, stats.PartialHit)
	return matches, stats, adapted, err
}

// Observe records one query outcome (for callers that run queries
// themselves) and adapts the index when the policy trips.
func (c *Controller) Observe(key storage.Value, hit bool) (adapted bool, err error) {
	c.stats.Queries++
	if !hit {
		c.stats.Misses++
	}
	c.ring[c.next] = observation{key: key, missed: !hit}
	c.next = (c.next + 1) % len(c.ring)
	if c.filled < len(c.ring) {
		c.filled++
	}
	c.sinceAdp++

	if c.filled < len(c.ring) || c.sinceAdp < c.policy.MinGap {
		return false, nil
	}
	misses := 0
	for i := 0; i < c.filled; i++ {
		if c.ring[i].missed {
			misses++
		}
	}
	if float64(misses)/float64(c.filled) < c.policy.MissRate {
		return false, nil
	}

	cov, err := c.chooseCoverage()
	if err != nil {
		return false, err
	}
	if err := c.table.RedefineIndex(c.column, cov); err != nil {
		return false, err
	}
	c.stats.Adaptations++
	c.sinceAdp = 0
	// Restart monitoring: the old window described the old coverage.
	c.filled = 0
	c.next = 0
	return true, nil
}

// chooseCoverage derives the new defining predicate from the missed keys
// in the window: integer keys are grouped into BucketWidth-wide buckets
// and the TopK hottest buckets become covered ranges; string keys are
// covered individually (TopK most-missed values).
func (c *Controller) chooseCoverage() (index.Coverage, error) {
	type bucket struct {
		key   storage.Value // representative (strings) or bucket base (ints)
		count int
	}
	counts := map[int64]int{}  // int buckets
	values := map[string]int{} // string values
	isString := false
	for i := 0; i < c.filled; i++ {
		o := c.ring[i]
		if !o.missed {
			continue
		}
		switch o.key.Kind() {
		case storage.KindInt64:
			counts[o.key.Int64()/c.policy.BucketWidth]++
		case storage.KindString:
			isString = true
			values[o.key.Str()]++
		}
	}

	if isString {
		var items []bucket
		for v, n := range values {
			items = append(items, bucket{key: storage.StringValue(v), count: n})
		}
		sort.Slice(items, func(i, j int) bool {
			if items[i].count != items[j].count {
				return items[i].count > items[j].count
			}
			return items[i].key.Compare(items[j].key) < 0
		})
		if len(items) > c.policy.TopK {
			items = items[:c.policy.TopK]
		}
		vals := make([]storage.Value, len(items))
		for i, it := range items {
			vals[i] = it.key
		}
		return index.NewSetCoverage(vals...), nil
	}

	type ib struct {
		base  int64
		count int
	}
	var items []ib
	for b, n := range counts {
		items = append(items, ib{base: b, count: n})
	}
	if len(items) == 0 {
		return nil, fmt.Errorf("adapt: window tripped with no missed keys")
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].count != items[j].count {
			return items[i].count > items[j].count
		}
		return items[i].base < items[j].base
	})
	if len(items) > c.policy.TopK {
		items = items[:c.policy.TopK]
	}
	// Merge adjacent buckets into ranges.
	bases := make([]int64, len(items))
	for i, it := range items {
		bases[i] = it.base
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	var union index.UnionCoverage
	w := c.policy.BucketWidth
	start := bases[0]
	prev := bases[0]
	for _, b := range bases[1:] {
		if b == prev+1 {
			prev = b
			continue
		}
		union = append(union, index.IntRange(start*w, (prev+1)*w-1))
		start, prev = b, b
	}
	union = append(union, index.IntRange(start*w, (prev+1)*w-1))
	if len(union) == 1 {
		return union[0], nil
	}
	return union, nil
}
