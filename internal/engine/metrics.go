package engine

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
)

// This file renders the engine's monitors — scan-sharing counters, Index
// Buffer Space occupancy, per-buffer gauges, per-column query aggregates
// and per-mechanism latency summaries — in the Prometheus text exposition
// format (version 0.0.4), so a standard scraper pointed at the obs
// package's /metrics endpoint sees the adaptive machinery live.
//
// Naming follows the Prometheus conventions: every metric is prefixed
// aib_, counters end in _total, and units are spelled out
// (microseconds, entries). All values are snapshots taken through the
// same accessors the rest of the engine uses, so rendering never blocks
// queries beyond the brief per-structure locks those accessors take.

// metricsWriter accumulates Fprintf errors so the renderer can be written
// straight-line; the first error wins and later writes are skipped.
type metricsWriter struct {
	w   io.Writer
	err error
}

func (m *metricsWriter) printf(format string, args ...any) {
	if m.err != nil {
		return
	}
	_, m.err = fmt.Fprintf(m.w, format, args...)
}

// head emits the # HELP / # TYPE preamble of one metric family.
func (m *metricsWriter) head(name, help, typ string) {
	m.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote and newline.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// WriteMetrics renders every engine monitor to w in the Prometheus text
// exposition format v0.0.4. It is safe to call concurrently with queries;
// the values are per-structure snapshots, not a global consistent cut.
func (e *Engine) WriteMetrics(w io.Writer) error {
	m := &metricsWriter{w: w}

	// Scan-sharing admission counters.
	ss := e.SharedScanStats()
	m.head("aib_shared_scan_misses_total", "Miss queries admitted to the scan-sharing layer.", "counter")
	m.printf("aib_shared_scan_misses_total %d\n", ss.Misses)
	m.head("aib_shared_scan_passes_total", "Algorithm-1 indexing passes actually executed.", "counter")
	m.printf("aib_shared_scan_passes_total %d\n", ss.Scans)
	m.head("aib_shared_scan_attached_total", "Queries that rode along on another query's scan.", "counter")
	m.printf("aib_shared_scan_attached_total %d\n", ss.Attached)
	m.head("aib_shared_scan_saved_total", "Scans avoided by sharing (misses - passes).", "counter")
	m.printf("aib_shared_scan_saved_total %d\n", ss.Saved)

	// Parallel scan-execution counters.
	ps := e.ParallelScanStats()
	m.head("aib_parallel_scans_total", "Table-scan stages that fanned out to more than one worker.", "counter")
	m.printf("aib_parallel_scans_total %d\n", ps.Scans)
	m.head("aib_parallel_scan_workers_total", "Total workers used across parallel table-scan stages.", "counter")
	m.printf("aib_parallel_scan_workers_total %d\n", ps.Workers)

	// Index Buffer Space occupancy and management counters.
	m.head("aib_space_entries_used", "Index Buffer entries currently held across all buffers.", "gauge")
	m.printf("aib_space_entries_used %d\n", e.space.Used())
	m.head("aib_space_entries_limit", "Configured Index Buffer Space entry limit L (0 = unlimited).", "gauge")
	m.printf("aib_space_entries_limit %d\n", e.space.Config().SpaceLimit)
	sp := e.space.Stats()
	m.head("aib_space_partitions_dropped_total", "Partitions displaced from the Index Buffer Space.", "counter")
	m.printf("aib_space_partitions_dropped_total %d\n", sp.PartitionsDropped)
	m.head("aib_space_entries_dropped_total", "Entries discarded by displacement.", "counter")
	m.printf("aib_space_entries_dropped_total %d\n", sp.EntriesDropped)
	m.head("aib_space_pages_selected_total", "Pages chosen for indexing by Algorithm 2.", "counter")
	m.printf("aib_space_pages_selected_total %d\n", sp.PagesSelected)
	m.head("aib_space_cross_tenant_entries_dropped_total", "Entries one tenant's scans displaced from other tenants' buffers.", "counter")
	m.printf("aib_space_cross_tenant_entries_dropped_total %d\n", sp.CrossTenantEntriesDropped)

	// Per-tenant quota gauges and degradation counters.
	tenants := e.space.Tenants()
	if len(tenants) > 0 {
		m.head("aib_tenant_entries_used", "Index Buffer entries currently held by one tenant's buffers.", "gauge")
		for _, tn := range tenants {
			m.printf("aib_tenant_entries_used{tenant=\"%s\"} %d\n", escapeLabel(tn.Name()), tn.Used())
		}
		m.head("aib_tenant_entries_quota", "Configured entry quota of one tenant (0 = unlimited).", "gauge")
		for _, tn := range tenants {
			q := tn.Quota()
			if q < 0 {
				q = 0
			}
			m.printf("aib_tenant_entries_quota{tenant=\"%s\"} %d\n", escapeLabel(tn.Name()), q)
		}
		m.head("aib_tenant_degraded_total", "Misses degraded to unindexed scans because the tenant was over quota.", "counter")
		for _, tn := range tenants {
			m.printf("aib_tenant_degraded_total{tenant=\"%s\"} %d\n", escapeLabel(tn.Name()), tn.Degraded())
		}
		m.head("aib_tenant_entries_evicted_total", "Entries one tenant lost to other tenants' scans.", "counter")
		for _, tn := range tenants {
			m.printf("aib_tenant_entries_evicted_total{tenant=\"%s\"} %d\n", escapeLabel(tn.Name()), tn.Evicted())
		}
	}

	// Per-buffer gauges, labeled with the owning tenant ("" = default).
	// Buffers() returns a creation-ordered snapshot.
	lbl := func(b *core.IndexBuffer) string {
		return fmt.Sprintf("buffer=\"%s\",tenant=\"%s\"", escapeLabel(b.Name()), escapeLabel(b.TenantName()))
	}
	m.head("aib_buffer_entries", "Entries held by one Index Buffer.", "gauge")
	bufs := e.space.Buffers()
	for _, b := range bufs {
		m.printf("aib_buffer_entries{%s} %d\n", lbl(b), b.EntryCount())
	}
	m.head("aib_buffer_partitions", "Partitions held by one Index Buffer.", "gauge")
	for _, b := range bufs {
		m.printf("aib_buffer_partitions{%s} %d\n", lbl(b), b.PartitionCount())
	}
	m.head("aib_buffer_buffered_pages", "Table pages fully indexed by one Index Buffer (C[p] = 0).", "gauge")
	for _, b := range bufs {
		m.printf("aib_buffer_buffered_pages{%s} %d\n", lbl(b), b.BufferedPages())
	}
	m.head("aib_buffer_benefit", "Benefit estimate of one Index Buffer (entries per interval).", "gauge")
	for _, b := range bufs {
		m.printf("aib_buffer_benefit{%s} %g\n", lbl(b), b.Benefit())
	}
	m.head("aib_buffer_mean_interval", "Mean LRU-K reference interval of one Index Buffer.", "gauge")
	for _, b := range bufs {
		m.printf("aib_buffer_mean_interval{%s} %g\n", lbl(b), b.History().Mean())
	}
	m.head("aib_buffer_bytes", "Encoded payload bytes held by one Index Buffer.", "gauge")
	for _, b := range bufs {
		m.printf("aib_buffer_bytes{%s} %d\n", lbl(b), b.EntryBytes())
	}
	m.head("aib_coverage_ratio", "Fraction of one buffer's table pages that are skippable (C[p] = 0).", "gauge")
	for _, b := range bufs {
		zero, total := b.Skippable()
		cov := 0.0
		if total > 0 {
			cov = float64(zero) / float64(total)
		}
		m.printf("aib_coverage_ratio{%s} %g\n", lbl(b), cov)
	}

	// Adaptation-timeline convergence verdicts. Queries-to-target is
	// only defined for series that reached the target; the achieved
	// gauge lets a scraper tell "not yet" from "never sampled".
	convs := e.timeline.Convergence()
	m.head("aib_convergence_achieved", "Whether the buffer's coverage ever reached the convergence target (1 = yes).", "gauge")
	for _, c := range convs {
		v := 0
		if c.Achieved {
			v = 1
		}
		m.printf("aib_convergence_achieved{buffer=\"%s\",target=\"%g\"} %d\n",
			escapeLabel(c.Buffer), c.Target, v)
	}
	m.head("aib_convergence_queries", "Queries until the buffer's coverage first reached the convergence target.", "gauge")
	for _, c := range convs {
		if !c.Achieved {
			continue
		}
		m.printf("aib_convergence_queries{buffer=\"%s\",target=\"%g\"} %d\n",
			escapeLabel(c.Buffer), c.Target, c.QueriesToTarget)
	}

	// Per-column query aggregates from the tracer.
	aggs := e.tracer.Aggregates()
	m.head("aib_queries_total", "Queries answered, by table and column.", "counter")
	for _, a := range aggs {
		m.printf("aib_queries_total{table=\"%s\",column=\"%s\"} %d\n",
			escapeLabel(a.Table), escapeLabel(a.Column), a.Queries)
	}
	m.head("aib_query_hits_total", "Queries answered by the partial index alone.", "counter")
	for _, a := range aggs {
		m.printf("aib_query_hits_total{table=\"%s\",column=\"%s\"} %d\n",
			escapeLabel(a.Table), escapeLabel(a.Column), a.Hits)
	}
	m.head("aib_pages_read_total", "Heap pages fetched by queries.", "counter")
	for _, a := range aggs {
		m.printf("aib_pages_read_total{table=\"%s\",column=\"%s\"} %d\n",
			escapeLabel(a.Table), escapeLabel(a.Column), a.PagesRead)
	}
	m.head("aib_pages_skipped_total", "Pages skipped by indexing scans because C[p] = 0.", "counter")
	for _, a := range aggs {
		m.printf("aib_pages_skipped_total{table=\"%s\",column=\"%s\"} %d\n",
			escapeLabel(a.Table), escapeLabel(a.Column), a.PagesSkipped)
	}
	m.head("aib_query_wall_microseconds_total", "Wall-clock time spent answering queries.", "counter")
	for _, a := range aggs {
		m.printf("aib_query_wall_microseconds_total{table=\"%s\",column=\"%s\"} %d\n",
			escapeLabel(a.Table), escapeLabel(a.Column), a.WallMicros)
	}

	// Per-mechanism latency, rendered as a Prometheus summary: quantile
	// lines plus _sum and _count. Quantiles are reservoir-sampled; sum and
	// count are exact.
	m.head("aib_query_latency_microseconds", "Query latency by execution mechanism.", "summary")
	for _, l := range e.tracer.LatencyStats() {
		mech := escapeLabel(l.Mechanism)
		m.printf("aib_query_latency_microseconds{mechanism=\"%s\",quantile=\"0.5\"} %g\n", mech, l.P50)
		m.printf("aib_query_latency_microseconds{mechanism=\"%s\",quantile=\"0.95\"} %g\n", mech, l.P95)
		m.printf("aib_query_latency_microseconds{mechanism=\"%s\",quantile=\"0.99\"} %g\n", mech, l.P99)
		m.printf("aib_query_latency_microseconds_sum{mechanism=\"%s\"} %g\n", mech, l.Sum)
		m.printf("aib_query_latency_microseconds_count{mechanism=\"%s\"} %d\n", mech, l.Count)
	}

	// Epoch-based read path: domain reclamation state and fast-path
	// counters. EpochStats advances the domain first, so a quiescent
	// engine scrapes with a drained backlog.
	es := e.EpochStats()
	m.head("aib_epoch_current", "Current global epoch of the engine's reclamation domain.", "gauge")
	m.printf("aib_epoch_current %d\n", es.Epoch)
	m.head("aib_epoch_pinned_readers", "Readers currently pinned in the epoch domain.", "gauge")
	m.printf("aib_epoch_pinned_readers %d\n", es.PinnedReaders)
	m.head("aib_epoch_retired_backlog", "Retired snapshots awaiting reclamation.", "gauge")
	m.printf("aib_epoch_retired_backlog %d\n", es.RetiredBacklog)
	m.head("aib_epoch_reclaimed_total", "Retired snapshots freed since the engine started.", "counter")
	m.printf("aib_epoch_reclaimed_total %d\n", es.Reclaimed)
	m.head("aib_epoch_reclamation_lag", "Age in epochs of the oldest unreclaimed retirement (0 = drained).", "gauge")
	m.printf("aib_epoch_reclamation_lag %d\n", es.ReclamationLag)
	m.head("aib_epoch_fast_hits_total", "Queries fully served by the lock-free read path.", "counter")
	m.printf("aib_epoch_fast_hits_total %d\n", es.FastHits)
	m.head("aib_epoch_fallbacks_total", "Lock-free read attempts that fell back to the locked path.", "counter")
	m.printf("aib_epoch_fallbacks_total %d\n", es.Fallbacks)

	// Span machinery state.
	m.head("aib_trace_spans_total", "Span events emitted since the engine started (survives Reset).", "counter")
	m.printf("aib_trace_spans_total %d\n", e.tracer.SpanCount())
	// The three *_enabled gauges all report the one observation gate.
	on := 0
	if e.Observing() {
		on = 1
	}
	m.head("aib_trace_spans_enabled", "Whether span recording is currently on.", "gauge")
	m.printf("aib_trace_spans_enabled %d\n", on)

	// Timeline machinery state.
	m.head("aib_timeline_samples_total", "Timeline samples taken since the engine started (survives ring eviction and Reset).", "counter")
	m.printf("aib_timeline_samples_total %d\n", e.timeline.SampleCount())
	m.head("aib_timeline_enabled", "Whether adaptation-timeline sampling is currently on.", "gauge")
	m.printf("aib_timeline_enabled %d\n", on)

	// Flight recorder state.
	fs := e.flight.Stats()
	m.head("aib_flight_enabled", "Whether the per-statement flight recorder is currently on.", "gauge")
	m.printf("aib_flight_enabled %d\n", on)
	m.head("aib_flight_completed_total", "Statements the flight recorder completed a record for.", "counter")
	m.printf("aib_flight_completed_total %d\n", fs.Completed)
	m.head("aib_flight_slow_total", "Statements captured by the slow-query ring.", "counter")
	m.printf("aib_flight_slow_total %d\n", fs.Slow)
	m.head("aib_flight_slow_threshold_seconds", "Current slow-query capture threshold.", "gauge")
	m.printf("aib_flight_slow_threshold_seconds %g\n", fs.Threshold.Seconds())

	// Durability telemetry: WAL writer counters and distributions,
	// checkpoint progress and the recovery facts of this engine's
	// startup. The families appear only on WAL-backed engines, the same
	// convention as the per-tenant families (absent, not zero, when the
	// subsystem is off).
	if tel, ok := e.WALTelemetry(); ok {
		m.head("aib_wal_appends_total", "Records appended to the write-ahead log.", "counter")
		m.printf("aib_wal_appends_total %d\n", tel.Appends)
		m.head("aib_wal_commits_total", "Commit calls acknowledged durable.", "counter")
		m.printf("aib_wal_commits_total %d\n", tel.Commits)
		m.head("aib_wal_syncs_total", "fsyncs issued by the log writer.", "counter")
		m.printf("aib_wal_syncs_total %d\n", tel.Syncs)
		m.head("aib_wal_bytes_total", "Payload and frame bytes appended to the log.", "counter")
		m.printf("aib_wal_bytes_total %d\n", tel.Bytes)
		m.head("aib_wal_segments_created_total", "Log segment files created.", "counter")
		m.printf("aib_wal_segments_created_total %d\n", tel.Segments)
		m.head("aib_wal_segments_removed_total", "Log segment files reclaimed by checkpoint truncation.", "counter")
		m.printf("aib_wal_segments_removed_total %d\n", tel.Removed)
		m.head("aib_wal_active_segments", "Live log segment files (grows while checkpoints stall).", "gauge")
		m.printf("aib_wal_active_segments %d\n", tel.ActiveSegments)
		m.head("aib_wal_appended_lsn", "LSN of the last appended record.", "gauge")
		m.printf("aib_wal_appended_lsn %d\n", tel.AppendedLSN)
		m.head("aib_wal_durable_lsn", "LSN up to which the log is known durable.", "gauge")
		m.printf("aib_wal_durable_lsn %d\n", tel.DurableLSN)
		m.head("aib_wal_sync_error", "Whether the log writer holds a sticky fsync error (1 = failed).", "gauge")
		syncErr := 0
		if tel.SyncErr != "" {
			syncErr = 1
		}
		m.printf("aib_wal_sync_error %d\n", syncErr)
		m.head("aib_wal_fsync_seconds", "fsync wall time, including any simulated device delay.", "summary")
		fl := tel.FsyncLatency
		m.printf("aib_wal_fsync_seconds{quantile=\"0.5\"} %g\n", fl.P50)
		m.printf("aib_wal_fsync_seconds{quantile=\"0.95\"} %g\n", fl.P95)
		m.printf("aib_wal_fsync_seconds{quantile=\"0.99\"} %g\n", fl.P99)
		m.printf("aib_wal_fsync_seconds_sum %g\n", fl.Sum)
		m.printf("aib_wal_fsync_seconds_count %d\n", fl.Count)
		m.head("aib_wal_commit_batch_records", "Group-commit batch sizes: records made durable per watermark advance.", "summary")
		cb := tel.CommitBatch
		m.printf("aib_wal_commit_batch_records{quantile=\"0.5\"} %g\n", cb.P50)
		m.printf("aib_wal_commit_batch_records{quantile=\"0.95\"} %g\n", cb.P95)
		m.printf("aib_wal_commit_batch_records{quantile=\"0.99\"} %g\n", cb.P99)
		m.printf("aib_wal_commit_batch_records_sum %g\n", cb.Sum)
		m.printf("aib_wal_commit_batch_records_count %d\n", cb.Count)

		cs := e.CheckpointStats()
		m.head("aib_checkpoint_completed_total", "Checkpoints completed since the engine started.", "counter")
		m.printf("aib_checkpoint_completed_total %d\n", cs.Completed)
		m.head("aib_checkpoint_last_duration_seconds", "Wall time of the most recent checkpoint.", "gauge")
		m.printf("aib_checkpoint_last_duration_seconds %g\n", cs.LastDuration.Seconds())
		m.head("aib_checkpoint_age_seconds", "Time since the last checkpoint completed (since start when none has).", "gauge")
		m.printf("aib_checkpoint_age_seconds %g\n", cs.Age.Seconds())

		rs := e.RecoveryStats()
		m.head("aib_recovery_redo_records", "DML records replayed by this engine's recovery pass.", "gauge")
		m.printf("aib_recovery_redo_records %d\n", rs.RedoRecords)
		m.head("aib_recovery_redo_pages", "Page images written by this engine's recovery pass.", "gauge")
		m.printf("aib_recovery_redo_pages %d\n", rs.RedoPages)
		m.head("aib_recovery_truncated_pages", "Surplus heap pages truncated during recovery.", "gauge")
		m.printf("aib_recovery_truncated_pages %d\n", rs.TruncatedPages)
		m.head("aib_recovery_torn_bytes", "Torn page and log bytes repaired during recovery.", "gauge")
		m.printf("aib_recovery_torn_bytes %d\n", rs.TornPageBytes+rs.TornWALBytes)
		m.head("aib_recovery_query_tail", "Logged query descriptors recovered for Rewarm.", "gauge")
		m.printf("aib_recovery_query_tail %d\n", rs.QueryTail)
	}

	return m.err
}
