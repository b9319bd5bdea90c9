package timeline

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// mkBuf builds a real IndexBuffer whose coverage is determined by the
// uncovered-counter array: pages with counter 0 are skippable.
func mkBuf(t *testing.T, name string, uncovered []int) *core.IndexBuffer {
	t.Helper()
	s := core.NewSpace(core.Config{})
	b, err := s.CreateBuffer(name, uncovered)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestTimelineRingEvictionAndDropped(t *testing.T) {
	r := New(4, 0.95)
	buf := mkBuf(t, "t.a", []int{0, 1})
	for i := 0; i < 10; i++ {
		r.ObserveQuery("t", "a", trace.MechIndexingScan, buf, nil)
	}
	s, ok := r.SeriesFor("t.a")
	if !ok {
		t.Fatal("series missing")
	}
	if len(s.Samples) != 4 {
		t.Fatalf("retained %d samples, want 4", len(s.Samples))
	}
	if s.Dropped != 6 {
		t.Errorf("Dropped = %d, want 6", s.Dropped)
	}
	for i, sm := range s.Samples {
		if want := uint64(7 + i); sm.Query != want {
			t.Errorf("sample %d ordinal = %d, want %d (oldest-first)", i, sm.Query, want)
		}
	}
	if r.SampleCount() != 10 {
		t.Errorf("SampleCount = %d, want 10 (survives eviction)", r.SampleCount())
	}
	if s.Table != "t" || s.Column != "a" {
		t.Errorf("series identity = %q.%q", s.Table, s.Column)
	}
}

func TestTimelineSampleFields(t *testing.T) {
	r := New(8, 0.95)
	// Counters {0, 2, 5, 0}: 2 of 4 skippable, non-zero distribution {2, 5}.
	buf := mkBuf(t, "t.a", []int{0, 2, 5, 0})
	r.ObserveQuery("t", "a", trace.MechHit, buf, nil)
	s, _ := r.SeriesFor("t.a")
	sm := s.Samples[0]
	if sm.Event != EventQuery || sm.Query != 1 {
		t.Errorf("event/ordinal = %q/%d", sm.Event, sm.Query)
	}
	if sm.TotalPages != 4 || sm.Skippable != 2 || sm.Coverage != 0.5 {
		t.Errorf("coverage fields = %d/%d/%g", sm.TotalPages, sm.Skippable, sm.Coverage)
	}
	if sm.CMin != 2 || sm.CMax != 5 {
		t.Errorf("counter distribution = min %d max %d, want 2/5", sm.CMin, sm.CMax)
	}
	if sm.Hits != 1 || sm.IndexingScans != 0 {
		t.Errorf("mechanism mix = hits %d ix %d", sm.Hits, sm.IndexingScans)
	}
	if sm.UnixMicros == 0 {
		t.Error("UnixMicros not stamped")
	}
}

func TestTimelineNilBufferQueryMixOnly(t *testing.T) {
	r := New(8, 0.95)
	r.ObserveQuery("t", "a", trace.MechFullScan, nil, nil)
	r.ObserveQuery("t", "a", trace.MechDegradedScan, nil, nil) // adapts nothing: a full scan
	s, _ := r.SeriesFor("t.a")
	sm := s.Samples[0]
	if sm.TotalPages != 0 || sm.Coverage != 0 {
		t.Errorf("nil buffer sampled as %d pages, coverage %g", sm.TotalPages, sm.Coverage)
	}
	if sm.FullScans != 1 {
		t.Errorf("full scans = %d", sm.FullScans)
	}
	if got := s.Samples[1]; got.FullScans != 2 || got.IndexingScans != 0 {
		t.Errorf("degraded scan counted as %d full, %d indexing scans; want 2 full", got.FullScans, got.IndexingScans)
	}
}

// TestMechanismString pins how the trace package's mechanism names fill
// a sample's query mix: a degraded scan adapts nothing and counts with
// the full scans, and a name outside the vocabulary advances only the
// query count.
func TestMechanismString(t *testing.T) {
	cases := []struct {
		mech string
		want [4]uint64 // hits, indexing scans, full scans, followers
	}{
		{trace.MechHit, [4]uint64{1, 0, 0, 0}},
		{trace.MechIndexingScan, [4]uint64{0, 1, 0, 0}},
		{trace.MechFullScan, [4]uint64{0, 0, 1, 0}},
		{trace.MechDegradedScan, [4]uint64{0, 0, 1, 0}},
		{trace.MechFollower, [4]uint64{0, 0, 0, 1}},
		{"unknown", [4]uint64{}},
	}
	for _, c := range cases {
		r := New(8, 0.95)
		r.ObserveQuery("t", "a", c.mech, nil, nil)
		s, ok := r.SeriesFor("t.a")
		if !ok || len(s.Samples) != 1 {
			t.Fatalf("%s: no sample taken", c.mech)
		}
		sm := s.Samples[0]
		got := [4]uint64{sm.Hits, sm.IndexingScans, sm.FullScans, sm.Followers}
		if sm.Query != 1 || got != c.want {
			t.Errorf("%s: query %d, mix %v; want 1, %v", c.mech, sm.Query, got, c.want)
		}
	}
}

// TestTimelineDisabledIsInert pins that the recorder holds only what it
// is given: a fresh recorder has no samples, series, dirty buffers or
// verdicts, and the calls that can reach it outside a query boundary —
// resampling a buffer dropped since it was dirtied, draining an empty
// dirty set — allocate nothing and retain nothing.
func TestTimelineDisabledIsInert(t *testing.T) {
	r := New(0, 0)
	allocs := testing.AllocsPerRun(100, func() {
		r.Resample("t.a", nil)
		if r.TakeDirty() != nil {
			t.Fatal("empty recorder reports dirty buffers")
		}
	})
	if allocs != 0 {
		t.Errorf("idle path allocates: %v allocs/op", allocs)
	}
	if r.SampleCount() != 0 || len(r.Series()) != 0 || len(r.Convergence()) != 0 {
		t.Error("idle recorder retained state")
	}
}

func TestConvergenceAchieveRegressRecover(t *testing.T) {
	r := New(16, 0.75)
	low := mkBuf(t, "t.a", []int{1, 1, 1, 0})  // coverage 0.25
	high := mkBuf(t, "t.b", []int{0, 0, 0, 1}) // coverage 0.75

	r.ObserveQuery("t", "a", trace.MechIndexingScan, low, nil)
	c := r.Convergence()[0]
	if c.Achieved || c.Regressed {
		t.Fatalf("premature verdict: %+v", c)
	}
	if c.Coverage != 0.25 || c.MaxCoverage != 0.25 {
		t.Errorf("coverage tracking = %g/%g", c.Coverage, c.MaxCoverage)
	}

	r.ObserveQuery("t", "a", trace.MechIndexingScan, high, nil)
	c = r.Convergence()[0]
	if !c.Achieved || c.QueriesToTarget != 2 {
		t.Fatalf("achieve not detected: %+v", c)
	}

	// Coverage drops below target after achieving: regression.
	r.ObserveQuery("t", "a", trace.MechIndexingScan, low, nil)
	c = r.Convergence()[0]
	if !c.Regressed || c.RegressedAt != 3 {
		t.Fatalf("regression not flagged: %+v", c)
	}
	if !c.Achieved || c.QueriesToTarget != 2 {
		t.Errorf("achieve history lost on regression: %+v", c)
	}

	// Recovery clears the flag but keeps the first-crossing ordinal.
	r.ObserveQuery("t", "a", trace.MechIndexingScan, high, nil)
	c = r.Convergence()[0]
	if c.Regressed {
		t.Errorf("regression flag not cleared on recovery: %+v", c)
	}
	if c.QueriesToTarget != 2 || c.Queries != 4 {
		t.Errorf("ordinals after recovery: %+v", c)
	}
	if c.Target != 0.75 {
		t.Errorf("target = %g", c.Target)
	}
}

// TestConvergenceBufferResetStartsNewEpisode pins the episode
// semantics: a buffer-reset event (partial index dropped or redefined)
// clears the stale "converged" verdict — the detector would otherwise
// report the old buffer's achievement for its fresh replacement,
// flagging the rebuild as a mere regression.
func TestConvergenceBufferResetStartsNewEpisode(t *testing.T) {
	r := New(16, 0.75)
	high := mkBuf(t, "t.a", []int{0, 0, 0, 1}) // coverage 0.75
	low := mkBuf(t, "t.a", []int{1, 1, 1, 0})  // coverage 0.25

	r.ObserveQuery("t", "a", trace.MechIndexingScan, high, nil)
	if c := r.Convergence()[0]; !c.Achieved || c.QueriesToTarget != 1 {
		t.Fatalf("setup verdict: %+v", c)
	}

	// The index is redefined: the buffer is dropped and recreated.
	r.NoteEvent("buffer-reset", "t.a", -1, 3)
	c := r.Convergence()[0]
	if c.Achieved || c.Regressed || c.QueriesToTarget != 0 {
		t.Fatalf("stale verdict survived buffer reset: %+v", c)
	}
	if c.Resets != 1 {
		t.Errorf("Resets = %d, want 1", c.Resets)
	}
	if c.MaxCoverage != 0 {
		t.Errorf("MaxCoverage = %g, want 0 after reset", c.MaxCoverage)
	}
	if d := r.TakeDirty(); len(d) != 1 || d[0] != "t.a" {
		t.Errorf("buffer-reset did not dirty the series: %v", d)
	}

	// The fresh buffer starts low, then re-achieves: the second episode
	// gets its own crossing ordinal, not the first's.
	r.ObserveQuery("t", "a", trace.MechIndexingScan, low, nil)
	if c := r.Convergence()[0]; c.Achieved || c.Regressed {
		t.Fatalf("new episode inherited old verdict: %+v", c)
	}
	r.ObserveQuery("t", "a", trace.MechIndexingScan, high, nil)
	c = r.Convergence()[0]
	if !c.Achieved || c.QueriesToTarget != 3 {
		t.Fatalf("re-achievement verdict: %+v", c)
	}
	if c.Resets != 1 || c.Queries != 3 {
		t.Errorf("episode bookkeeping: %+v", c)
	}
}

func TestNoteEventDirtyResample(t *testing.T) {
	r := New(8, 0.95)
	victim := mkBuf(t, "u.b", []int{0, 3})
	queried := mkBuf(t, "t.a", []int{0})

	r.NoteEvent("displace", "u.b", 1, 5)
	r.NoteEvent("page-complete", "u.b", 1, 0)
	r.NoteEvent("scan-start", "u.b", 0, 0) // not a churn event: ignored

	resolved := map[string]*core.IndexBuffer{"u.b": victim}
	r.ObserveQuery("t", "a", trace.MechHit, queried, func(name string) *core.IndexBuffer {
		return resolved[name]
	})

	s, ok := r.SeriesFor("u.b")
	if !ok {
		t.Fatal("victim series missing")
	}
	if len(s.Samples) != 1 || s.Samples[0].Event != EventResample {
		t.Fatalf("victim samples = %+v", s.Samples)
	}
	sm := s.Samples[0]
	if sm.Displacements != 1 || sm.DisplacedEntries != 5 || sm.PageCompletes != 1 {
		t.Errorf("churn counters = %d/%d/%d", sm.Displacements, sm.DisplacedEntries, sm.PageCompletes)
	}
	// The queried buffer's own boundary sample cleared its dirty mark;
	// nothing is left pending.
	if d := r.TakeDirty(); d != nil {
		t.Errorf("dirty set not drained: %v", d)
	}
}

func TestTakeDirtySortedAndCleared(t *testing.T) {
	r := New(8, 0.95)
	r.NoteEvent("displace", "z.z", 0, 1)
	r.NoteEvent("displace", "a.a", 0, 1)
	got := r.TakeDirty()
	if len(got) != 2 || got[0] != "a.a" || got[1] != "z.z" {
		t.Fatalf("TakeDirty = %v, want sorted [a.a z.z]", got)
	}
	if again := r.TakeDirty(); again != nil {
		t.Errorf("second TakeDirty = %v, want nil", again)
	}
}

func TestRecorderReset(t *testing.T) {
	r := New(8, 0.95)
	r.ObserveQuery("t", "a", trace.MechHit, nil, nil)
	before := r.SampleCount()
	r.Reset()
	if len(r.Series()) != 0 {
		t.Error("Reset left series behind")
	}
	r.ObserveQuery("t", "a", trace.MechHit, nil, nil)
	if r.SampleCount() != before+1 {
		t.Errorf("sample count restarted: %d", r.SampleCount())
	}
}

func TestSinkRoundTrip(t *testing.T) {
	var out bytes.Buffer
	sink := NewSink(&out)
	r := New(8, 0.95)
	r.SetSink(sink)

	buf := mkBuf(t, "t.a", []int{0, 1})
	r.ObserveQuery("t", "a", trace.MechIndexingScan, buf, nil)
	r.ObserveQuery("t", "a", trace.MechHit, buf, nil)
	sink.WriteSpan(SpanRecord{Seq: 7, Kind: "displace", Target: "t.a", Page: 3, N: 2})

	if st := sink.Stats(); st.Lines != 3 || st.Errors != 0 {
		t.Fatalf("sink stats = %+v", st)
	}

	var samples []SampleRecord
	var spans []SpanRecord
	n, err := ScanRecords(&out,
		func(rec SampleRecord) error { samples = append(samples, rec); return nil },
		func(rec SpanRecord) error { spans = append(spans, rec); return nil },
	)
	if err != nil || n != 3 {
		t.Fatalf("ScanRecords = %d, %v", n, err)
	}
	if len(samples) != 2 || len(spans) != 1 {
		t.Fatalf("decoded %d samples, %d spans", len(samples), len(spans))
	}
	if samples[0].Buffer != "t.a" || samples[0].Table != "t" || samples[0].Column != "a" {
		t.Errorf("sample envelope = %+v", samples[0])
	}
	if samples[0].Query != 1 || samples[1].Query != 2 {
		t.Errorf("sample ordinals = %d, %d", samples[0].Query, samples[1].Query)
	}
	if samples[1].Coverage != 0.5 || samples[1].Hits != 1 {
		t.Errorf("replayed sample = %+v", samples[1].Sample)
	}
	if spans[0].Kind != "displace" || spans[0].Seq != 7 || spans[0].N != 2 {
		t.Errorf("replayed span = %+v", spans[0])
	}
}

func TestScanRecordsRejectsMalformed(t *testing.T) {
	cases := []struct {
		name, input, wantErr string
	}{
		{"bad json", "{\"type\": \"sample\"\n", "line 1"},
		{"unknown type", "{\"type\":\"sample\",\"buffer\":\"x\"}\n{\"type\":\"mystery\"}\n", "line 2"},
		{"missing type", "{\"buffer\":\"x\"}\n", "line 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ScanRecords(strings.NewReader(tc.input), nil, nil)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error = %v, want mention of %q", err, tc.wantErr)
			}
		})
	}
	// Blank lines are tolerated; callback errors propagate with the line.
	cbErr := errors.New("boom")
	_, err := ScanRecords(strings.NewReader("\n{\"type\":\"span\",\"kind\":\"x\"}\n"),
		nil, func(SpanRecord) error { return cbErr })
	if err == nil || !errors.Is(err, cbErr) || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("callback error = %v", err)
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errors.New("disk full") }

func TestSinkWriteFailureNonFatal(t *testing.T) {
	sink := NewSink(failWriter{})
	sink.WriteSample(SampleRecord{Buffer: "t.a"})
	st := sink.Stats()
	if st.Lines != 0 || st.Errors != 1 {
		t.Errorf("stats after failure = %+v", st)
	}
	if err := sink.Err(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Errorf("Err() = %v", err)
	}
}
