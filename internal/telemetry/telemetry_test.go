package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestNilSafety(t *testing.T) {
	// A nil registry hands out nil metrics whose every operation is a
	// no-op: instrumented code must never need an "is telemetry on?" branch
	// beyond holding the possibly-nil registry.
	var reg *Registry
	c := reg.Counter("c", "")
	g := reg.Gauge("g", "")
	h := reg.Histogram("h", "", nil)
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(1)
	h.Observe(0.5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Error("nil metrics must read as zero")
	}
	if fams := reg.sortedFamilies(); fams != nil {
		t.Error("nil registry should expose nothing")
	}
}

func TestCounterAndGauge(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("requests_total", "Requests.")
	c.Inc()
	c.Add(4)
	c.Add(-10) // counters only go up
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if again := reg.Counter("requests_total", "Requests."); again != c {
		t.Error("same name+labels must return the same counter")
	}
	g := reg.Gauge("temp", "")
	g.Set(2.5)
	g.Add(-1)
	if g.Value() != 1.5 {
		t.Errorf("gauge = %v, want 1.5", g.Value())
	}
}

func TestRegistryLabels(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "", "kind", "a")
	b := reg.Counter("x_total", "", "kind", "b")
	if a == b {
		t.Fatal("different label values must be different counters")
	}
	a.Inc()
	if reg.Counter("x_total", "", "kind", "a").Value() != 1 {
		t.Error("labeled counter lookup must be stable")
	}
}

func TestRegistryKindMismatch(t *testing.T) {
	// A name reused under a different kind yields a detached but working
	// metric — never a panic in a hot path.
	reg := NewRegistry()
	reg.Counter("x", "")
	g := reg.Gauge("x", "")
	g.Set(7)
	if g.Value() != 7 {
		t.Error("detached metric must still work")
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "7") {
		t.Error("detached metric must not be exposed")
	}
}

func TestRegistrySeriesLimit(t *testing.T) {
	reg := NewRegistry()
	reg.SetSeriesLimit(2, "labels_dropped_total")

	// Up to the cap, labeled series register normally.
	a := reg.Counter("tenant_total", "", "tenant", "a")
	b := reg.Counter("tenant_total", "", "tenant", "b")
	a.Inc()
	b.Inc()
	if got := reg.Counter("labels_dropped_total", "").Value(); got != 0 {
		t.Fatalf("at the cap nothing is dropped, counter=%d", got)
	}

	// The first series past the cap is refused: a working, unexposed
	// detached metric plus one overflow count per refused request.
	c := reg.Counter("tenant_total", "", "tenant", "c")
	c.Inc()
	if c.Value() != 1 {
		t.Error("dropped metric must still work")
	}
	if got := reg.Counter("labels_dropped_total", "").Value(); got != 1 {
		t.Fatalf("one dropped series, counter=%d", got)
	}
	// The cap refuses per request, so a re-lookup of the same overflow
	// label set is a fresh detached metric and another overflow count.
	if reg.Counter("tenant_total", "", "tenant", "c") == c {
		t.Error("refused label sets are not cached")
	}
	if got := reg.Counter("labels_dropped_total", "").Value(); got != 2 {
		t.Fatalf("overflow counts per refused request, counter=%d", got)
	}

	// Series admitted before the cap keep resolving to the live metric,
	// and unlabeled series are exempt from the cap.
	if reg.Counter("tenant_total", "", "tenant", "a") != a {
		t.Error("admitted label set must stay stable past the cap")
	}
	u := reg.Counter("tenant_total", "")
	u.Inc()

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `tenant_total{tenant="a"} 1`) || !strings.Contains(out, "tenant_total 1") {
		t.Errorf("admitted series missing from exposition:\n%s", out)
	}
	if strings.Contains(out, `tenant="c"`) {
		t.Errorf("refused series must not be exposed:\n%s", out)
	}
	if !strings.Contains(out, "labels_dropped_total 2") {
		t.Errorf("overflow counter missing from exposition:\n%s", out)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 3, 3, 5, 100} {
		h.Observe(v)
	}
	h.Observe(math.NaN()) // ignored
	if h.Count() != 8 {
		t.Fatalf("count = %d, want 8", h.Count())
	}
	if math.Abs(h.Sum()-117.5) > 1e-9 {
		t.Errorf("sum = %v, want 117.5", h.Sum())
	}
	// The median rank (4 of 8) lands in the (2,4] bucket.
	if q := h.Quantile(0.5); q <= 2 || q > 4 {
		t.Errorf("p50 = %v, want in (2,4]", q)
	}
	// A quantile in the overflow bucket reports the highest finite bound.
	if q := h.Quantile(0.999); q != 8 {
		t.Errorf("p99.9 = %v, want 8", q)
	}
	if q := h.Quantile(-1); q < 0 {
		t.Errorf("clamped quantile went negative: %v", q)
	}
	var empty Histogram
	if empty.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile must be 0")
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1e-6, 10, 4)
	want := []float64{1e-6, 1e-5, 1e-4, 1e-3}
	for i := range want {
		if math.Abs(b[i]-want[i]) > want[i]*1e-9 {
			t.Fatalf("bucket %d = %v, want %v", i, b[i], want[i])
		}
	}
	if b := ExpBuckets(-1, 0.5, 0); len(b) != 1 {
		t.Error("degenerate inputs must yield a usable bucket list")
	}
	defb := DefLatencyBuckets()
	for i := 1; i < len(defb); i++ {
		if defb[i] <= defb[i-1] {
			t.Fatal("default buckets must ascend")
		}
	}
}

func TestConcurrentMetrics(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				reg.Counter("c", "").Inc()
				reg.Gauge("g", "").Set(float64(i))
				reg.Histogram("h", "", nil).Observe(1e-4)
			}
		}()
	}
	wg.Wait()
	if v := reg.Counter("c", "").Value(); v != 8000 {
		t.Errorf("counter = %d, want 8000", v)
	}
	if v := reg.Histogram("h", "", nil).Count(); v != 8000 {
		t.Errorf("histogram count = %d, want 8000", v)
	}
}

func TestConcurrentCreateAndScrape(t *testing.T) {
	// Scraping while other goroutines lazily register new label sets (as
	// RegistrySink does per expert and per health transition) must never
	// touch a family's metrics map outside the registry lock — under -race
	// this test catches both the Go race detector report and the runtime's
	// fatal "concurrent map read and map write".
	//
	// The label space is bounded: each writer registers a fixed number of
	// fresh label sets and the scraper keeps scraping until every writer is
	// done, so inserts land mid-walk on any CPU count while the work (and
	// each scrape's cost) stays fixed. Unbounded writers outpace the scraper
	// once they run in parallel with it, and the registry then grows
	// without limit.
	const writers, perWriter = 4, 64
	reg := NewRegistry()
	ready := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Gosched shares the P with the scraper on single-CPU runners —
			// without it the scrapes and the inserts never interleave there.
			for i := w; i < writers*perWriter; i += writers {
				reg.Counter("moe_expert_selections_total", "", "expert", strconv.Itoa(i)).Inc()
				reg.Gauge("g", "", "w", strconv.Itoa(i)).Set(float64(i))
				reg.Histogram("h", "", nil, "w", strconv.Itoa(i)).Observe(1e-4)
				once.Do(func() { close(ready) })
				runtime.Gosched()
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	<-ready
	for scrapes := 0; ; scrapes++ {
		if scrapes > 0 {
			select {
			case <-done:
				return
			default:
			}
		}
		if err := reg.WritePrometheus(io.Discard); err != nil {
			t.Fatalf("WritePrometheus: %v", err)
		}
		if err := reg.WriteJSON(io.Discard); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		runtime.Gosched()
	}
}

func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c_total", "", "kind", "quote\"back\\slash\nnewline").Inc()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `c_total{kind="quote\"back\\slash\nnewline"} 1`
	if !strings.Contains(buf.String(), want) {
		t.Errorf("label value not escaped per text format:\nwant %s\ngot  %s", want, buf.String())
	}
	// Lookup with the same raw value must hit the same counter.
	if reg.Counter("c_total", "", "kind", "quote\"back\\slash\nnewline").Value() != 1 {
		t.Error("escaped label lookup must be stable")
	}
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("moe_decisions_total", "Decisions.").Add(3)
	reg.Gauge("moe_threads", "Threads.").Set(4)
	reg.Counter("moe_repaired_values_total", "Repairs.", "stage", "runtime").Inc()
	h := reg.Histogram("moe_decision_seconds", "Latency.", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.5)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP moe_decisions_total Decisions.",
		"# TYPE moe_decisions_total counter",
		"moe_decisions_total 3",
		"# TYPE moe_threads gauge",
		"moe_threads 4",
		`moe_repaired_values_total{stage="runtime"} 1`,
		"# TYPE moe_decision_seconds histogram",
		`moe_decision_seconds_bucket{le="0.001"} 1`,
		`moe_decision_seconds_bucket{le="0.01"} 1`,
		`moe_decision_seconds_bucket{le="+Inf"} 2`,
		"moe_decision_seconds_sum 0.5005",
		"moe_decision_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// Deterministic: two scrapes of an idle registry are byte-identical.
	var buf2 bytes.Buffer
	if err := reg.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Error("idle scrapes differ")
	}
}

func TestWritePrometheusLabeledHistogram(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("lat", "", []float64{1}, "op", "append").Observe(0.5)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `lat_bucket{op="append",le="1"} 1`) {
		t.Errorf("le label not merged into label set:\n%s", buf.String())
	}
}

func TestWriteJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c_total", "").Add(2)
	reg.Histogram("h", "", []float64{1, 2}).Observe(1.5)
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]struct {
		Type      string             `json:"type"`
		Value     any                `json:"value"`
		Count     int64              `json:"count"`
		Quantiles map[string]float64 `json:"quantiles"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if doc["c_total"].Type != "counter" || doc["c_total"].Value.(float64) != 2 {
		t.Errorf("counter = %+v", doc["c_total"])
	}
	if doc["h"].Count != 1 || doc["h"].Quantiles["p50"] == 0 {
		t.Errorf("histogram = %+v", doc["h"])
	}
}

func TestMux(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("up_total", "").Inc()
	srv := httptest.NewServer(Mux(reg))
	defer srv.Close()

	get := func(path string) (string, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.String(), resp.Header.Get("Content-Type")
	}

	body, ct := get("/metrics")
	if !strings.HasPrefix(ct, "text/plain") || !strings.Contains(body, "up_total 1") {
		t.Errorf("/metrics: ct=%q body=%q", ct, body)
	}
	body, ct = get("/metrics.json")
	if !strings.HasPrefix(ct, "application/json") || !strings.Contains(body, `"counter"`) {
		t.Errorf("/metrics.json: ct=%q body=%q", ct, body)
	}
	if body, _ = get("/debug/pprof/cmdline"); body == "" {
		t.Error("/debug/pprof/cmdline empty")
	}
}

func TestMultiSink(t *testing.T) {
	if MultiSink() != nil || MultiSink(nil, nil) != nil {
		t.Error("no usable sinks must compose to nil")
	}
	tw := NewTraceWriter(&bytes.Buffer{})
	if MultiSink(nil, tw) != Sink(tw) {
		t.Error("a single usable sink must come back unwrapped")
	}
	var buf bytes.Buffer
	w1, w2 := NewTraceWriter(&buf), NewTraceWriter(&buf)
	ms := MultiSink(w1, w2)
	ms.RecordDecision(&Record{Seq: 0, Threads: 2})
	_ = w1.Flush()
	_ = w2.Flush()
	recs, err := ReadTrace(&buf)
	if err != nil || len(recs) != 2 {
		t.Fatalf("fan-out: %d records, err %v", len(recs), err)
	}
}

// A typed-nil *TraceWriter slips past MultiSink's interface nil check
// (callers like moerun compose `MultiSink(regSink, traceW)` with traceW
// declared but never created); every method must no-op on a nil receiver
// rather than dereference it mid-decision.
func TestTraceWriterNilReceiver(t *testing.T) {
	var tw *TraceWriter
	s := MultiSink(nil, tw)
	if s == nil {
		t.Fatal("typed nil composes to a non-nil sink; this test must exercise it")
	}
	s.RecordDecision(&Record{Seq: 1, Threads: 2}) // must not panic
	if err := tw.Flush(); err != nil {
		t.Errorf("nil Flush: %v", err)
	}
	if err := tw.Err(); err != nil {
		t.Errorf("nil Err: %v", err)
	}
	if err := tw.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
}

func TestRegistrySink(t *testing.T) {
	reg := NewRegistry()
	sink := NewRegistrySink(reg)
	sink.RecordDecision(&Record{
		Seq: 0, Threads: 4, SelectedExpert: 2, FallbackRung: "selector",
		RuntimeRepaired: 1, DecisionNanos: 1000, JournalNanos: 500,
	})
	sink.RecordDecision(&Record{
		Seq: 1, Threads: 2, SelectedExpert: -1, FallbackRung: "os-default",
		Suspect: true, DecisionNanos: 2000, CheckpointErr: "disk gone",
		HealthEvents: []HealthEvent{{Expert: 0, From: "ok", To: "quarantined"}},
	})
	checks := []struct {
		name   string
		labels []string
		want   int64
	}{
		{"moe_decisions_total", nil, 2},
		{"moe_suspect_observations_total", nil, 1},
		{"moe_fallback_decisions_total", nil, 1},
		{"moe_repaired_values_total", []string{"stage", "runtime"}, 1},
		{"moe_quarantines_total", nil, 1},
		{"moe_expert_selections_total", []string{"expert", "2"}, 1},
		{"moe_health_transitions_total", []string{"to", "quarantined"}, 1},
		{"moe_checkpoint_errors_total", nil, 1},
	}
	for _, c := range checks {
		if got := reg.Counter(c.name, "", c.labels...).Value(); got != c.want {
			t.Errorf("%s%v = %d, want %d", c.name, c.labels, got, c.want)
		}
	}
	if reg.Gauge("moe_checkpoint_degraded", "").Value() != 1 {
		t.Error("degraded gauge not set")
	}
	if reg.Histogram("moe_decision_seconds", "", nil).Count() != 2 {
		t.Error("decision latency not observed")
	}
	if reg.Histogram("moe_checkpoint_journal_seconds", "", nil).Count() != 1 {
		t.Error("journal latency not observed")
	}
	// A clean record clears the degraded gauge again.
	sink.RecordDecision(&Record{Seq: 2, Threads: 1, SelectedExpert: -1})
	if reg.Gauge("moe_checkpoint_degraded", "").Value() != 0 {
		t.Error("degraded gauge not cleared")
	}
}

func TestTraceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.ndjson")
	tw, err := CreateTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{Seq: 0, Time: 1.5, Threads: 4, SelectedExpert: 1, FallbackRung: "selector",
			RawFeatures: []float64{1, 2}, Features: []float64{1, 2},
			GatingErrors: []float64{0.1, 0.2}, AvailableProcs: 4, DecisionNanos: 123},
		{Seq: 1, Time: 2.5, Threads: 1, SelectedExpert: -1, FallbackRung: "os-default",
			Suspect:       true,
			HealthEvents:  []HealthEvent{{Expert: 1, From: "ok", To: "quarantined"}},
			CheckpointErr: "boom"},
	}
	for i := range want {
		tw.RecordDecision(&want[i])
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("round-trip lost records: %d of %d", len(got), len(want))
	}
	a, _ := json.Marshal(got)
	b, _ := json.Marshal(want)
	if !bytes.Equal(a, b) {
		t.Errorf("round-trip mismatch:\n%s\n%s", a, b)
	}
}

func TestTraceTornTail(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	tw.RecordDecision(&Record{Seq: 0, Threads: 2})
	tw.RecordDecision(&Record{Seq: 1, Threads: 3})
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	full := buf.String()

	// A torn final line — the signature of a crashed writer — ends the
	// trace cleanly with everything before it.
	torn := full[:len(full)-10]
	recs, err := ReadTrace(strings.NewReader(torn))
	if err != nil {
		t.Fatalf("torn tail must be tolerated: %v", err)
	}
	if len(recs) != 1 || recs[0].Seq != 0 {
		t.Fatalf("torn trace: %d records", len(recs))
	}

	// Corruption in the middle is an error.
	lines := strings.SplitN(full, "\n", 2)
	bad := lines[0][:len(lines[0])-5] + "\n" + lines[1]
	if _, err := ReadTrace(strings.NewReader(bad)); err == nil {
		t.Fatal("mid-stream corruption must be an error")
	}

	// Blank lines are skipped.
	recs, err = ReadTrace(strings.NewReader("\n" + full + "\n"))
	if err != nil || len(recs) != 2 {
		t.Fatalf("blank lines: %d records, err %v", len(recs), err)
	}
}

func TestTraceWriterLatchesError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.ndjson")
	tw, err := CreateTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	// Close the file out from under the writer: the next flush fails, the
	// error latches, and later records are dropped instead of panicking.
	tw.f.Close()
	for i := 0; i < 10000; i++ {
		tw.RecordDecision(&Record{Seq: i})
	}
	_ = tw.Flush()
	if tw.Err() == nil {
		t.Fatal("write error did not latch")
	}
	tw.f = nil // already closed
	_ = os.Remove(path)
}
