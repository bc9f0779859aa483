package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the tracer's origin; spans of one request share req.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    uint64 `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanStats aggregates every finished span of one name, stored or not.
type spanStats struct {
	durs  []int64 // nanoseconds
	total int64
	self  int64 // total minus the time child spans covered
}

// tracer keeps spans in memory. Every span feeds the per-name statistics;
// the first maxStoredSpans are also kept verbatim and written out at the end.
type tracer struct {
	origin  time.Time
	mu      sync.Mutex
	nextID  int64
	spans   []span
	dropped int64
	stats   map[string]*spanStats
}

const maxStoredSpans = 200_000

func newTracer() *tracer {
	return &tracer{origin: time.Now(), stats: map[string]*spanStats{}}
}

// ns converts a wall time to tracer nanoseconds.
func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.origin).Nanoseconds() }

// add records a finished span and returns its id. child is the time the
// span's own children covered (their durations, when they do not overlap).
func (t *tracer) add(name string, parent int64, req uint64, start, end time.Time, child time.Duration) int64 {
	id := t.reserve()
	t.addWithID(id, name, parent, req, start, end, child)
	return id
}

// reserve hands out an id for a parent span recorded after its children.
func (t *tracer) reserve() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// addWithID records a span under an id taken from reserve.
func (t *tracer) addWithID(id int64, name string, parent int64, req uint64, start, end time.Time, child time.Duration) {
	if t == nil {
		return
	}
	d := end.Sub(start).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.stats[name]
	if st == nil {
		st = &spanStats{}
		t.stats[name] = st
	}
	st.durs = append(st.durs, d)
	st.total += d
	st.self += d - child.Nanoseconds()
	if len(t.spans) < maxStoredSpans {
		t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req,
			Start: t.ns(start), End: t.ns(end)})
	} else {
		t.dropped++
	}
}

// quantile returns the q-quantile of the named spans' durations in ns.
func (t *tracer) quantile(name string, q float64) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.stats[name]
	if st == nil || len(st.durs) == 0 {
		return 0
	}
	v := make([]float64, len(st.durs))
	for i, d := range st.durs {
		v[i] = float64(d)
	}
	return quantile(v, q)
}

// mean returns the mean duration in ns of the named spans.
func (t *tracer) mean(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.stats[name]
	if st == nil || len(st.durs) == 0 {
		return 0
	}
	return float64(st.total) / float64(len(st.durs))
}

// write stores the spans as JSON lines under .bench_build/traces and
// returns the path. The last line summarizes every span name.
func (t *tracer) write(workload string, seed uint64) (string, error) {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return "", err
		}
	}
	type nameSummary struct {
		Count   int     `json:"count"`
		MeanNs  float64 `json:"mean_ns"`
		SelfNs  float64 `json:"self_mean_ns"`
		TotalNs int64   `json:"total_ns"`
	}
	sum := map[string]nameSummary{}
	for name, st := range t.stats {
		n := len(st.durs)
		sum[name] = nameSummary{Count: n, MeanNs: float64(st.total) / float64(n),
			SelfNs: float64(st.self) / float64(n), TotalNs: st.total}
	}
	if err := enc.Encode(map[string]any{"summary": sum, "stored": len(t.spans), "dropped": t.dropped}); err != nil {
		return "", err
	}
	if err := bw.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}

// quantile is the linear-interpolation quantile of v (v is sorted in
// place).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(pos)
	if lo >= len(v)-1 {
		return v[len(v)-1]
	}
	frac := pos - float64(lo)
	return v[lo] + frac*(v[lo+1]-v[lo])
}

// median of v (v is sorted in place).
func median(v []float64) float64 { return quantile(v, 0.5) }

// sourceDigest hashes the Go sources and module files under root, skipping
// build output, so a result from an exported tree names its code.
func sourceDigest(root string) string {
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && p != root) {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", p, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
