// Command perfbench is the repository's end-to-end benchmark. It generates
// seeded workload inputs from the simulator, drives the real system (the
// moed daemon as a child process for the serving workloads, the simulator
// in-process for the evaluation loop), checks every output against a solo
// replay, and prints one JSON result line with every metric by name and
// unit.
//
//	bash perfbench/run.sh --workload wire-steady --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics. With --trace 1
// the measured window is split in two equal halves, untraced then traced;
// the result carries the per-layer metrics from the traced half, the
// ungated figures from the untraced half, and
// trace.overhead.<metric>, the traced value minus the untraced one for every
// end-to-end metric. Spans are kept in memory and written to
// .bench_build/traces/ when the run ends. README.md defines every metric.
//
// A correctness-gate mismatch fails the run: the result line says
// "correct": false and the exit code is 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// e2eUnits holds the unit of every end-to-end metric, by name. Every
// workload reports all of them; README.md says what each one measures on
// each workload.
var e2eUnits = map[string]string{
	"setup_s":             "s",
	"peak_rss_mb":         "MB",
	"p50_ms.low":          "ms",
	"p50_ms.high":         "ms",
	"cpu_us_per_decision": "us",
	"speedup_hmean":       "ratio",
}

// ungatedUnits are figures every workload also measures that vary too much
// between runs on a shared virtual machine to carry a bound (README.md,
// "Host noise"). A traced run reports them, from its untraced half, next to
// the per-layer metrics.
var ungatedUnits = map[string]string{
	"p99_ms.low":      "ms",
	"p99_ms.high":     "ms",
	"decisions_per_s": "1/s",
	"scenarios_per_s": "1/s",
}

// opts is one run's configuration.
type opts struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	moed     string // moed binary (serving workloads)
	work     string // per-run scratch directory inside the checkout
	tr       *tracer
	dirs     int
}

// newDir names a fresh directory under the run's scratch directory.
func (o *opts) newDir(prefix string) string {
	o.dirs++
	return filepath.Join(o.work, fmt.Sprintf("%s-%d", prefix, o.dirs))
}

// outcome is what one measured pass of a workload returns.
type outcome struct {
	e2e       map[string]float64
	layer     map[string]layerValue
	attempted int64
	failed    int64
	// mismatches are correctness-gate failures; any one fails the run.
	mismatches []string
	// report is free-form detail (phase counts, flags, limits) printed on
	// the report line.
	report map[string]any
}

type layerValue struct {
	v    float64
	unit string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]layerValue{}, report: map[string]any{}}
}

func (o *outcome) set(name string, v float64, unit string) { o.layer[name] = layerValue{v, unit} }

func (o *outcome) mismatch(format string, a ...any) {
	if len(o.mismatches) < 20 {
		o.mismatches = append(o.mismatches, fmt.Sprintf(format, a...))
	} else if len(o.mismatches) == 20 {
		o.mismatches = append(o.mismatches, "…further mismatches elided")
	}
}

type workloadFn func(o *opts) (*outcome, error)

var workloads = map[string]workloadFn{
	"wire-steady":  runWireSteady,
	"json-durable": runJSONDurable,
	"sim-eval":     runSimEval,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		wl      = flag.String("workload", "", "workload: wire-steady, json-durable or sim-eval")
		seed    = flag.Uint64("seed", 1, "seed for every generated input")
		seconds = flag.Float64("seconds", 25, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1: per-layer metrics from a traced half plus the tracing overhead")
		moed    = flag.String("moed", "", "path to the moed binary (serving workloads)")
		workDir = flag.String("work", ".bench_build/run", "scratch directory for checkpoint lineages and traces")
	)
	flag.Parse()
	fn, ok := workloads[*wl]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *wl)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if *wl != "sim-eval" && *moed == "" {
		fmt.Fprintln(os.Stderr, "perfbench: serving workloads need --moed")
		return 2
	}
	work, err := filepath.Abs(filepath.Join(*workDir, fmt.Sprintf("%s-%d-%d", *wl, *seed, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(work, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(work)

	// Children die with us on an interrupt; the deferred cleanup runs on
	// every normal return.
	defer killChildren()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		killChildren()
		os.RemoveAll(work)
		os.Exit(130)
	}()

	steal0 := stealSeconds()
	o := &opts{workload: *wl, seed: *seed, seconds: *seconds, moed: *moed, work: work}
	var res *outcome
	var base *outcome
	if *trace == 1 {
		o.seconds = *seconds / 2
		if base, err = fn(o); err == nil {
			o.traced = true
			o.tr = newTracer()
			res, err = fn(o)
		}
	} else {
		res, err = fn(o)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *wl, err)
		return 1
	}

	line := resultLine{Correct: true, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricOut{}}
	if base != nil {
		line.Attempted += base.attempted
		line.Failed += base.failed
		res.mismatches = append(base.mismatches, res.mismatches...)
		for name, unit := range e2eUnits {
			res.set("trace.overhead."+name, res.e2e[name]-base.e2e[name], unit)
		}
		for name, unit := range ungatedUnits {
			res.set(name, base.e2e[name], unit)
		}
		fr := 0.0
		if line.Attempted > 0 {
			fr = float64(line.Failed) / float64(line.Attempted)
		}
		res.set("fail_ratio", fr, "ratio")
		for name := range perLayerUnits {
			if _, ok := res.layer[name]; !ok {
				res.set(name, 0, perLayerUnits[name]) // layer bypassed by this workload
			}
		}
		for name, lv := range res.layer {
			if _, ok := perLayerUnits[name]; !ok {
				fmt.Fprintf(os.Stderr, "perfbench: internal: unlisted per-layer metric %q\n", name)
				return 1
			}
			line.Metrics[name] = metricOut{Value: finite(lv.v), Unit: lv.unit}
		}
		path, err := o.tr.write(*wl, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
		res.report["spans_file"] = path
	} else {
		for name, unit := range e2eUnits {
			v, ok := res.e2e[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "perfbench: internal: %s did not measure %s\n", *wl, name)
				return 1
			}
			line.Metrics[name] = metricOut{Value: finite(v), Unit: unit}
		}
	}
	line.Correct = len(res.mismatches) == 0
	for _, m := range res.mismatches {
		fmt.Fprintln(os.Stderr, "perfbench: correctness gate:", m)
	}

	res.report["host"] = hostBlock()
	// CPU time the hypervisor gave to other guests during the run: on a
	// shared host it is the main source of run-to-run latency spread.
	res.report["host_steal_s"] = stealSeconds() - steal0
	res.report["workload"] = *wl
	res.report["seed"] = *seed
	res.report["seconds"] = *seconds
	res.report["trace"] = *trace
	rep, err := json.Marshal(res.report)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: report:", err)
		return 1
	}
	fmt.Println("report " + string(rep))
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: result:", err)
		return 1
	}
	fmt.Println(string(out))
	if !line.Correct {
		return 1
	}
	return 0
}

// finite keeps the result line valid JSON whatever a division produced.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// hostBlock ties a number to where it came from.
func hostBlock() map[string]any {
	h := map[string]any{
		"cpus":       runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     commitID(),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(l, "model name") {
				if _, v, ok := strings.Cut(l, ":"); ok {
					h["cpu_model"] = strings.TrimSpace(v)
				}
				break
			}
		}
	}
	return h
}

// commitID is the git commit when the checkout is a repository, else
// "tree:" plus a digest of the module's Go sources and go.mod files, so a
// number from an exported tree still names the code that produced it.
func commitID() string {
	if b, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := strings.TrimSpace(string(b))
		if r, ok := strings.CutPrefix(ref, "ref: "); ok {
			if c, err := os.ReadFile(filepath.Join(".git", r)); err == nil {
				return strings.TrimSpace(string(c))
			}
			return ref
		}
		return ref
	}
	return "tree:" + sourceDigest(".")
}

// stealSeconds is the host-wide steal time from /proc/stat (0 when
// unavailable).
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return v / 100
}

// threadCPU is the calling thread's CPU time in seconds; the caller has
// locked its goroutine to the thread.
func threadCPU() float64 {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return float64(ts.Sec) + float64(ts.Nsec)/1e9
}

// since is seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
