package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one moed child process.
type daemon struct {
	cmd        *exec.Cmd
	base       string // http://127.0.0.1:port
	streamAddr string // raw wire listener, "" when not enabled
	stderr     *tailBuffer
	done       chan struct{}
	waitErr    error
}

var (
	childMu  sync.Mutex
	children = map[*daemon]struct{}{}
)

// killChildren SIGKILLs and reaps every daemon still running.
func killChildren() {
	childMu.Lock()
	list := make([]*daemon, 0, len(children))
	for d := range children {
		list = append(list, d)
	}
	childMu.Unlock()
	for _, d := range list {
		d.kill()
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startMoed launches bin with args plus its own -listen (and -stream-addr
// when stream is set) and waits until /healthz answers.
func startMoed(bin string, stream bool, args ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	d := &daemon{base: fmt.Sprintf("http://127.0.0.1:%d", port), stderr: &tailBuffer{max: 8 << 10},
		done: make(chan struct{})}
	full := append([]string{"-listen", fmt.Sprintf("127.0.0.1:%d", port), "-quiet"}, args...)
	if stream {
		sp, err := freePort()
		if err != nil {
			return nil, err
		}
		d.streamAddr = fmt.Sprintf("127.0.0.1:%d", sp)
		full = append(full, "-stream-addr", d.streamAddr)
	}
	d.cmd = exec.Command(bin, full...)
	// The daemon dies with the benchmark even when a crash skips cleanup.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d.cmd.Stdout = io.Discard
	d.cmd.Stderr = d.stderr
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting moed: %w", err)
	}
	childMu.Lock()
	children[d] = struct{}{}
	childMu.Unlock()
	go func() {
		d.waitErr = d.cmd.Wait()
		childMu.Lock()
		delete(children, d)
		childMu.Unlock()
		close(d.done)
	}()
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			// A standby answers healthz too; any answer means listening.
			break
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("moed exited during start-up: %v: %s", d.waitErr, d.stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("moed did not come up: %s", d.stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if stream {
		for {
			c, err := net.DialTimeout("tcp", d.streamAddr, time.Second)
			if err == nil {
				c.Close()
				break
			}
			if time.Now().After(deadline) {
				d.kill()
				return nil, fmt.Errorf("moed stream listener did not come up: %v", err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return d, nil
}

// drain sends SIGTERM and waits for a clean exit inside the window.
func (d *daemon) drain(window time.Duration) error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signalling moed: %w", err)
	}
	select {
	case <-d.done:
		if d.waitErr != nil {
			return fmt.Errorf("moed drain: %v: %s", d.waitErr, d.stderr.String())
		}
		return nil
	case <-time.After(window):
		d.kill()
		return fmt.Errorf("moed did not drain within %s", window)
	}
}

// kill SIGKILLs the process and waits until it is reaped.
func (d *daemon) kill() {
	select {
	case <-d.done:
		return
	default:
	}
	_ = d.cmd.Process.Kill() // already exiting is fine; Wait reaps it
	<-d.done
}

// pid of the running process.
func (d *daemon) pid() int { return d.cmd.Process.Pid }

// tailBuffer keeps the last max bytes written (child stderr).
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
	max int
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > t.max {
		t.buf = t.buf[len(t.buf)-t.max:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.TrimSpace(string(t.buf))
}

// scrape is one parsed Prometheus exposition: series key (name plus label
// string, exactly as exposed) to value.
type scrape map[string]float64

// scrapeMetrics fetches and parses /metrics, returning the body size too.
func scrapeMetrics(client *http.Client, base string) (scrape, int, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	out := scrape{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, len(body), sc.Err()
}

// delta is after minus before for one series (missing counts as 0).
func delta(before, after scrape, key string) float64 { return after[key] - before[key] }

// sumFamily adds up every series whose key starts with prefix.
func (s scrape) sumFamily(prefix string) float64 {
	var t float64
	for k, v := range s {
		if strings.HasPrefix(k, prefix) {
			t += v
		}
	}
	return t
}

// histQuantile estimates the q-quantile of an unlabelled histogram family's
// observations between two scrapes, interpolating inside the bucket the
// quantile lands in (Prometheus' histogram_quantile).
func histQuantile(before, after scrape, name string, q float64) float64 {
	type bucket struct {
		le  float64
		cum float64
	}
	var bs []bucket
	prefix := name + `_bucket{le="`
	for k, v := range after {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		leStr := strings.TrimSuffix(k[len(prefix):], `"}`)
		le := math.Inf(1)
		if leStr != "+Inf" {
			f, err := strconv.ParseFloat(leStr, 64)
			if err != nil {
				continue
			}
			le = f
		}
		bs = append(bs, bucket{le, v - before[k]})
	}
	if len(bs) == 0 {
		return 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := bs[len(bs)-1].cum
	if total <= 0 {
		return 0
	}
	rank := q * total
	prevLE, prevCum := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= rank {
			if b.le == math.Inf(1) {
				return prevLE
			}
			in := b.cum - prevCum
			if in <= 0 {
				return b.le
			}
			return prevLE + (b.le-prevLE)*(rank-prevCum)/in
		}
		prevLE, prevCum = b.le, b.cum
	}
	return prevLE
}

// memStats is the runtime.MemStats block of /debug/pprof/heap?debug=1.
type memStats struct {
	TotalAlloc, Mallocs, NumGC, MaxRSS float64
	PauseNs                            []float64 // ring of the last 256 pauses
}

// pauseMsSince sums the GC pauses after before's last cycle, up to this
// snapshot; past the ring's 256 entries it scales the ring's sum.
func (m memStats) pauseMsSince(before memStats) float64 {
	n0, n1 := int(before.NumGC), int(m.NumGC)
	if len(m.PauseNs) != 256 || n1 <= n0 {
		return 0
	}
	var sum float64
	if n1-n0 > 256 {
		for _, p := range m.PauseNs {
			sum += p
		}
		return sum * float64(n1-n0) / 256 / 1e6
	}
	for k := n0 + 1; k <= n1; k++ {
		sum += m.PauseNs[(k-1)%256]
	}
	return sum / 1e6
}

func fetchMemStats(client *http.Client, base string) (memStats, error) {
	var m memStats
	resp, err := client.Get(base + "/debug/pprof/heap?debug=1")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	fields := map[string]*float64{
		"TotalAlloc": &m.TotalAlloc, "Mallocs": &m.Mallocs, "NumGC": &m.NumGC, "MaxRSS": &m.MaxRSS,
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, "# ")
		if !ok {
			continue
		}
		k, v, ok := strings.Cut(rest, " = ")
		if ok && k == "PauseNs" {
			for _, f := range strings.Fields(strings.Trim(v, "[]")) {
				if p, err := strconv.ParseFloat(f, 64); err == nil {
					m.PauseNs = append(m.PauseNs, p)
				}
			}
			continue
		}
		if p := fields[k]; ok && p != nil {
			if f, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil {
				*p = f
			}
		}
	}
	if err := sc.Err(); err != nil {
		return m, err
	}
	if m.MaxRSS == 0 {
		return m, errors.New("pprof heap: no MaxRSS line")
	}
	return m, nil
}

// procCPUSeconds is utime+stime of pid from /proc (clock ticks at 100 Hz,
// the Linux USER_HZ).
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("unparsable /proc stat times")
	}
	return (ut + st) / 100, nil
}

// probe brackets a measured phase on one daemon: /metrics and MemStats
// before and after.
type probe struct {
	m0, m1   scrape
	ms0, ms1 memStats
}

func (p *probe) begin(client *http.Client, d *daemon) error {
	var err error
	if p.m0, _, err = scrapeMetrics(client, d.base); err != nil {
		return err
	}
	p.ms0, err = fetchMemStats(client, d.base)
	return err
}

func (p *probe) end(client *http.Client, d *daemon) error {
	var err error
	if p.m1, _, err = scrapeMetrics(client, d.base); err != nil {
		return err
	}
	p.ms1, err = fetchMemStats(client, d.base)
	return err
}

// serveLayers fills the serve-layer metrics every serving workload shares
// from a bracketed phase that served `decisions` decisions.
func (p *probe) serveLayers(o *outcome, decisions float64) {
	if decisions <= 0 {
		return
	}
	o.set("serve.alloc_bytes_per_decision", (p.ms1.TotalAlloc-p.ms0.TotalAlloc)/decisions, "B")
	o.set("serve.mallocs_per_decision", (p.ms1.Mallocs-p.ms0.Mallocs)/decisions, "count")
	o.set("serve.gc_pause_ms", p.ms1.pauseMsSince(p.ms0), "ms")
	o.set("serve.gc_cycles", p.ms1.NumGC-p.ms0.NumGC, "count")
	o.set("serve.shed", p.m1.sumFamily("serve_shed_total")-p.m0.sumFamily("serve_shed_total"), "count")
	o.set("serve.deadline_exceeded", delta(p.m0, p.m1, "serve_deadline_exceeded_total"), "count")
	o.set("serve.dedup_hits", delta(p.m0, p.m1, "serve_dedup_hits_total"), "count")
}
