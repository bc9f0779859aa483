package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"

	"moe"
	"moe/internal/experiments"
	"moe/internal/features"
	"moe/internal/serve"
)

// Plumbing shared by the gated studies (serve, stream, replica, evolve):
// the gate that every run path applies, the one observation stream every
// daemon study serves and replays, and the JSON client the HTTP arms use.

// studyMaxThreads is the machine cap of every runtime the daemon studies
// build, served and solo alike.
const studyMaxThreads = 32

// gatedReport is a study report carrying its own correctness gate.
type gatedReport interface {
	table() *experiments.Table
	check() error
}

// gate renders a gated study's report and returns the gate's verdict with
// it, so -experiment, -all and the tests fail on exactly the same bounds.
func gate[R gatedReport](rep R, err error) (*experiments.Table, error) {
	if err != nil {
		return nil, err
	}
	return rep.table(), rep.check()
}

// evolveReport gates the drifting-machine study: a living pool that does
// not beat the same pool frozen has not paid for its lifecycle.
type evolveReport experiments.EvolveReport

func runEvolve() (*evolveReport, error) {
	rep, err := experiments.RunEvolveStudy(experiments.DefaultEvolveOptions())
	return (*evolveReport)(rep), err
}

func (r *evolveReport) table() *experiments.Table {
	return experiments.EvolveStudyTable((*experiments.EvolveReport)(r))
}

func (r *evolveReport) check() error {
	if r.LivingAdvantage <= 1 {
		return fmt.Errorf("living pool hmean speedup %.4f does not beat frozen %.4f",
			r.HMeanLivingSpeedup, r.HMeanFrozenSpeedup)
	}
	return nil
}

// studyObservation is observation k of the steady stream a tenant with
// the given seed serves: clean features perturbed per tenant, full
// availability, a monotone clock.
func studyObservation(seed, k int) moe.Observation {
	var f moe.Features
	for j := range f {
		f[j] = 0.15*float64(j+1) + 0.02*float64((k*7+j*3+seed)%11)
	}
	f[features.Processors] = studyMaxThreads
	return moe.Observation{
		Time:           0.25 * float64(k),
		Features:       f,
		RegionStart:    k%4 == 0,
		Rate:           100 + float64(seed%13),
		AvailableProcs: studyMaxThreads,
	}
}

// fillObservations fills obs with observations [from, from+len(obs)) of
// the stream.
func fillObservations(obs []moe.Observation, seed, from int) {
	for i := range obs {
		obs[i] = studyObservation(seed, from+i)
	}
}

// jsonObservation is an observation in the daemon's JSON wire form.
type jsonObservation struct {
	Time           float64      `json:"time"`
	Features       moe.Features `json:"features"`
	RegionStart    bool         `json:"region_start"`
	Rate           float64      `json:"rate"`
	AvailableProcs int          `json:"available_procs"`
}

// jsonRequest is one decide request in the daemon's JSON wire form.
type jsonRequest struct {
	Tenant       string            `json:"tenant"`
	Observations []jsonObservation `json:"observations"`
	RequestID    string            `json:"request_id,omitempty"`
}

// jsonBatch encodes observations [from, from+n) of a tenant's stream.
func jsonBatch(seed, from, n int) []jsonObservation {
	out := make([]jsonObservation, n)
	for i := range out {
		o := studyObservation(seed, from+i)
		out[i] = jsonObservation{o.Time, o.Features, o.RegionStart, o.Rate, o.AvailableProcs}
	}
	return out
}

// tenantSeed derives a tenant's stream seed from its id.
func tenantSeed(id string) int {
	seed := 0
	for _, c := range id {
		seed = seed*31 + int(c)
	}
	if seed < 0 {
		seed = -seed
	}
	return seed
}

// soloServeThreads replays a tenant's first n observations on a lone
// runtime: the ground truth every served trace is checked against.
func soloServeThreads(id string, n int) ([]int, error) {
	p, err := serve.DefaultPolicyBuild(id)
	if err != nil {
		return nil, err
	}
	rt, err := moe.NewRuntime(p, studyMaxThreads)
	if err != nil {
		return nil, err
	}
	obs := make([]moe.Observation, n)
	fillObservations(obs, tenantSeed(id), 0)
	return rt.DecideBatch(obs), nil
}

// startServer brings up one in-process daemon on a loopback port and
// returns it, its base URL and a stop func that closes both.
func startServer(cfg serve.Config) (*serve.Server, string, func(), error) {
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return nil, "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, "", nil, err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	stop := func() {
		httpSrv.Close()
		srv.Close()
	}
	return srv, "http://" + ln.Addr().String(), stop, nil
}

type serveClient struct {
	base   string
	client *http.Client
}

type serveWireResp struct {
	Threads   []int  `json:"threads"`
	Decisions int64  `json:"decisions"`
	Code      string `json:"code"`
}

// post sends one JSON decide batch, observations [from, from+n) of the
// tenant's stream, under an idempotency key when reqID is set. It returns
// the HTTP status and the decoded body (response and error shapes share
// the struct).
func (c *serveClient) post(tenant string, from, n, deadlineMs int, reqID string) (int, *serveWireResp, error) {
	body, err := json.Marshal(jsonRequest{tenant, jsonBatch(tenantSeed(tenant), from, n), reqID})
	if err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/decide", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if deadlineMs > 0 {
		req.Header.Set("X-Deadline-Ms", strconv.Itoa(deadlineMs))
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var out serveWireResp
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, &out, nil
}
