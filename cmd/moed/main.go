// Command moed is the multi-tenant decision daemon: many independent
// tenant runtimes behind one HTTP/NDJSON decision API, wrapped in the
// robustness envelope of internal/serve — admission control, per-request
// deadlines, per-tenant circuit breakers, a wedge watchdog, and SIGTERM
// graceful drain (stop admitting, flush in-flight, checkpoint every
// tenant, exit 0 within the drain window).
//
//	moed -listen :7077 -checkpoint-dir /var/lib/moed
//
// Endpoints: POST /v1/decide (JSON, or NDJSON stream with Content-Type
// application/x-ndjson), POST /v1/stream (upgrade to the binary wire
// protocol; also served raw on -stream-addr), GET /v1/tenants,
// /healthz, /metrics, /metrics.json, /debug/pprof. See DESIGN.md
// §13 and §16.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"moe/internal/serve"
)

func main() {
	var (
		listen          = flag.String("listen", ":7077", "address to serve on")
		streamAddr      = flag.String("stream-addr", "", "TCP address for the raw wire streaming transport (empty = HTTP-only; POST /v1/stream upgrades either way)")
		groupCommit     = flag.Duration("group-commit-window", 0, "with -checkpoint-sync, share each batch's journal fsync across tenants inside this window (0 = one fsync per batch at once; try 1ms)")
		checkpointDir   = flag.String("checkpoint-dir", "", "root directory for per-tenant checkpoint lineages (empty = ephemeral tenants)")
		checkpointEvery = flag.Int("checkpoint-every", serve.DefCheckpointEvery, "snapshot cadence in decisions per tenant")
		checkpointSync  = flag.Bool("checkpoint-sync", false, "make every acked batch durable: one journal fsync per committed batch, run alongside the replica ship; the ack waits for both (safer, slower)")
		maxThreads      = flag.Int("max-threads", serve.DefMaxThreads, "machine thread cap for tenant runtimes")
		maxTenants      = flag.Int("max-tenants", serve.DefMaxTenants, "tenant registry bound")
		maxInflight     = flag.Int("max-inflight", serve.DefMaxInflight, "concurrent decision request bound (excess sheds 503)")
		rate            = flag.Float64("rate", 0, "admission token-bucket rate in requests/sec (0 = unlimited; excess sheds 429)")
		burst           = flag.Int("burst", 0, "token-bucket depth (0 derives from -rate)")
		deadlineMs      = flag.Int("deadline-ms", int(serve.DefDefaultDeadline/time.Millisecond), "default per-request deadline when X-Deadline-Ms is absent")
		maxBatch        = flag.Int("max-batch", serve.DefMaxBatch, "observations per request body bound")
		wedgeTimeout    = flag.Duration("wedge-timeout", serve.DefWedgeTimeout, "in-flight decision budget before the watchdog recycles the tenant")
		drainWindow     = flag.Duration("drain-window", serve.DefDrainWindow, "SIGTERM graceful-drain bound")
		faultInjection  = flag.Bool("fault-injection", false, "wrap chaos-panic-*/chaos-stall-* tenants with injected faults (testing only)")
		quiet           = flag.Bool("quiet", false, "suppress operational log lines")
		replicateTo     = flag.String("replicate-to", "", "base URL of a hot standby; every committed checkpoint artifact is shipped there before the client ack")
		standby         = flag.Bool("standby", false, "run as a hot standby: apply shipped artifacts, refuse decisions until promoted via POST /v1/promote")
		replicaTerm     = flag.Uint64("replica-term", 0, "fencing term this primary ships at (a restarted primary of a promoted pair must pass the new term)")
		dedupWindow     = flag.Int("dedup-window", serve.DefDedupWindow, "per-tenant idempotency window: identified requests (X-Request-Id) remembered for exactly-once acks")
		promote         = flag.String("promote", "", "client mode: POST /v1/promote to this base URL, print the report, and exit")
	)
	flag.Parse()

	if *promote != "" {
		os.Exit(promoteStandby(*promote))
	}

	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	cfg := serve.Config{
		MaxThreads:        *maxThreads,
		CheckpointRoot:    *checkpointDir,
		CheckpointEvery:   *checkpointEvery,
		CheckpointSync:    *checkpointSync,
		GroupCommitWindow: *groupCommit,
		MaxTenants:        *maxTenants,
		MaxInflight:       *maxInflight,
		Rate:              *rate,
		Burst:             *burst,
		DefaultDeadline:   time.Duration(*deadlineMs) * time.Millisecond,
		MaxBatch:          *maxBatch,
		WedgeTimeout:      *wedgeTimeout,
		DrainWindow:       *drainWindow,
		ReplicateTo:       *replicateTo,
		ReplicaTerm:       *replicaTerm,
		Standby:           *standby,
		DedupWindow:       *dedupWindow,
		Logf:              logf,
	}
	if *faultInjection {
		cfg.PolicyBuild = serve.FaultInjectionBuild(serve.DefaultPolicyBuild)
		logf("moed: fault injection armed for %s-*/%s-* tenants", serve.ChaosPanicPrefix, serve.ChaosStallPrefix)
	}
	srv, err := serve.NewServer(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	httpSrv := &http.Server{Addr: *listen, Handler: srv.Handler()}
	drained := make(chan int, 1)
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		sig := <-sigs
		logf("moed: %s: draining (window %s)", sig, *drainWindow)
		rep, err := srv.Drain(*drainWindow)
		code := 0
		switch {
		case err != nil:
			logf("moed: drain: %v", err)
			code = 1
		case !rep.Clean():
			logf("moed: drain incomplete: timed_out=%v errors=%v", rep.TimedOut, rep.Errors)
			code = 1
		default:
			logf("moed: drain clean in %s: %d checkpointed, %d ephemeral, %d journal-only, %d wedged",
				rep.Elapsed.Round(time.Millisecond), rep.Checkpointed, rep.Ephemeral,
				len(rep.JournalOnly), len(rep.Wedged))
		}
		httpSrv.Close() // in-flight already flushed by Drain
		drained <- code
	}()

	if *streamAddr != "" {
		ln, err := net.Listen("tcp", *streamAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		logf("moed: wire streaming on %s", *streamAddr)
		go func() {
			if err := srv.ServeStream(ln); err != nil {
				logf("moed: stream listener: %v", err)
			}
		}()
	}

	role := "solo"
	switch {
	case *standby:
		role = "standby (decisions refused until promoted)"
	case *replicateTo != "":
		role = fmt.Sprintf("primary replicating to %s", *replicateTo)
	}
	logf("moed: serving on %s (checkpoint-dir=%q, role: %s)", *listen, *checkpointDir, role)
	if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	os.Exit(<-drained)
}

// promoteStandby is the -promote client mode: it asks the standby at base to
// take over serving and prints the promotion report (term, per-tenant
// recovered decision counts) as JSON on stdout.
func promoteStandby(base string) int {
	resp, err := http.Post(base+"/v1/promote", "application/json", nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "moed: promote: %v\n", err)
		return 1
	}
	defer resp.Body.Close()
	var rep serve.PromoteReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		fmt.Fprintf(os.Stderr, "moed: promote: decoding response (status %d): %v\n", resp.StatusCode, err)
		return 1
	}
	out, _ := json.MarshalIndent(rep, "", "  ")
	fmt.Println(string(out))
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "moed: promote: status %d\n", resp.StatusCode)
		return 1
	}
	return 0
}
