package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"time"

	"moe/internal/experiments"
	"moe/internal/serve"
)

// The replication study: the decision daemon's hot-standby cost, measured
// end to end. The same fixed workload — sequential per-tenant batches over
// real HTTP — runs twice: once standalone, once as a primary shipping every
// committed checkpoint artifact to a live standby (group flush before each
// ack, the exactly-once commit path). It reports sustained decisions/sec
// for both and the overhead ratio, and gates on the final replication lag
// (zero: every ack was shipped) and a scripted failover: the standby is
// promoted and every tenant must resume at exactly its acked decision
// count.

type replicaOpts struct {
	Tenants int // concurrent tenants
	Rounds  int // sequential batches per tenant
	Batch   int // observations per batch
}

func defaultReplicaOpts() replicaOpts {
	return replicaOpts{Tenants: 8, Rounds: 32, Batch: 16}
}

type replicaReport struct {
	Tenants int

	SoloDecisionsPerSec       float64
	ReplicatedDecisionsPerSec float64
	ReplicationOverhead       float64

	// FinalLag is shipments buffered on the primary but never applied by
	// the standby when the load stopped: 0 means every ack was preceded by
	// a complete group flush.
	FinalLag int64

	// Failover proof: after promoting the standby, every tenant resumed at
	// exactly its acked decision count.
	FailoverVerified int
	FailoverMismatch int

	Notes []string
}

// check is the study's gate: the pair never loses an acked decision.
func (r *replicaReport) check() error {
	var errs []error
	if r.FinalLag != 0 {
		errs = append(errs, fmt.Errorf("replication lag %d after load stopped: acked decisions not fully shipped", r.FinalLag))
	}
	if r.FailoverMismatch > 0 {
		errs = append(errs, fmt.Errorf("failover mismatch on %d tenants", r.FailoverMismatch))
	}
	return errors.Join(errs...)
}

// driveReplicaLoad runs the fixed workload against base and returns the
// elapsed wall time. One goroutine per tenant; each tenant's stream is
// strictly sequential, every request carries an idempotency key (the
// realistic client posture the dedup window exists for).
func driveReplicaLoad(base string, opts replicaOpts) (time.Duration, error) {
	errs := make(chan error, opts.Tenants)
	start := time.Now()
	for ti := 0; ti < opts.Tenants; ti++ {
		go func(ti int) {
			id := fmt.Sprintf("acct-%03d", ti)
			cl := &serveClient{base: base, client: &http.Client{Timeout: 30 * time.Second}}
			for r := 0; r < opts.Rounds; r++ {
				status, resp, err := cl.post(id, r*opts.Batch, opts.Batch,
					10000, fmt.Sprintf("req-%s-%d", id, r))
				if err != nil || status != http.StatusOK {
					errs <- fmt.Errorf("tenant %s round %d: status %d err %v", id, r, status, err)
					return
				}
				if want := int64((r + 1) * opts.Batch); resp.Decisions != want {
					errs <- fmt.Errorf("tenant %s round %d: decisions %d, want %d", id, r, resp.Decisions, want)
					return
				}
			}
			errs <- nil
		}(ti)
	}
	for ti := 0; ti < opts.Tenants; ti++ {
		if err := <-errs; err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

func runReplica(opts replicaOpts) (*replicaReport, error) {
	rep := &replicaReport{Tenants: opts.Tenants}
	totalDecisions := float64(opts.Tenants * opts.Rounds * opts.Batch)
	baseCfg := serve.Config{
		MaxThreads:      studyMaxThreads,
		CheckpointEvery: 128,
		MaxInflight:     opts.Tenants * 2,
	}

	// Leg 1: standalone.
	soloRoot, err := os.MkdirTemp("", "moed-replica-solo-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(soloRoot)
	soloCfg := baseCfg
	soloCfg.CheckpointRoot = soloRoot
	_, soloBase, soloStop, err := startServer(soloCfg)
	if err != nil {
		return nil, err
	}
	soloElapsed, err := driveReplicaLoad(soloBase, opts)
	soloStop()
	if err != nil {
		return nil, fmt.Errorf("solo leg: %w", err)
	}
	rep.SoloDecisionsPerSec = totalDecisions / soloElapsed.Seconds()

	// Leg 2: primary + hot standby on loopback.
	sbRoot, err := os.MkdirTemp("", "moed-replica-sb-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(sbRoot)
	primRoot, err := os.MkdirTemp("", "moed-replica-prim-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(primRoot)

	sbCfg := baseCfg
	sbCfg.Standby = true
	sbCfg.CheckpointRoot = sbRoot
	_, sbBase, sbStop, err := startServer(sbCfg)
	if err != nil {
		return nil, err
	}
	defer sbStop()

	primCfg := baseCfg
	primCfg.CheckpointRoot = primRoot
	primCfg.ReplicateTo = sbBase
	primSrv, primBase, primStop, err := startServer(primCfg)
	if err != nil {
		return nil, err
	}
	replElapsed, err := driveReplicaLoad(primBase, opts)
	if err != nil {
		primStop()
		return nil, fmt.Errorf("replicated leg: %w", err)
	}
	rep.ReplicatedDecisionsPerSec = totalDecisions / replElapsed.Seconds()
	if rep.ReplicatedDecisionsPerSec > 0 {
		rep.ReplicationOverhead = rep.SoloDecisionsPerSec / rep.ReplicatedDecisionsPerSec
	}
	rep.FinalLag = primSrv.ReplicaLag()

	// Failover: hard-stop the primary, promote the standby, verify every
	// tenant resumed at exactly its acked decision count.
	primStop()
	resp, err := http.Post(sbBase+"/v1/promote", "application/json", nil)
	if err != nil {
		return nil, err
	}
	var prep serve.PromoteReport
	err = json.NewDecoder(resp.Body).Decode(&prep)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	want := int64(opts.Rounds * opts.Batch)
	for _, pt := range prep.Tenants {
		if pt.Err == "" && pt.Decisions == want {
			rep.FailoverVerified++
		} else {
			rep.FailoverMismatch++
			rep.Notes = append(rep.Notes, fmt.Sprintf("tenant %s promoted at %d decisions (err %q), want %d",
				pt.ID, pt.Decisions, pt.Err, want))
		}
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("replication: group flush before every ack; %.0f vs %.0f decisions/s (%.2fx overhead), final lag %d",
			rep.SoloDecisionsPerSec, rep.ReplicatedDecisionsPerSec, rep.ReplicationOverhead, rep.FinalLag),
		fmt.Sprintf("failover: standby promoted at term %d with %d/%d tenants at their exact acked decision count",
			prep.Term, rep.FailoverVerified, opts.Tenants))
	return rep, nil
}

func (rep *replicaReport) table() *experiments.Table {
	t := &experiments.Table{
		Title:   "Hot-standby replication — throughput cost and failover exactness",
		Columns: []string{"value"},
		Notes:   rep.Notes,
	}
	t.AddRow("tenants", float64(rep.Tenants))
	t.AddRow("decisions/sec solo", rep.SoloDecisionsPerSec)
	t.AddRow("decisions/sec replicated", rep.ReplicatedDecisionsPerSec)
	t.AddRow("overhead ratio", rep.ReplicationOverhead)
	t.AddRow("final replication lag", float64(rep.FinalLag))
	t.AddRow("failover tenants exact", float64(rep.FailoverVerified))
	t.AddRow("failover mismatches", float64(rep.FailoverMismatch))
	return t
}
