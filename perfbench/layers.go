package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"moe"
	"moe/internal/atomicio"
	"moe/internal/checkpoint"
)

// perLayerUnits lists every per-layer metric of a traced run with its unit.
// A workload that bypasses a layer reports 0 for it: the prediction for
// that workload is no change.
var perLayerUnits = map[string]string{
	"fail_ratio":   "ratio",
	"slo_rate_fps": "frames/s",

	// client
	"moeclient.send_us.p50": "us",
	"moeclient.send_us.p99": "us",
	"gen.late_ms.p99":       "ms",
	"gen.late_frames":       "count",
	"http.roundtrip_ms.p50": "ms",
	"http.roundtrip_ms.p99": "ms",
	"json.codec_us":         "us",

	// codec
	"wire.encode_ns": "ns",
	"wire.decode_ns": "ns",

	// serve
	"serve.frames_per_group":         "frames",
	"serve.groups":                   "count",
	"serve.request_ms.p50":           "ms",
	"serve.request_ms.p99":           "ms",
	"serve.shed":                     "count",
	"serve.deadline_exceeded":        "count",
	"serve.dedup_hits":               "count",
	"serve.alloc_bytes_per_decision": "B",
	"serve.mallocs_per_decision":     "count",
	"serve.gc_pause_ms":              "ms",
	"serve.gc_cycles":                "count",

	// decide
	"runtime.batch_ns_per_decision": "ns",
	"runtime.fast_fraction":         "ratio",
	"runtime.decide_ns":             "ns",
	"runtime.decide_ns.p99":         "ns",

	// journal
	"checkpoint.append_ms.p50":       "ms",
	"checkpoint.append_ms.p99":       "ms",
	"checkpoint.snapshot_ms.p50":     "ms",
	"checkpoint.snapshot_ms.p99":     "ms",
	"checkpoint.snapshots":           "count",
	"checkpoint.fsyncs_per_decision": "ratio",
	"checkpoint.resume_ms":           "ms",

	// ship
	"replica.flush_ms.p50":    "ms",
	"replica.flush_ms.p99":    "ms",
	"replica.bytes_per_group": "B",
	"replica.ship_errors":     "count",

	// exposition
	"telemetry.scrape_ms":    "ms",
	"telemetry.scrape_bytes": "B",

	// engine
	"sim.default_arm_s":          "s",
	"sim.mixture_arm_s":          "s",
	"sim.decisions":              "count",
	"sim.engine_us_per_decision": "us",
}

func init() {
	for name, unit := range e2eUnits {
		perLayerUnits["trace.overhead."+name] = unit
	}
	for name, unit := range ungatedUnits {
		perLayerUnits[name] = unit
	}
}

// batchLayer replays each tenant's stream through DecideBatch on a fresh
// runtime in groups of the observed coalesced size: the decide layer in
// isolation, at the batch shape the daemon served.
func batchLayer(o *opts, out *outcome, streams []tenantStream, framesPerGroup float64) {
	group := int(framesPerGroup + 0.5)
	if group < 1 {
		group = 1
	}
	var ns, decisions, fast float64
	for ti := range streams {
		rt, err := newTenantRuntime()
		if err != nil {
			out.mismatch("decide layer: %v", err)
			return
		}
		obs := streams[ti].obs
		dst := make([]int, 0, group)
		start := time.Now()
		for i := 0; i < len(obs); i += group {
			end := min(i+group, len(obs))
			dst = rt.DecideBatchInto(dst[:0], obs[i:end])
		}
		stop := time.Now()
		o.tr.add("runtime.decide_batch_replay", 0, uint64(ti), start, stop, 0)
		ns += float64(stop.Sub(start).Nanoseconds())
		decisions += float64(len(obs))
		fast += float64(rt.BatchStats().FastDecisions)
	}
	out.set("runtime.batch_ns_per_decision", ns/decisions, "ns")
	out.set("runtime.fast_fraction", fast/decisions, "ratio")
}

// journalLayer drives the checkpoint layer in isolation the way a moed
// tenant does: a runtime attached to a store (snapshot every 64
// decisions), one observation per decide call, and — for identified
// requests — a dedup marker and the commit Sync behind it. Calls during
// which a snapshot was written are timed as snapshots, the rest as
// appends. Fsyncs are counted at the store's own fault seams.
func journalLayer(o *opts, out *outcome, streams []tenantStream, sync, dedup bool) {
	dir := filepath.Join(o.work, "journal-probe")
	defer os.RemoveAll(dir)
	store, err := checkpoint.OpenOptions(dir, checkpoint.Options{DisableSync: !sync})
	if err != nil {
		out.mismatch("journal layer: %v", err)
		return
	}
	defer store.Close()
	var fsyncs, snapshots int
	counting := func(snapshot bool) atomicio.FaultFn {
		return func(st atomicio.Stage) error {
			if st == atomicio.StageSyncFile || st == atomicio.StageSyncDir {
				fsyncs++
			}
			if snapshot && st == atomicio.StageCreate {
				snapshots++
			}
			return nil
		}
	}
	store.SetJournalFault(counting(false))
	store.SetSnapshotFault(counting(true))
	rt, err := newTenantRuntime()
	if err != nil {
		out.mismatch("journal layer: %v", err)
		return
	}
	if err := rt.AttachStore(store, 64); err != nil {
		out.mismatch("journal layer: %v", err)
		return
	}
	fsyncs, snapshots = 0, 0
	// A fixed decision count keeps the probe's cost bounded: 256 decisions
	// cover four snapshots.
	const n = 256
	obs := streams[0].obs
	var appendMs, snapMs []float64
	one := make([]moe.Observation, 1)
	for i := 0; i < n; i++ {
		one[0] = obs[i%len(obs)]
		before := snapshots
		start := time.Now()
		th := rt.DecideBatch(one)
		if dedup {
			if err := store.AppendDedup(checkpoint.DedupEntry{ID: fmt.Sprintf("probe-%d", i),
				Decisions: rt.Decisions(), Threads: th}); err != nil {
				out.mismatch("journal layer: %v", err)
				return
			}
		}
		if err := store.Sync(); err != nil {
			out.mismatch("journal layer: %v", err)
			return
		}
		stop := time.Now()
		ms := float64(stop.Sub(start).Nanoseconds()) / 1e6
		if snapshots != before {
			snapMs = append(snapMs, ms)
			o.tr.add("checkpoint.snapshot", 0, uint64(i), start, stop, 0)
		} else {
			appendMs = append(appendMs, ms)
			o.tr.add("checkpoint.append", 0, uint64(i), start, stop, 0)
		}
	}
	if err := rt.CheckpointErr(); err != nil {
		out.mismatch("journal layer: %v", err)
		return
	}
	out.set("checkpoint.append_ms.p50", quantile(appendMs, 0.5), "ms")
	out.set("checkpoint.append_ms.p99", quantile(appendMs, 0.99), "ms")
	out.set("checkpoint.snapshot_ms.p50", quantile(snapMs, 0.5), "ms")
	out.set("checkpoint.snapshot_ms.p99", quantile(snapMs, 0.99), "ms")
	out.set("checkpoint.fsyncs_per_decision", float64(fsyncs)/n, "ratio")
}
