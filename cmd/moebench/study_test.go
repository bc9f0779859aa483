package main

import (
	"sort"
	"testing"

	"moe/internal/experiments"
)

// Reports sitting exactly on the passing side of every gate bound.
func servePass() *serveReport { return &serveReport{DrainClean: true} }

func streamPass() *streamReport {
	return &streamReport{
		Tenants:           8,
		SpeedupWireVsJSON: 5,
		GroupCommit:       []streamGCArm{{ResumeVerified: 8}, {WindowMs: 1, ResumeVerified: 8}},
	}
}

func replicaPass() *replicaReport { return &replicaReport{} }

func evolvePass() *evolveReport { return &evolveReport{LivingAdvantage: 1.0001} }

// doctor applies f to r and returns it.
func doctor[R gatedReport](r R, f func(R)) gatedReport {
	f(r)
	return r
}

// TestStudyGateBounds doctors one report per gate bound and requires the
// gate to fire on it; the undoctored reports must pass.
func TestStudyGateBounds(t *testing.T) {
	for _, r := range []gatedReport{servePass(), streamPass(), replicaPass(), evolvePass()} {
		if err := r.check(); err != nil {
			t.Errorf("passing %T fails its gate: %v", r, err)
		}
	}
	cases := []struct {
		name string
		rep  gatedReport
	}{
		{"serve/golden-mismatch", doctor(servePass(), func(r *serveReport) { r.GoldenMismatches = 1 })},
		{"serve/drain-unclean", doctor(servePass(), func(r *serveReport) { r.DrainClean = false })},
		{"stream/golden-mismatch", doctor(streamPass(), func(r *streamReport) { r.GoldenMismatches = 1 })},
		{"stream/speedup-below-5x", doctor(streamPass(), func(r *streamReport) { r.SpeedupWireVsJSON = 4.9 })},
		{"stream/short-resume", doctor(streamPass(), func(r *streamReport) { r.GroupCommit[1].ResumeVerified = 7 })},
		{"replica/lag", doctor(replicaPass(), func(r *replicaReport) { r.FinalLag = 1 })},
		{"replica/failover-mismatch", doctor(replicaPass(), func(r *replicaReport) { r.FailoverMismatch = 1 })},
		{"evolve/no-advantage", doctor(evolvePass(), func(r *evolveReport) { r.LivingAdvantage = 1.0 })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.rep.check(); err == nil {
				t.Fatal("doctored report passes its gate")
			}
		})
	}
}

// TestStudyGates runs each gated study through its registry entry at the
// default options, the same path -experiment and -all take.
func TestStudyGates(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the daemon studies end to end")
	}
	for _, id := range []string{"serve", "stream", "replica", "evolve"} {
		t.Run(id, func(t *testing.T) {
			s := registry[id]
			if !s.noLab {
				t.Fatalf("%s needs the trained lab", id)
			}
			tab, err := s.run(nil, experiments.QuickScale())
			if tab != nil {
				t.Log("\n" + tab.String())
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRegistryOrder keeps -all and -list in step: order runs every
// registered study exactly once.
func TestRegistryOrder(t *testing.T) {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sorted := append([]string(nil), order...)
	sort.Strings(ids)
	sort.Strings(sorted)
	if len(ids) != len(sorted) {
		t.Fatalf("registry has %d ids, order has %d", len(ids), len(sorted))
	}
	for i := range ids {
		if ids[i] != sorted[i] {
			t.Fatalf("registry and order differ: %v vs %v", ids, sorted)
		}
	}
}
