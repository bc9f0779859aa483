package experiments

import (
	"fmt"

	"moe/internal/core"
	"moe/internal/evolve"
	"moe/internal/expert"
	"moe/internal/policy"
	"moe/internal/sim"
	"moe/internal/stats"
	"moe/internal/trace"
	"moe/internal/workload"
)

// The evolve study measures what a LIVING expert pool buys when the
// deployment environment drifts away from the training distribution. Every
// policy faces the same regime shift: the machine starts at full capacity
// and permanently loses most of its processors at DriftAt — a sustained
// operating point the canonical Table 1 experts were never fitted for, not
// the transient churn of §6.4 (which recovers, and which the frozen mixture
// already handles). Three columns run the identical scenario: the OpenMP
// default (the speedup baseline), the frozen canonical mixture, and the
// same mixture with the online lifecycle enabled — breeding experts from
// the post-drift observation history while retiring dominated incumbents.
//
// The study needs no trained lab: the canonical coefficients are the point.
// A frozen pool can only reweight the four published tables; the living
// pool can place new tables where the observations actually are.

// EvolveOptions configures the drifting-machine study.
type EvolveOptions struct {
	// Targets are the measured programs (each run separately).
	Targets []string
	// Workload co-executes with every target, looping, under the OpenMP
	// default policy.
	Workload []string
	// Repeats averages each (target, policy) cell over this many seeds.
	Repeats int
	// Seed is the base evaluation seed.
	Seed uint64
	// MaxTime bounds one run in virtual seconds.
	MaxTime float64
	// DriftAt is when the machine permanently shrinks (virtual seconds).
	DriftAt float64
	// DriftCores is the post-drift processor count.
	DriftCores int
	// Evolution tunes the living column's lifecycle.
	Evolution evolve.Config
}

// DefaultEvolveOptions returns the configuration `moebench -experiment
// evolve` runs and gates on.
func DefaultEvolveOptions() EvolveOptions {
	return EvolveOptions{
		Targets:    []string{"lu", "cg", "mg"},
		Workload:   []string{"ft"},
		Repeats:    3,
		Seed:       42,
		MaxTime:    900,
		DriftAt:    12,
		DriftCores: 6,
		Evolution:  evolve.Config{Enabled: true, Period: 60, Seed: 7},
	}
}

// EvolveRow is one target's results, averaged over repeats.
type EvolveRow struct {
	Target string

	// Speedups over the OpenMP default on the identical drifted scenario.
	FrozenSpeedup float64
	LivingSpeedup float64

	// Mean lifecycle activity of the living pool.
	Births      float64
	Retirements float64
	FinalPool   float64
}

// EvolveReport is the study's result.
type EvolveReport struct {
	Rows []EvolveRow

	// Harmonic-mean speedups over the default across all targets.
	HMeanFrozenSpeedup float64
	HMeanLivingSpeedup float64
	// LivingAdvantage is living over frozen: > 1 means the living pool
	// beat the frozen pool after the drift.
	LivingAdvantage float64

	Notes []string
}

// RunEvolveStudy executes the study. Fully deterministic in o.
func RunEvolveStudy(o EvolveOptions) (*EvolveReport, error) {
	cfg := o.Evolution
	cfg.Enabled = true
	rep := &EvolveReport{}
	var frozenSp, livingSp []float64
	for _, target := range o.Targets {
		row := EvolveRow{Target: target}
		var defExecSum, frozenExecSum, livingExecSum float64
		for r := 0; r < o.Repeats; r++ {
			seed := o.Seed + uint64(r)*1000003
			defExec, _, err := evolveRun(o, target, seed, policy.NewDefault())
			if err != nil {
				return nil, err
			}
			frozen, err := core.NewMixture(expert.Canonical4(), core.Options{})
			if err != nil {
				return nil, err
			}
			frozenExec, _, err := evolveRun(o, target, seed, frozen)
			if err != nil {
				return nil, err
			}
			living, err := core.NewMixture(expert.Canonical4(), core.Options{Evolution: cfg})
			if err != nil {
				return nil, err
			}
			livingExec, livingStats, err := evolveRun(o, target, seed, living)
			if err != nil {
				return nil, err
			}
			defExecSum += defExec
			frozenExecSum += frozenExec
			livingExecSum += livingExec
			row.Births += float64(livingStats.PoolBirths)
			row.Retirements += float64(livingStats.PoolRetirements)
			row.FinalPool += float64(len(livingStats.ExpertNames))
		}
		n := float64(o.Repeats)
		row.Births /= n
		row.Retirements /= n
		row.FinalPool /= n
		row.FrozenSpeedup = (defExecSum / n) / (frozenExecSum / n)
		row.LivingSpeedup = (defExecSum / n) / (livingExecSum / n)
		frozenSp = append(frozenSp, row.FrozenSpeedup)
		livingSp = append(livingSp, row.LivingSpeedup)
		rep.Rows = append(rep.Rows, row)
	}
	var err error
	if rep.HMeanFrozenSpeedup, err = stats.HarmonicMean(frozenSp); err != nil {
		return nil, err
	}
	if rep.HMeanLivingSpeedup, err = stats.HarmonicMean(livingSp); err != nil {
		return nil, err
	}
	rep.LivingAdvantage = rep.HMeanLivingSpeedup / rep.HMeanFrozenSpeedup
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("drift: %d cores fall to %d at t=%.0fs and stay down; canonical experts were never fitted there",
			sim.Eval32().Cores, o.DriftCores, o.DriftAt),
		fmt.Sprintf("living pool hmean speedup %.3f vs frozen %.3f over the OpenMP default (advantage %.3fx)",
			rep.HMeanLivingSpeedup, rep.HMeanFrozenSpeedup, rep.LivingAdvantage))
	return rep, nil
}

// evolveRun executes one drifted scenario for one target under one policy
// and returns its completion time plus (for mixtures) the final stats.
func evolveRun(o EvolveOptions, target string, seed uint64, p sim.Policy) (float64, *core.Stats, error) {
	prog, err := workload.ByName(target)
	if err != nil {
		return 0, nil, err
	}
	machine := sim.Eval32()
	hw, err := trace.NewHardwareTrace([]trace.HardwareEvent{
		{Time: 0, Processors: machine.Cores},
		{Time: o.DriftAt, Processors: o.DriftCores},
	})
	if err != nil {
		return 0, nil, err
	}
	machine.Hardware = hw

	specs := []sim.ProgramSpec{{Program: prog.Clone(), Policy: p, Target: true}}
	for _, name := range o.Workload {
		wl, err := workload.ByName(name)
		if err != nil {
			return 0, nil, err
		}
		specs = append(specs, sim.ProgramSpec{
			Program: wl.Clone(), Policy: policy.NewDefault(), Loop: true,
		})
	}
	res, err := sim.Run(sim.Scenario{
		Machine:   machine,
		Programs:  specs,
		MaxTime:   o.MaxTime,
		RateNoise: DefaultRateNoise,
		Seed:      seed,
	})
	if err != nil {
		return 0, nil, err
	}
	tr, err := res.Target()
	if err != nil {
		return 0, nil, err
	}
	exec, err := effectiveExecTime(tr, prog.TotalWork(), o.MaxTime)
	if err != nil {
		return 0, nil, fmt.Errorf("experiments: evolve study, target %s under %s: %w", target, p.Name(), err)
	}
	var st *core.Stats
	if m, ok := p.(*core.Mixture); ok {
		s := m.Snapshot()
		st = &s
	}
	return exec, st, nil
}

// EvolveStudyTable renders the report as a printable experiment table.
func EvolveStudyTable(rep *EvolveReport) *Table {
	t := &Table{
		Title:   "Evolve — living vs frozen pool under sustained drift (speedup over OpenMP default)",
		Columns: []string{"frozen", "living", "births", "retirements", "final pool"},
		Notes:   rep.Notes,
	}
	for _, r := range rep.Rows {
		t.AddRow(r.Target, r.FrozenSpeedup, r.LivingSpeedup, r.Births, r.Retirements, r.FinalPool)
	}
	t.AddRow("hmean", rep.HMeanFrozenSpeedup, rep.HMeanLivingSpeedup, 0, 0, 0)
	return t
}
