// Package chaos is the seeded chaos-soak harness: it derives a randomized —
// but fully deterministic — fault plan from one seed, drives a scanner
// through a faulted phase and a quiet phase over a 15-VM pool, and checks
// the reproduction's core robustness invariants: corrupted or torn data
// never produces a false verdict, the health machine converges once faults
// clear, and an identical seed yields byte-identical sweep reports.
//
// The harness is exercised by `make chaos-smoke` (many seeds, -race) and by
// the regular test suite (a few seeds).
package chaos

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"modchecker"
)

// Config parameterizes one soak run. The zero value of every field except
// Seed picks the defaults below.
type Config struct {
	// Seed derives the cloud, the fault plan, and the randomized schedule.
	Seed int64
	// VMs is the pool size (default 15, the paper's scale).
	VMs int
	// FaultySweeps is how many sweeps run with the fault plan active
	// (default 4).
	FaultySweeps int
	// QuietSweeps caps the post-quiesce convergence phase (default 20).
	QuietSweeps int
	// SweepBudget, when nonzero, arms the scanner's sweep budget for the
	// faulted phase, exercising checkpoint/resume under fire. It is
	// disarmed for the quiet phase.
	SweepBudget time.Duration
	// VMBudget, when nonzero, arms the per-VM budget for the faulted phase.
	VMBudget time.Duration
	// Parallel runs the checker's parallel pipeline.
	Parallel bool
	// ShardSize, when positive, drives each module check's fetch+digest
	// work in shards of at most this many VMs.
	ShardSize int
}

func (c Config) withDefaults() Config {
	if c.VMs == 0 {
		c.VMs = 15
	}
	if c.FaultySweeps == 0 {
		c.FaultySweeps = 4
	}
	if c.QuietSweeps == 0 {
		c.QuietSweeps = 20
	}
	return c
}

// Result is everything a soak run observed.
type Result struct {
	// Reports are all sweep reports in order, faulted and quiet phases.
	Reports []*modchecker.SweepReport
	// Fingerprint is the concatenated JSON of every report — byte-identical
	// across runs of the same seed.
	Fingerprint string
	// Converged is true when a quiet-phase sweep was clean with every VM
	// healthy; ConvergedAt is that sweep's number.
	Converged   bool
	ConvergedAt int
	// AlteredAlerts counts VerdictAltered alerts. No run plants an
	// infection, so any value above zero is a false positive manufactured
	// from fault noise — an invariant violation.
	AlteredAlerts int
	// AbortedSweeps counts sweep attempts that aborted during the faulted
	// phase (too few eligible VMs, discovery outage).
	AbortedSweeps int
	// PartialSweeps counts budget-cut sweeps; Resumes counts sweeps that
	// continued a checkpoint.
	PartialSweeps int
	Resumes       int
}

// vmName mirrors the cloud facade's naming.
func vmName(i int) string { return fmt.Sprintf("Dom%d", i+1) }

// buildPlan derives the randomized fault schedule. Everything is drawn from
// the one seeded source, so the schedule — and therefore the whole run — is
// a pure function of the seed. Read faults, torn windows, control-plane
// failures, hangs, latency, and pause/resume storms are all in the mix;
// domains are never destroyed (a destroyed domain can never reconverge,
// which would void the harness's convergence invariant).
func buildPlan(cfg Config, rng *rand.Rand) *modchecker.FaultPlan {
	plan := modchecker.NewFaultPlan(cfg.Seed)
	ops := []modchecker.FaultOp{
		modchecker.OpSnapshot, modchecker.OpRevert, modchecker.OpClone,
		modchecker.OpDestroy, modchecker.OpPause, modchecker.OpUnpause,
	}
	for i := 0; i < cfg.VMs; i++ {
		vm := vmName(i)
		if rng.Float64() < 0.35 {
			plan.FlakyReads(vm, 0.01+rng.Float64()*0.06)
		}
		if rng.Float64() < 0.30 {
			from := uint64(rng.Intn(2000))
			plan.FailReads(vm, from, from+1+uint64(rng.Intn(40)))
		}
		if rng.Float64() < 0.25 {
			from := uint64(rng.Intn(2000))
			plan.TornWindow(vm, from, from+1+uint64(rng.Intn(200)))
		}
		if rng.Float64() < 0.15 {
			// A mid-run pause/resume pair: the domain drops out and returns.
			at := uint64(500 + rng.Intn(1500))
			plan.PauseAt(vm, at)
			plan.ResumeAt(vm, at+uint64(1+rng.Intn(400)))
		}
		// Control-plane chaos: flaky, failing, hanging, and slow lifecycle
		// operations.
		if rng.Float64() < 0.30 {
			plan.FlakyOps(vm, ops[rng.Intn(len(ops))], 0.1+rng.Float64()*0.3)
		}
		if rng.Float64() < 0.25 {
			from := uint64(rng.Intn(4))
			plan.FailOps(vm, ops[rng.Intn(len(ops))], from, from+1+uint64(rng.Intn(3)))
		}
		if rng.Float64() < 0.15 {
			plan.HangOps(vm, ops[rng.Intn(len(ops))], 0, 1+uint64(rng.Intn(3)))
		}
		if rng.Float64() < 0.25 {
			plan.SlowOps(vm, ops[rng.Intn(len(ops))], time.Duration(rng.Intn(3000))*time.Microsecond)
		}
	}
	// One VM in four runs dies outright until the quiesce.
	if rng.Float64() < 0.25 {
		plan.FailForever(vmName(rng.Intn(cfg.VMs)), uint64(rng.Intn(500)))
	}
	return plan
}

// Run executes one soak: faulted sweeps, quiesce, quiet sweeps until the
// health machine converges (or the cap). The returned error covers only
// harness-level failures (the cloud not building); invariant outcomes are
// reported in the Result for the caller to assert on.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	cloud, err := modchecker.NewCloud(modchecker.CloudConfig{VMs: cfg.VMs, Seed: cfg.Seed})
	if err != nil {
		return nil, fmt.Errorf("chaos: building cloud: %w", err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	plan := buildPlan(cfg, rng)
	cloud.InstallFaultPlan(plan)

	opts := []modchecker.CheckerOption{modchecker.WithRetry(modchecker.DefaultRetryPolicy())}
	if cfg.Parallel {
		opts = append(opts, modchecker.WithParallel())
	}
	if cfg.ShardSize > 0 {
		opts = append(opts, modchecker.WithShardSize(cfg.ShardSize))
	}
	sc := cloud.NewScanner(opts...)
	sc.SetHealthPolicy(modchecker.HealthPolicy{QuarantineAfter: 2, ReadmitAfter: 1})
	sc.SetBudget(modchecker.BudgetPolicy{SweepBudget: cfg.SweepBudget, VMBudget: cfg.VMBudget})

	res := &Result{}
	var fp bytes.Buffer
	record := func(rep *modchecker.SweepReport) error {
		res.Reports = append(res.Reports, rep)
		if rep.Partial {
			res.PartialSweeps++
		}
		if rep.Resumed {
			res.Resumes++
		}
		for _, a := range rep.Alerts {
			if a.Verdict == modchecker.VerdictAltered {
				res.AlteredAlerts++
			}
		}
		return rep.WriteJSON(&fp)
	}

	for i := 0; i < cfg.FaultySweeps; i++ {
		// Lifecycle churn between sweeps drives the control plane through
		// the fault gate: failed snapshots and reverts accumulate
		// consecutive control failures, which is what trips the scanner's
		// per-domain breaker at the next partition.
		for c := 0; c < 2; c++ {
			d := cloud.Domain(vmName(rng.Intn(cfg.VMs)))
			if d == nil || d.Destroyed() {
				continue
			}
			tag := fmt.Sprintf("chaos-%d-%d", i, c)
			if err := d.TakeSnapshot(tag); err == nil {
				_ = d.Revert(tag)
			}
		}
		rep, err := sc.Sweep()
		if err != nil {
			res.AbortedSweeps++
			continue
		}
		if err := record(rep); err != nil {
			return nil, err
		}
	}

	// Faults clear: schedules are wiped, read/op counters survive, so the
	// quiet phase continues from the same deterministic position.
	plan.Quiesce()
	sc.SetBudget(modchecker.BudgetPolicy{})

	for i := 0; i < cfg.QuietSweeps; i++ {
		rep, err := sc.Sweep()
		if err != nil {
			res.AbortedSweeps++
			continue
		}
		if err := record(rep); err != nil {
			return nil, err
		}
		if converged(rep) {
			res.Converged = true
			res.ConvergedAt = rep.Sweep
			break
		}
	}
	res.Fingerprint = fp.String()
	return res, nil
}

// converged reports whether the sweep proves the pool fully recovered:
// positively clean, every tracked VM healthy, nobody skipped or deferred.
func converged(rep *modchecker.SweepReport) bool {
	if !rep.Clean() || len(rep.Quarantined) > 0 || len(rep.Skipped) > 0 ||
		len(rep.BreakerOpen) > 0 || len(rep.BudgetExceeded) > 0 {
		return false
	}
	for _, st := range rep.Health {
		if st != modchecker.HealthHealthy {
			return false
		}
	}
	return true
}
