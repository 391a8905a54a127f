package core

import (
	"fmt"
	"sort"
	"time"

	"modchecker/internal/faults"
)

// PoolReport is the result of sweeping one module across an entire VM pool:
// every VM is checked against all others, and VMs whose copy a majority of
// peers dispute are flagged. This is the operational mode the paper's
// conclusion sketches — a light-weight consistency check whose flags
// trigger deeper analysis or a snapshot revert.
type PoolReport struct {
	ModuleName string
	VMReports  []*ModuleReport

	// Flagged lists VMs with VerdictAltered; Inconclusive lists VMs with
	// no majority either way; Errored lists VMs whose own fetch failed
	// (VerdictError) — they contributed nothing to any vote.
	Flagged      []string
	Inconclusive []string
	Errored      []string

	// Healthy counts VMs whose fetch succeeded: the denominator that
	// actually voted. A report where Healthy is far below len(VMReports)
	// describes a degraded pool, not a clean one.
	Healthy int

	// BudgetSkipped marks a module that was never checked because the
	// sweep's time budget was exhausted first: no fetches ran, no verdicts
	// exist, and the module belongs in the sweep's resumable remainder.
	BudgetSkipped bool

	// Timing is total work; Elapsed is simulated wall-clock. Under the
	// parallel driver both the fetch stage and the comparison stage run on
	// a bounded worker pool, and Elapsed models each stage's critical path
	// across the workers; sequentially it is simply the sum of all work.
	Timing  PhaseTiming
	Elapsed time.Duration
	// Stages splits Elapsed by pipeline stage — where the simulated time of
	// this module's check went.
	Stages StageTiming
}

// StageTiming is the per-stage simulated elapsed breakdown of a pool check
// or a whole sweep: how long the fetch, digest, and representative-compare
// stages each took on the modeled worker schedule.
type StageTiming struct {
	Fetch   time.Duration
	Digest  time.Duration
	Compare time.Duration
}

// Total returns the summed stage time.
func (s StageTiming) Total() time.Duration { return s.Fetch + s.Digest + s.Compare }

// Report returns the per-VM report for the named VM, or nil.
func (p *PoolReport) Report(vm string) *ModuleReport {
	for _, r := range p.VMReports {
		if r.TargetVM == vm {
			return r
		}
	}
	return nil
}

// CheckPool fetches the module once from every VM and derives a per-VM
// majority verdict from cross-comparison. Unlike calling CheckModule per
// target (which refetches peers each time), the pool check reuses each
// fetch, so introspection cost stays linear in pool size. It runs the pool
// engine (engine.go) as one shard without a digest store — O(n)
// normalizations against a reference plus one true comparison per cluster
// pair — or, under Config.FullPairwise, the O(n²) pairwise oracle. Each
// fetch walks the VM's module list itself, so the walk is charged inside
// the fetch.
//
//modsafe:charged
func (c *Checker) CheckPool(module string, vms []Target) (*PoolReport, error) {
	if len(vms) < 2 {
		return nil, fmt.Errorf("core: pool check of %s needs at least 2 VMs, have %d", module, len(vms))
	}
	all := selfLeaders(len(vms))
	src := &poolSource{vms: vms, leaders: all, leader: all}
	if c.cfg.FullPairwise {
		return c.checkPairwise(module, src), nil
	}
	return c.checkClustered(module, src, 0, nil), nil
}

// checkPairwise is the paper-faithful oracle: fetch every VM, run Algorithm
// 2 plus hashing on every healthy pair independently, and derive each
// report pair by pair. The engine must agree with it report for report;
// the differential tests hold it to that.
func (c *Checker) checkPairwise(module string, src *poolSource) *PoolReport {
	rep := &PoolReport{ModuleName: module}
	fetches, fetchElapsed := c.fetchStage(module, src)
	for _, f := range fetches {
		rep.Timing.addInto(f.timing)
	}
	mismatches, work, compareElapsed := c.comparePairwise(module, fetches)
	rep.Timing.Checker += work
	rep.Stages.Fetch, rep.Stages.Compare = fetchElapsed, compareElapsed
	rep.Elapsed = fetchElapsed + compareElapsed
	c.derivePool(rep, module, src.vms, fetches, mismatches)
	for _, f := range fetches {
		c.releaseFetched(f)
	}
	return rep
}

// derivePool fills the oracle's VMReports, tallies, verdicts and
// flag/error lists from the pairwise mismatch map — an absent pair entry
// means the pair matched.
func (c *Checker) derivePool(rep *PoolReport, module string, vms []Target, fetches []*fetched, mismatches map[pairKey][]string) {
	for i := range vms {
		r := &ModuleReport{ModuleName: module, TargetVM: vms[i].Name}
		if err := fetches[i].err; err != nil {
			r.Verdict = VerdictError
			r.Err = err
			r.ErrClass = faults.Classify(err)
			r.Pairs = append(r.Pairs, PairResult{
				PeerVM: vms[i].Name, Err: err, ErrClass: r.ErrClass,
			})
			rep.VMReports = append(rep.VMReports, r)
			rep.Errored = append(rep.Errored, vms[i].Name)
			continue
		}
		rep.Healthy++
		r.Base = fetches[i].info.Base
		tallies := make(map[string]*ComponentTally)
		var order []string
		for _, name := range componentNames(fetches[i]) {
			tallies[name] = &ComponentTally{Name: name}
			order = append(order, name)
		}
		for j := range vms {
			if j == i {
				continue
			}
			if perr := fetches[j].err; perr != nil {
				r.Pairs = append(r.Pairs, PairResult{
					PeerVM: vms[j].Name, Err: perr, ErrClass: faults.Classify(perr),
				})
				continue
			}
			key := pairKey{i, j}
			if j < i {
				key = pairKey{j, i}
			}
			mm := mismatches[key]
			pr := PairResult{PeerVM: vms[j].Name, Match: len(mm) == 0, MismatchedComponents: mm}
			r.Pairs = append(r.Pairs, pr)
			r.Comparisons++
			if pr.Match {
				r.Successes++
			}
			seen := make(map[string]bool, len(mm))
			for _, name := range mm {
				seen[name] = true
				t, ok := tallies[name]
				if !ok {
					t = &ComponentTally{Name: name}
					tallies[name] = t
					order = append(order, name)
				}
				t.Mismatches++
				t.MismatchedVMs = append(t.MismatchedVMs, vms[j].Name)
			}
			for _, name := range order {
				if !seen[name] {
					tallies[name].Matches++
				}
			}
		}
		for _, name := range order {
			r.Components = append(r.Components, *tallies[name])
		}
		r.Verdict = c.verdict(r.Successes, r.Comparisons)
		rep.VMReports = append(rep.VMReports, r)
		switch r.Verdict {
		case VerdictAltered:
			rep.Flagged = append(rep.Flagged, vms[i].Name)
		case VerdictInconclusive:
			rep.Inconclusive = append(rep.Inconclusive, vms[i].Name)
		}
	}
	sort.Strings(rep.Flagged)
	sort.Strings(rep.Inconclusive)
	sort.Strings(rep.Errored)
}
