package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"sort"
	"time"
)

// loop runs closed-loop cycles until at least min have run and seconds
// have passed, stopping early at max when max is positive.
func (e *env) loop(seconds float64, min, max int, tr *tracer) ([]sweepResult, error) {
	var out []sweepResult
	start := time.Now()
	for len(out) < min || time.Since(start).Seconds() < seconds {
		if max > 0 && len(out) >= max {
			break
		}
		res, err := e.cycle(tr)
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}

func (r *report) tally(sweeps []sweepResult) {
	for _, s := range sweeps {
		r.res.Attempted += s.attempted
		r.res.Failed += s.failed
	}
}

// coldFactor marks a sweep op as an outlier in the run summary: on the
// cached workload, a sweep after the pool's first VM (the engine's
// reference) was churned runs fully cold.
const coldFactor = 4

// timedRun measures the end-to-end metrics with tracing off.
func timedRun(cfg config, w workload, r *report) error {
	setups := make([]float64, 0, w.setups)
	var e *env
	for i := 0; i < w.setups; i++ {
		e = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if e, err = setUp(w, cfg.seed, cfg.vms); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	sweeps, err := e.loop(cfg.seconds, cfg.minSweeps, 0, nil)
	if err != nil {
		return err
	}
	heap := heapLiveMB()
	runtime.KeepAlive(e)
	r.tally(sweeps)

	fp := sha256.New()
	var opSum time.Duration
	ops := make([]float64, len(sweeps))
	sims := make([]float64, len(sweeps))
	allocs := make([]float64, len(sweeps))
	for i, s := range sweeps {
		if i < cfg.minSweeps {
			fp.Write(s.fingerprint[:])
		}
		opSum += s.op
		ops[i] = s.op.Seconds()
		sims[i] = float64(s.sim) / 1e6
		allocs[i] = float64(s.alloc) / (1 << 20)
	}
	p50 := median(ops)
	tail, pct := tailOf(ops)
	r.note("workload %s seed %d: %d VMs x %d modules, closed loop with one client, %d timed sweeps",
		w.name, cfg.seed, len(e.names), catalogModules, len(sweeps))
	r.set("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups %.3f", len(setups), setups))
	r.set("sweep_s_p50", p50, "s", fmt.Sprintf("n=%d sweeps", len(ops)))
	r.note("sweep_s_tail %.6f s (p%.1f, %d sweeps beyond it, n=%d)", tail, pct, tailSweeps, len(ops))
	perSweep := float64(len(e.names) * catalogModules)
	r.set("checks_per_s", perSweep/p50, "1/s",
		fmt.Sprintf("%d VMs x %d modules per sweep over the median sweep op", len(e.names), catalogModules))
	slow := 0
	for _, op := range ops {
		if op > coldFactor*p50 {
			slow++
		}
	}
	r.note("all sweep ops: %d checks in %.3f s = %.1f checks/s; %d sweeps took over %dx the median",
		r.res.Attempted, opSum.Seconds(), float64(r.res.Attempted)/opSum.Seconds(), slow, coldFactor)
	r.set("sim_ms_per_sweep", median(sims), "sim-ms", "simulated testbed clock, median")
	r.set("alloc_mb_per_sweep", median(allocs), "MB", "Go heap allocated per sweep op, median (MB = 2^20 bytes)")
	r.set("heap_live_mb", heap, "MB", "live heap after two forced GCs at the end of the timed phase")
	r.note("fail_ratio %g (failed/attempted checks = %d/%d)", failRatio(r.res), r.res.Failed, r.res.Attempted)
	r.note("report_sha256 %x (first %d sweep reports, timing fields stripped)", fp.Sum(nil), cfg.minSweeps)
	return nil
}

// Each half of a traced run makes at least minTraced and at most
// maxTraced sweeps; the replays make a traced sweep several times slower
// than an untraced one.
const (
	minTraced = 3
	maxTraced = 20
)

// tracedRun runs the workload twice from the same seed: untraced, then
// traced with per-layer replays after every sweep. The traced half must
// reproduce the untraced half's simulated time, work counters and report
// bytes exactly; the per-layer metrics come from the traced half's spans
// and from the untraced half's counters.
func tracedRun(cfg config, w workload, r *report) error {
	runtime.GC()
	eu, err := setUp(w, cfg.seed, cfg.vms)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	untraced, err := eu.loop(cfg.seconds/2, minTraced, maxTraced, nil)
	if err != nil {
		return err
	}
	r.tally(untraced)
	builds := []float64{eu.build.Seconds()}
	eu = nil
	runtime.GC()

	et, err := setUp(w, cfg.seed, cfg.vms)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	builds = append(builds, et.build.Seconds())
	tr := newTracer(cfg.seed)
	traced, err := et.loop(0, len(untraced), len(untraced), tr)
	if err != nil {
		return err
	}
	r.tally(traced)
	if err := tr.write(cfg.spans); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	for i := range untraced {
		u, t := untraced[i], traced[i]
		if u.sim != t.sim || u.timing != t.timing || u.work != t.work || u.cowFaults != t.cowFaults || u.fingerprint != t.fingerprint {
			return fmt.Errorf("traced sweep %d diverged from the untraced run: sim %v/%v, work %+v/%+v",
				i+1, u.sim, t.sim, u.work, t.work)
		}
	}

	n := len(traced)
	var pf int
	for _, vm := range et.names {
		pf += et.cloud.Guest(vm).Phys().PrivateFrames()
	}
	r.note("workload %s seed %d: %d VMs, %d untraced then %d traced sweeps; spans in %s",
		w.name, cfg.seed, len(et.names), n, n, cfg.spans)
	r.note("guard: traced sweeps reproduce the untraced sim time, vmi, cas and CoW counters and report bytes exactly")

	sweepMS := tr.perSweep("scanner.sweep")
	openMS := tr.perSweep("core.engine.open")
	checkMS := tr.perSweep("core.engine.check_module")
	self := make([]float64, n)
	for i := range self {
		self[i] = sweepMS[i] - openMS[i] - checkMS[i]
	}
	r.set("scanner.sweep_ms", median(sweepMS), "ms", "span around Scanner.Sweep, median per sweep")
	r.set("scanner.self_ms", median(self), "ms", "sweep_ms - engine open_ms - sum of check_module_ms")
	r.set("report.render_ms", median(tr.perSweep("report.render")), "ms", "SweepReport.WriteJSON")
	r.set("report.bytes", median(each(traced, func(s sweepResult) float64 { return float64(s.reportBytes) })), "bytes", "")
	r.set("core.engine.open_ms", median(openMS), "ms", "Cloud.Targets + Checker.NewPoolSweep over the whole pool")
	checkUS, calls, _, _ := tr.perCall("core.engine.check_module")
	r.set("core.engine.check_module_ms", median(checkUS)/1e3, "ms", fmt.Sprintf("PoolSweep.CheckModule, median of %d calls", calls))

	stages := []struct {
		name string
		sim  func(sweepResult) time.Duration
	}{
		{"list", func(s sweepResult) time.Duration { return s.timing.List }},
		{"fetch", func(s sweepResult) time.Duration { return s.timing.Fetch }},
		{"digest", func(s sweepResult) time.Duration { return s.timing.Digest }},
		{"compare", func(s sweepResult) time.Duration { return s.timing.Compare }},
	}
	for _, st := range stages {
		sim := each(traced, func(s sweepResult) float64 { return float64(st.sim(s)) / 1e6 })
		r.set("core.stage."+st.name+"_sim_ms", median(sim), "sim-ms", "SweepReport.Timing, median per sweep")
	}
	for _, st := range stages {
		var ns int64
		for _, s := range traced {
			ns += s.stageCPU[st.name]
		}
		r.set("core.stage."+st.name+"_cpu_ms", float64(ns)/1e6/float64(n), "ms",
			"CPU profile samples labelled stage="+st.name+", mean per sweep")
	}

	us, calls, _, _ := tr.perCall("core.searcher.list")
	r.set("core.searcher.list_us", median(us), "us", fmt.Sprintf("Searcher.ListModules, %d calls", calls))
	us, calls, bytes, total := tr.perCall("core.searcher.fetch")
	r.set("core.searcher.fetch_us", median(us), "us", fmt.Sprintf("Searcher.FetchModule, %d calls", calls))
	r.set("core.searcher.fetch_mb_per_s", mbPerS(bytes, total), "MB/s", fmt.Sprintf("%d bytes fetched", bytes))
	us, calls, _, _ = tr.perCall("core.parser.parse")
	r.set("core.parser.parse_us", median(us), "us", fmt.Sprintf("core.ParseModule, %d calls", calls))
	us, calls, bytes, total = tr.perCall("core.rva.normalize")
	r.set("core.rva.normalize_us", median(us), "us", fmt.Sprintf("core.NormalizePair against the reference VM, %d calls", calls))
	r.set("core.rva.mb_per_s", mbPerS(bytes, total), "MB/s", fmt.Sprintf("%d bytes normalized", bytes))
	r.set("core.rva.sites_per_kb", ratio(float64(tr.sites), float64(tr.sitesBytes)/1024), "count",
		fmt.Sprintf("%d rewrite sites in %d section bytes", tr.sites, tr.sitesBytes))

	med := func(f func(sweepResult) float64) float64 { return median(each(untraced, f)) }
	var walks, hits, lookups, casHits uint64
	for _, s := range untraced {
		walks += s.work.ptWalks
		hits += s.work.tlbHits
		lookups += s.work.casLookups
		casHits += s.work.casHits
	}
	r.set("vmi.ptwalks_per_sweep", med(func(s sweepResult) float64 { return float64(s.work.ptWalks) }), "count", "median per sweep")
	r.set("vmi.tlb_hit_ratio", ratio(float64(hits), float64(hits+walks)), "ratio",
		fmt.Sprintf("%d TLB hits of %d translations", hits, hits+walks))
	r.set("vmi.bytes_read_per_sweep", med(func(s sweepResult) float64 { return float64(s.work.bytesRead) }), "bytes", "median per sweep")
	r.set("vmi.pages_read_per_sweep", med(func(s sweepResult) float64 { return float64(s.work.pagesRead) }), "count", "median per sweep")
	r.set("cas.lookups_per_sweep", med(func(s sweepResult) float64 { return float64(s.work.casLookups) }), "count", "median per sweep")
	r.set("cas.hit_ratio", ratio(float64(casHits), float64(lookups)), "ratio", fmt.Sprintf("%d hits of %d lookups", casHits, lookups))
	r.set("cas.inserts_per_sweep", med(func(s sweepResult) float64 { return float64(s.work.casInserts) }), "count", "median per sweep")
	_, calls, _, total = tr.perCall("cas.lookup")
	r.set("cas.lookup_ns", ratio(float64(total), float64(calls)), "ns", fmt.Sprintf("Store.LookupDigest, %d calls", calls))

	r.set("mm.cloud_build_s", median(builds), "s", fmt.Sprintf("NewCloud, median of %d builds", len(builds)))
	_, calls, _, total = tr.perCall("mm.content_id")
	r.set("mm.content_id_us", ratio(float64(total)/1e3, float64(calls)), "us", fmt.Sprintf("PhysMemory.ContentID, %d calls", calls))
	r.set("mm.cow_faults_per_sweep", med(func(s sweepResult) float64 { return float64(s.cowFaults) }), "count", "faults taken by the churn hooks")
	r.set("mm.private_frames", float64(pf), "count", "private frames over all VMs at the end of the run")

	var gcCycles uint64
	var gcCPU, totalCPU float64
	for _, s := range untraced {
		gcCycles += s.gcCycles
		gcCPU += s.gcCPU
		totalCPU += s.totalCPU
	}
	r.set("runtime.gc_cycles_per_sweep", float64(gcCycles)/float64(n), "count", "mean over untraced sweep ops")
	r.set("runtime.gc_cpu_fraction", ratio(gcCPU, totalCPU), "ratio", "GC CPU over all CPU during untraced sweep ops")

	opsU := each(untraced, func(s sweepResult) float64 { return s.op.Seconds() })
	opsT := each(traced, func(s sweepResult) float64 { return s.op.Seconds() })
	r.set("trace_overhead", median(opsT)/median(opsU)-1, "ratio",
		fmt.Sprintf("traced %.6f s vs untraced %.6f s sweep_s_p50", median(opsT), median(opsU)))
	runtime.KeepAlive(et)
	return nil
}

func each(sweeps []sweepResult, f func(sweepResult) float64) []float64 {
	out := make([]float64, len(sweeps))
	for i, s := range sweeps {
		out[i] = f(s)
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tailOf returns the highest percentile with at least tailSweeps samples
// beyond it, and which percentile that is (nearest-rank). With too few
// samples it falls back to the maximum.
func tailOf(xs []float64) (v, pct float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) - tailSweeps - 1
	if k < 0 {
		k = len(s) - 1
	}
	return s[k], 100 * float64(k+1) / float64(len(s))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mbPerS(bytes int64, d time.Duration) float64 {
	return ratio(float64(bytes)/(1<<20), d.Seconds())
}

func failRatio(r result) float64 {
	return ratio(float64(r.Failed), float64(r.Attempted))
}
