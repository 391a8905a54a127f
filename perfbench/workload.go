package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"modchecker"
	"modchecker/internal/cas"
	"modchecker/internal/vmi"
)

// workload is one benchmark configuration: the cloud it builds, the scanner
// options every sweep runs with, and what is planted in the pool.
type workload struct {
	name      string
	vms       int
	templates int
	cores     int
	// setups is how many times one run builds the workload from scratch;
	// setup_s is the median of those builds.
	setups int
	// cache gives the scanner a digest store, filled cold during set-up.
	cache bool
	// plant applies the paper's four infection experiments at set-up.
	plant bool
	// churn is how many VMs, drawn from the whole pool before each sweep,
	// get a snapshot and a live inline hook on churnModule, and are
	// reverted after the sweep.
	churn int
	opts  []modchecker.CheckerOption
}

const (
	churnModule = "ndis.sys"
	snapTag     = "perfbench"
	// catalogModules is the size of the standard module catalog every
	// guest loads; a sweep that checks fewer modules lost coverage.
	catalogModules = 7
)

// workloads is the benchmark's workload set; DESIGN.md records why each
// was chosen and which layers it loads and bypasses.
var workloads = map[string]workload{
	"paper15": {
		name: "paper15", vms: 15, setups: 7, plant: true,
		opts: []modchecker.CheckerOption{modchecker.WithParallel(), modchecker.WithWorkers(2)},
	},
	"fleet300_cached_churn": {
		name: "fleet300_cached_churn", vms: 300, templates: 4, cores: 8, setups: 3,
		cache: true, churn: 5,
	},
	"fleet100k_lean": {
		name: "fleet100k_lean", vms: 100000, templates: 4, cores: 800, setups: 3, churn: 5,
		opts: []modchecker.CheckerOption{
			modchecker.WithShardSize(256), modchecker.WithLeanReports(), modchecker.WithIdentityDedup(),
		},
	},
}

// check is one (VM, module) verdict of a sweep.
type check struct{ vm, module string }

// env is one built workload: the cloud, the scanner under test, and the
// seeded draws that decide what each sweep must find.
type env struct {
	w       workload
	cloud   *modchecker.Cloud
	scanner *modchecker.Scanner
	store   *modchecker.DigestStore // nil without a cache
	opts    []modchecker.CheckerOption
	names   []string
	planted map[check]bool // set-up infections, alerted by every sweep
	rng     *rand.Rand     // churn draws
	build   time.Duration  // NewCloud alone
	buf     bytes.Buffer   // reused render target
	reg     []metrics.Sample
}

// The paper's four infection experiments (Section V-B), each on its own
// VM of the testbed. The placement is fixed and none of them is on Dom1,
// the engine's reference: an E1 opcode change on the reference costs
// ~30 MB and ~297 sim-ms per sweep against ~20 MB and ~265 sim-ms
// elsewhere (DESIGN.md), so a seeded placement would make the workload's
// cost depend on which of 15 VMs the seed happened to pick.
var experiments = []struct {
	module, vm string
	apply      func(c *modchecker.Cloud, vm, module string) error
}{
	{"hal.dll", "Dom7", modchecker.InfectOpcode},           // E1: single opcode replaced
	{"tcpip.sys", "Dom3", modchecker.InfectInlineHookLive}, // E2: live inline hook
	{"dummy.sys", "Dom11", func(c *modchecker.Cloud, vm, m string) error { // E3: DOS stub text
		return modchecker.InfectStubPatch(c, vm, m, "DOS", "CHK")
	}},
	{"http.sys", "Dom13", func(c *modchecker.Cloud, vm, m string) error { // E4: DLL hook
		return modchecker.InfectDLLHook(c, vm, m, "inject.dll", "callMessageBox")
	}},
}

// setUp builds the workload from seed: the cloud, the planted infections,
// the scanner, and one warm-up sweep (for a cached workload, the cold fill
// of its digest store). vms overrides the pool size when positive.
func setUp(w workload, seed int64, vms int) (*env, error) {
	if vms > 0 {
		w.vms = vms
	}
	e := &env{w: w, planted: map[check]bool{}, rng: rand.New(rand.NewSource(seed))}
	t0 := time.Now()
	cloud, err := modchecker.NewCloud(modchecker.CloudConfig{
		VMs: w.vms, Templates: w.templates, Cores: w.cores, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	e.build = time.Since(t0)
	e.cloud = cloud
	e.names = cloud.VMNames()
	if w.plant {
		for _, x := range experiments {
			if err := x.apply(cloud, x.vm, x.module); err != nil {
				return nil, fmt.Errorf("planting %s on %s: %w", x.module, x.vm, err)
			}
			e.planted[check{x.vm, x.module}] = true
		}
	}
	e.opts = w.opts
	if w.cache {
		e.store = modchecker.NewDigestStore(0)
		e.opts = append(append([]modchecker.CheckerOption(nil), w.opts...), modchecker.WithDigestCache(e.store))
	}
	e.scanner = cloud.NewScanner(e.opts...)
	rep, err := e.scanner.Sweep()
	if err != nil {
		return nil, fmt.Errorf("warm-up sweep: %w", err)
	}
	if failed, _ := e.verify(rep, e.planted); failed != 0 {
		return nil, fmt.Errorf("warm-up sweep: %d wrong verdicts, alerts %v", failed, alertList(rep))
	}
	return e, nil
}

// draw picks the VMs the next sweep churns: n distinct VMs from the whole
// pool, the engine's reference VM included.
func (e *env) draw() []string {
	picked := make(map[int]bool, e.w.churn)
	out := make([]string, 0, e.w.churn)
	for len(out) < e.w.churn {
		k := e.rng.Intn(len(e.names))
		if !picked[k] {
			picked[k] = true
			out = append(out, e.names[k])
		}
	}
	sort.Strings(out)
	return out
}

// churn snapshots each drawn VM and hooks its copy of churnModule.
func (e *env) churn(vms []string) error {
	for _, vm := range vms {
		if err := e.cloud.Domain(vm).TakeSnapshot(snapTag); err != nil {
			return err
		}
		if err := modchecker.InfectInlineHookLive(e.cloud, vm, churnModule); err != nil {
			return err
		}
	}
	return nil
}

// revert rolls the drawn VMs back to their pre-hook snapshots.
func (e *env) revert(vms []string) error {
	for _, vm := range vms {
		if err := e.cloud.Domain(vm).Revert(snapTag); err != nil {
			return err
		}
	}
	return nil
}

// expected is the set of (VM, module) pairs a sweep must alert: the
// set-up infections plus this sweep's churned hooks.
func (e *env) expected(drawn []string) map[check]bool {
	want := make(map[check]bool, len(e.planted)+len(drawn))
	for c := range e.planted {
		want[c] = true
	}
	for _, vm := range drawn {
		want[check{vm, churnModule}] = true
	}
	return want
}

// verify is the verdict oracle. It returns how many of the sweep's checks
// (modules × VMs) came out wrong: a planted pair not alerted as ALTERED, an
// alert on a clean pair, a module error (every VM of that module), or
// missing coverage.
func (e *env) verify(rep *modchecker.SweepReport, want map[check]bool) (failed, attempted int) {
	attempted = catalogModules * len(e.names)
	if rep == nil {
		return attempted, attempted
	}
	seen := make(map[check]bool, len(rep.Alerts))
	for _, a := range rep.Alerts {
		c := check{a.VM, a.Module}
		seen[c] = true
		if !want[c] || a.Verdict != modchecker.VerdictAltered {
			failed++
		}
	}
	for c := range want {
		if !seen[c] {
			failed++
		}
	}
	failed += len(rep.Errors) * len(e.names)
	if missing := catalogModules - rep.ModulesChecked - len(rep.Errors); missing > 0 {
		failed += missing * len(e.names)
	}
	if rep.VMs != len(e.names) || rep.Partial {
		failed += attempted
	}
	if failed > attempted {
		failed = attempted
	}
	return failed, attempted
}

func alertList(rep *modchecker.SweepReport) []string {
	var out []string
	for _, a := range rep.Alerts {
		out = append(out, fmt.Sprintf("%s@%s=%s", a.Module, a.VM, a.Verdict))
	}
	return out
}

// counters are the program's own work counters, read at sweep
// boundaries.
type counters struct {
	vmi vmi.Stats
	cas cas.Stats
}

func (e *env) counters() counters {
	c := counters{vmi: e.cloud.IntrospectionStats()}
	if e.store != nil {
		c.cas = e.store.Stats()
	}
	return c
}

// delta is the work one sweep did. Two runs of one seed must agree on it
// exactly, traced or not.
type delta struct {
	ptWalks, tlbHits, pagesRead, bytesRead uint64
	casLookups, casHits, casInserts        uint64
}

func (a counters) sub(b counters) delta {
	return delta{
		ptWalks:    a.vmi.PTWalks - b.vmi.PTWalks,
		tlbHits:    a.vmi.TLBHits - b.vmi.TLBHits,
		pagesRead:  a.vmi.PagesRead - b.vmi.PagesRead,
		bytesRead:  a.vmi.BytesRead - b.vmi.BytesRead,
		casLookups: a.cas.Lookups - b.cas.Lookups,
		casHits:    a.cas.Hits - b.cas.Hits,
		casInserts: a.cas.Inserts - b.cas.Inserts,
	}
}

// Go runtime counters read around each sweep op.
const (
	mAllocBytes = "/gc/heap/allocs:bytes"
	mGCCycles   = "/gc/cycles/total:gc-cycles"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU   = "/cpu/classes/total:cpu-seconds"
	mHeapLive   = "/gc/heap/live:bytes"
)

type rtStats struct {
	alloc, gcCycles uint64
	gcCPU, totalCPU float64
}

func (e *env) runtimeStats() rtStats {
	if e.reg == nil {
		e.reg = []metrics.Sample{{Name: mAllocBytes}, {Name: mGCCycles}, {Name: mGCCPU}, {Name: mTotalCPU}}
	}
	metrics.Read(e.reg)
	return rtStats{
		alloc:    e.reg[0].Value.Uint64(),
		gcCycles: e.reg[1].Value.Uint64(),
		gcCPU:    e.reg[2].Value.Float64(),
		totalCPU: e.reg[3].Value.Float64(),
	}
}

// heapLiveMB reports the live heap after two forced collections; the
// second empties the sync.Pool victim caches, which hold the engine's
// recycled buffers for one extra cycle.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: mHeapLive}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
