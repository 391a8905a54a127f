package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"modchecker/internal/faults"
	"modchecker/internal/guest"
	"modchecker/internal/mm"
	"modchecker/internal/nt"
	"modchecker/internal/vmi"
)

// planTarget opens a VMI target whose physical reads pass through the fault
// plan's schedule for that VM. The plan's reader is goroutine-safe, so these
// targets are valid under the parallel driver.
func planTarget(g *guest.Guest, p *faults.Plan) Target {
	h := vmi.Open(g.Name(), p.Reader(g.Name(), g.Phys()), g.CR3(),
		vmi.XPSP2Profile(guest.PsLoadedModuleListVA))
	return Target{Name: g.Name(), Handle: h}
}

func TestSearcherFailsCleanlyOnMemoryFault(t *testing.T) {
	guests, _ := testPool(t, 1)
	vm := guests[0].Name()
	// First measure how many physical reads a healthy fetch needs.
	probe := faults.NewPlan(1)
	pt := planTarget(guests[0], probe)
	if _, _, _, err := NewSearcher(pt.Handle, CopyPageWise).FetchModule("alpha.sys"); err != nil {
		t.Fatal(err)
	}
	total := probe.Reads(vm)
	// Inject permanent faults at several points strictly before completion:
	// at the very start, during the list walk, and mid-copy.
	for _, n := range []uint64{0, 1, 5, total / 2, total - 1} {
		p := faults.NewPlan(1)
		p.FailForever(vm, n)
		ft := planTarget(guests[0], p)
		if _, _, _, err := NewSearcher(ft.Handle, CopyPageWise).FetchModule("alpha.sys"); err == nil {
			t.Errorf("fetch with faults after %d/%d reads succeeded", n, total)
		} else if !errors.Is(err, faults.ErrInjectedPermanent) {
			t.Errorf("fault not propagated: %v", err)
		}
	}
}

func TestSearcherRetriesTransientFault(t *testing.T) {
	guests, _ := testPool(t, 1)
	vm := guests[0].Name()

	// Without a retry policy the transient window is fatal.
	p := faults.NewPlan(1)
	p.FailReads(vm, 0, 2)
	ft := planTarget(guests[0], p)
	if _, _, _, err := NewSearcher(ft.Handle, CopyPageWise).FetchModule("alpha.sys"); !errors.Is(err, faults.ErrInjectedTransient) {
		t.Fatalf("no-retry fetch: %v, want transient injected fault", err)
	}

	// With retries the window is crossed: each failing attempt consumes one
	// read, so a 2-read window falls inside a 3-attempt budget. The backoff
	// rides home in the returned nominal cost — simulated time, not a sleep.
	probe := faults.NewPlan(1)
	st := planTarget(guests[0], probe)
	_, _, healthyCost, err := NewSearcher(st.Handle, CopyPageWise).FetchModule("alpha.sys")
	if err != nil {
		t.Fatal(err)
	}
	p2 := faults.NewPlan(1)
	p2.FailReads(vm, 0, 2)
	rt := planTarget(guests[0], p2)
	policy := RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond}
	_, buf, cost, err := NewSearcher(rt.Handle, CopyPageWise).WithRetry(policy).FetchModule("alpha.sys")
	if err != nil {
		t.Fatalf("retried fetch failed: %v", err)
	}
	if len(buf) == 0 {
		t.Fatal("retried fetch returned no bytes")
	}
	// Two failed attempts -> backoff of 1ms then 2ms on top of the work.
	if cost < healthyCost+3*time.Millisecond {
		t.Errorf("cost %v does not include backoff (healthy fetch costs %v)", cost, healthyCost)
	}
}

func TestSearcherDoesNotRetryPermanentFault(t *testing.T) {
	guests, _ := testPool(t, 1)
	vm := guests[0].Name()
	p := faults.NewPlan(1)
	p.FailForever(vm, 0)
	ft := planTarget(guests[0], p)
	policy := RetryPolicy{MaxAttempts: 5, BaseBackoff: time.Millisecond}
	if _, _, _, err := NewSearcher(ft.Handle, CopyPageWise).WithRetry(policy).FetchModule("alpha.sys"); !errors.Is(err, faults.ErrInjectedPermanent) {
		t.Fatalf("err = %v, want permanent injected fault", err)
	}
	// A permanent fault must burn exactly one attempt: one read consumed.
	if got := p.Reads(vm); got != 1 {
		t.Errorf("plan observed %d reads, want 1 (no retries on permanent faults)", got)
	}
}

// TestSearcherVerifyDetectsTornRead: without verified reads a torn copy is
// silently wrong; with them the fetch fails transiently instead of returning
// corrupt bytes.
func TestSearcherVerifyDetectsTornRead(t *testing.T) {
	guests, _ := testPool(t, 1)
	g := guests[0]
	vm := g.Name()
	mod := g.Module("alpha.sys")
	want := make([]byte, mod.SizeOfImage)
	if err := g.AddressSpace().Read(mod.Base, want); err != nil {
		t.Fatal(err)
	}

	p := faults.NewPlan(2)
	p.TornWindow(vm, 0, 1<<40)
	ft := planTarget(g, p)
	_, buf, _, err := NewSearcher(ft.Handle, CopyPageWise).FetchModule("alpha.sys")
	if err != nil {
		t.Fatalf("unverified fetch of torn module errored: %v", err)
	}
	if bytes.Equal(buf, want) {
		t.Fatal("torn window had no effect; test is vacuous")
	}

	p2 := faults.NewPlan(2)
	p2.TornWindow(vm, 0, 1<<40)
	vt := planTarget(g, p2)
	s := NewSearcher(vt.Handle, CopyPageWise).WithRetry(RetryPolicy{MaxAttempts: 1, VerifyReads: true})
	if _, _, _, err := s.FetchModule("alpha.sys"); !errors.Is(err, vmi.ErrTornRead) {
		t.Fatalf("verified fetch: %v, want ErrTornRead", err)
	} else if !faults.IsTransient(err) {
		t.Error("torn read not classified transient")
	}
}

func TestCheckModuleTargetFaultIsError(t *testing.T) {
	guests, targets := testPool(t, 3)
	p := faults.NewPlan(1)
	p.FailForever(guests[0].Name(), 10)
	ft := planTarget(guests[0], p)
	if _, err := NewChecker(Config{}).CheckModule("alpha.sys", ft, targets[1:]); err == nil {
		t.Error("check with faulting target succeeded")
	}
}

func TestCheckModulePeerFaultExcluded(t *testing.T) {
	guests, targets := testPool(t, 4)
	// Peer 2's memory faults mid-copy; the vote proceeds over the rest.
	p := faults.NewPlan(1)
	p.FailForever(guests[2].Name(), 20)
	peers := []Target{targets[1], planTarget(guests[2], p), targets[3]}
	rep, err := NewChecker(Config{}).CheckModule("alpha.sys", targets[0], peers)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Comparisons != 2 || rep.Verdict != VerdictClean {
		t.Errorf("comparisons=%d verdict=%v", rep.Comparisons, rep.Verdict)
	}
	var faulted bool
	for _, pr := range rep.Pairs {
		if pr.Err != nil && errors.Is(pr.Err, faults.ErrInjectedPermanent) {
			faulted = true
			if pr.ErrClass != faults.ClassPermanent {
				t.Errorf("pair error class = %v, want permanent", pr.ErrClass)
			}
		}
	}
	if !faulted {
		t.Error("fault not recorded in pair results")
	}
}

func TestCheckPoolWithFaultyVM(t *testing.T) {
	guests, targets := testPool(t, 4)
	p := faults.NewPlan(1)
	p.FailForever(guests[1].Name(), 20)
	targets[1] = planTarget(guests[1], p)
	rep, err := NewChecker(Config{}).CheckPool("alpha.sys", targets)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range rep.Errored {
		if n == targets[1].Name {
			found = true
		}
	}
	if !found {
		t.Errorf("faulty VM not errored: %+v", rep.Errored)
	}
	r := rep.Report(targets[1].Name)
	if r.Verdict != VerdictError || r.Err == nil || r.ErrClass != faults.ClassPermanent {
		t.Errorf("faulty VM report: verdict=%v err=%v class=%v", r.Verdict, r.Err, r.ErrClass)
	}
	if len(rep.Flagged) != 0 {
		t.Errorf("healthy VMs flagged: %v", rep.Flagged)
	}
	if rep.Healthy != 3 {
		t.Errorf("Healthy = %d, want 3", rep.Healthy)
	}
}

// TestCheckPoolTornVMErrsInsteadOfFlagging: a VM whose reads tear forever
// must not masquerade as an infection. Without verified reads its corrupt
// copy splits from the pool; with verify + retry the pipeline reports it as
// a transient error and the healthy majority stays clean.
func TestCheckPoolTornVMErrsInsteadOfFlagging(t *testing.T) {
	guests, _ := testPool(t, 4)
	torn := guests[1].Name()

	mkTargets := func(p *faults.Plan) []Target {
		out := make([]Target, len(guests))
		for i, g := range guests {
			out[i] = planTarget(g, p)
		}
		return out
	}

	p := faults.NewPlan(9)
	p.TornWindow(torn, 0, 1<<40)
	rep, err := NewChecker(Config{}).CheckPool("alpha.sys", mkTargets(p))
	if err != nil {
		t.Fatal(err)
	}
	if r := rep.Report(torn); r.Verdict == VerdictClean {
		t.Error("torn VM reported clean without verification")
	}
	for _, f := range rep.Flagged {
		if f != torn {
			t.Errorf("healthy VM %s flagged because of a torn peer", f)
		}
	}

	p2 := faults.NewPlan(9)
	p2.TornWindow(torn, 0, 1<<40)
	rep2, err := NewChecker(Config{
		Retry: RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, VerifyReads: true},
	}).CheckPool("alpha.sys", mkTargets(p2))
	if err != nil {
		t.Fatal(err)
	}
	r := rep2.Report(torn)
	if r.Verdict != VerdictError || r.ErrClass != faults.ClassTransient {
		t.Errorf("torn VM with verify: verdict=%v class=%v, want transient error", r.Verdict, r.ErrClass)
	}
	if len(rep2.Flagged) != 0 {
		t.Errorf("flagged = %v, want none", rep2.Flagged)
	}
	for _, vm := range []string{guests[0].Name(), guests[2].Name(), guests[3].Name()} {
		if rep2.Report(vm).Verdict != VerdictClean {
			t.Errorf("%s: %v, want clean", vm, rep2.Report(vm).Verdict)
		}
	}
}

// TestCheckPoolQuorumDegradation: when peer failures shrink the healthy pool
// below MinPeers, verdicts degrade to Inconclusive rather than trusting a
// one-peer majority.
func TestCheckPoolQuorumDegradation(t *testing.T) {
	guests, targets := testPool(t, 4)
	p := faults.NewPlan(1)
	p.FailForever(guests[2].Name(), 0)
	p.FailForever(guests[3].Name(), 0)
	targets[2] = planTarget(guests[2], p)
	targets[3] = planTarget(guests[3], p)

	// Default quorum: the two survivors vouch for each other.
	rep, err := NewChecker(Config{}).CheckPool("alpha.sys", targets)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Report(targets[0].Name).Verdict != VerdictClean {
		t.Errorf("default quorum: %v, want clean", rep.Report(targets[0].Name).Verdict)
	}

	// MinPeers 2: one surviving peer is not enough for a conclusive verdict.
	p2 := faults.NewPlan(1)
	p2.FailForever(guests[2].Name(), 0)
	p2.FailForever(guests[3].Name(), 0)
	targets[2] = planTarget(guests[2], p2)
	targets[3] = planTarget(guests[3], p2)
	rep2, err := NewChecker(Config{Quorum: QuorumPolicy{MinPeers: 2}}).CheckPool("alpha.sys", targets)
	if err != nil {
		t.Fatal(err)
	}
	for _, vm := range []string{targets[0].Name, targets[1].Name} {
		if rep2.Report(vm).Verdict != VerdictInconclusive {
			t.Errorf("%s under MinPeers=2: %v, want inconclusive", vm, rep2.Report(vm).Verdict)
		}
	}
	if len(rep2.Errored) != 2 {
		t.Errorf("errored = %v, want the two failed VMs", rep2.Errored)
	}
}

// TestPoolRobustnessProperty is the randomized safety net: across seeded
// fault schedules and pool sizes, a pool sweep with the default retry policy
// never flags a healthy VM and never panics. Fault schedules are themselves
// seeded, so a failure here is replayable from the log line alone.
func TestPoolRobustnessProperty(t *testing.T) {
	for _, size := range []int{3, 5} {
		guests, _ := testPool(t, size)
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed * 1000003))
			p := faults.NewPlan(seed)
			faulty := map[string]bool{}
			nf := 1 + rng.Intn(size/2)
			for i := 0; i < nf; i++ {
				g := guests[rng.Intn(size)]
				faulty[g.Name()] = true
				switch rng.Intn(4) {
				case 0:
					p.FailForever(g.Name(), uint64(rng.Intn(50)))
				case 1:
					p.FailReads(g.Name(), uint64(rng.Intn(20)), uint64(20+rng.Intn(500)))
				case 2:
					p.FlakyReads(g.Name(), 0.05+0.3*rng.Float64())
				case 3:
					p.TornWindow(g.Name(), 0, uint64(1+rng.Intn(2000)))
				}
			}
			targets := make([]Target, size)
			for i, g := range guests {
				targets[i] = planTarget(g, p)
			}
			rep, err := NewChecker(Config{
				Retry:    DefaultRetryPolicy(),
				Parallel: seed%2 == 0,
			}).CheckPool("alpha.sys", targets)
			if err != nil {
				t.Fatalf("size %d seed %d: %v", size, seed, err)
			}
			for _, f := range rep.Flagged {
				if !faulty[f] {
					t.Errorf("size %d seed %d: healthy VM %s flagged", size, seed, f)
				}
			}
		}
	}
}

// TestSearcherRejectsHostileSizeOfImage: an attacker who rewrites the LDR
// entry's SizeOfImage to an absurd value must cause a clean failure, not a
// multi-gigabyte allocation — at either pointer width, since the x64 LDR
// layout puts the field elsewhere but the MaxModuleSize cap is the same
// Searcher's. Under CheckPool the hostile VM errors and its peers stay clean.
func TestSearcherRejectsHostileSizeOfImage(t *testing.T) {
	x86 := func(t *testing.T) ([]Target, string) {
		guests, targets := testPool(t, 3)
		mod := guests[0].Module("alpha.sys")
		var huge [4]byte
		binary.LittleEndian.PutUint32(huge[:], 0x7FFFFFFF)
		if err := guests[0].AddressSpace().Write(mod.LdrEntryVA+uint64(nt.X86.OffSizeOfImage), huge[:]); err != nil {
			t.Fatal(err)
		}
		return targets, "alpha.sys"
	}
	x64 := func(t *testing.T) ([]Target, string) {
		guests, targets := testPool64(t, 3)
		mod := guests[0].Module("hal.dll")
		var huge [4]byte
		binary.LittleEndian.PutUint32(huge[:], 0xFFFFF000)
		if err := guests[0].AddressSpace().Write(mod.LdrEntryVA+uint64(nt.X64.OffSizeOfImage), huge[:]); err != nil {
			t.Fatal(err)
		}
		return targets, "hal.dll"
	}
	for _, width := range []struct {
		name  string
		setup func(*testing.T) ([]Target, string)
	}{{"x86", x86}, {"x64", x64}} {
		t.Run(width.name, func(t *testing.T) {
			targets, module := width.setup(t)
			s := NewSearcher(targets[0].Handle, CopyPageWise)
			_, _, _, err := s.FetchModule(module)
			if err == nil {
				t.Fatal("hostile SizeOfImage accepted")
			}
			if !strings.Contains(err.Error(), "SizeOfImage") {
				t.Errorf("unexpected error: %v", err)
			}
			rep, err := NewChecker(Config{}).CheckPool(module, targets)
			if err != nil {
				t.Fatal(err)
			}
			if r := rep.Report(targets[0].Name); r == nil || r.Verdict != VerdictError {
				t.Errorf("hostile VM report %+v", r)
			}
			if len(rep.Flagged) != 0 || rep.Healthy != len(targets)-1 {
				t.Errorf("flagged=%v healthy=%d", rep.Flagged, rep.Healthy)
			}
		})
	}
}

func TestSearcherRejectsZeroSizeOfImage(t *testing.T) {
	guests, targets := testPool(t, 1)
	g := guests[0]
	mod := g.Module("alpha.sys")
	if err := g.AddressSpace().Write(mod.LdrEntryVA+uint64(nt.X86.OffSizeOfImage), []byte{0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	s := NewSearcher(targets[0].Handle, CopyPageWise)
	if _, _, _, err := s.FetchModule("alpha.sys"); err == nil {
		t.Error("zero SizeOfImage accepted")
	}
}

// TestCheckPoolHostileLdrEntryFlagsVM: tampering the LDR metadata itself
// (shrinking SizeOfImage so part of the module escapes hashing) must still
// surface, because peers report the true size and the parsed component
// sets/length differ.
func TestCheckPoolHostileLdrShrink(t *testing.T) {
	guests, targets := testPool(t, 4)
	g := guests[0]
	mod := g.Module("alpha.sys")
	// Shrink by one page: section data near the end is cut off.
	var shrunk [4]byte
	binary.LittleEndian.PutUint32(shrunk[:], mod.SizeOfImage-mm.PageSize)
	if err := g.AddressSpace().Write(mod.LdrEntryVA+uint64(nt.X86.OffSizeOfImage), shrunk[:]); err != nil {
		t.Fatal(err)
	}
	rep, err := NewChecker(Config{}).CheckPool("alpha.sys", targets)
	if err != nil {
		t.Fatal(err)
	}
	detected := false
	for _, lists := range [][]string{rep.Flagged, rep.Inconclusive, rep.Errored} {
		for _, f := range lists {
			if f == targets[0].Name {
				detected = true
			}
		}
	}
	if !detected {
		t.Errorf("LDR-shrunk VM escaped detection: flagged=%v inconclusive=%v errored=%v",
			rep.Flagged, rep.Inconclusive, rep.Errored)
	}
}
