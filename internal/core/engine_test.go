package core

import (
	"crypto/md5"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"modchecker/internal/faults"
	"modchecker/internal/guest"
	"modchecker/internal/pe"
	"modchecker/internal/rootkit"
	"modchecker/internal/vmi"
)

func TestPairIndexEnumeratesPairsInOrder(t *testing.T) {
	for n := 2; n <= 6; n++ {
		k := 0
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if got := pairIndex(a, b, n); got != k {
					t.Errorf("pairIndex(%d, %d, %d) = %d, want %d", a, b, n, got, k)
				}
				if got := pairIndex(b, a, n); got != k {
					t.Errorf("pairIndex(%d, %d, %d) = %d, want %d", b, a, n, got, k)
				}
				k++
			}
		}
	}
}

// randomClusters draws one cluster structure the engine can produce: VMs
// are errored or healthy, cluster ids are numbered in order of each
// cluster's first member, and every cluster carries its own component
// names and a mismatch list per cluster pair. Names come from a small
// alphabet, so clusters lack components their peers have (the rolling
// update shape), and lists may repeat a name (a hostile PE with duplicate
// section names).
func randomClusters(rng *rand.Rand) (errs []error, clusterOf, first []int, repNames, mms [][]string) {
	alphabet := []string{"IMAGE_DOS_HEADER", ".text", ".rdata", ".data", "INIT", "PAGE"}
	pick := func(max int) []string {
		var out []string
		for k := rng.Intn(max + 1); k > 0; k-- {
			out = append(out, alphabet[rng.Intn(len(alphabet))])
		}
		return out
	}
	n := 2 + rng.Intn(11)
	errs = make([]error, n)
	clusterOf = make([]int, n)
	for i := range clusterOf {
		switch r := rng.Intn(10); {
		case r == 0:
			errs[i] = faults.Transient("vm unreadable")
			clusterOf[i] = -1
		case r < 3 || len(first) == 0:
			clusterOf[i] = len(first)
			first = append(first, i)
			repNames = append(repNames, pick(4))
		default:
			clusterOf[i] = rng.Intn(len(first))
		}
	}
	nc := len(first)
	mms = make([][]string, nc*(nc-1)/2)
	for k := range mms {
		mms[k] = pick(3)
	}
	return errs, clusterOf, first, repNames, mms
}

// TestDeriveClustersMatchesPairwiseDerivation is a generated oracle for the
// engine's report derivation: over random cluster structures, deriving from
// clusters must reproduce the pairwise derivation's reports exactly — every
// verdict, pair and tally, including components that only some clusters
// have and repeated names — and lean derivation must agree with it on every
// non-clean VM's verdict, counts and tallies.
func TestDeriveClustersMatchesPairwiseDerivation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 500; iter++ {
		errs, clusterOf, first, repNames, mms := randomClusters(rng)
		n, nc := len(errs), len(repNames)
		cfg := Config{Quorum: QuorumPolicy{MinPeers: rng.Intn(4)}}
		vms := make([]Target, n)
		bases := make([]uint64, n)
		fetches := make([]*fetched, n)
		for i := range vms {
			vms[i] = Target{Name: fmt.Sprintf("vm%d", i)}
			fetches[i] = &fetched{target: vms[i], err: errs[i]}
			if errs[i] != nil {
				continue
			}
			bases[i] = uint64(0x10000 * (i + 1))
			pm := &ParsedModule{}
			for _, name := range repNames[clusterOf[i]] {
				pm.Components = append(pm.Components, Component{Name: name})
			}
			fetches[i].info = &ModuleInfo{DllBase: bases[i]}
			fetches[i].parsed = pm
		}
		baseOf := func(i int) uint64 { return bases[i] }
		mismatches := make(map[pairKey][]string)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				a, b := clusterOf[i], clusterOf[j]
				if a < 0 || b < 0 || a == b {
					continue
				}
				if mm := mms[pairIndex(a, b, nc)]; len(mm) > 0 {
					mismatches[pairKey{i, j}] = mm
				}
			}
		}

		oracle := &PoolReport{ModuleName: "m"}
		NewChecker(cfg).derivePool(oracle, "m", vms, fetches, mismatches)
		full := &PoolReport{ModuleName: "m"}
		NewChecker(cfg).deriveClusters(full, "m", vms, errs, baseOf, clusterOf, first, repNames, mms)
		if got, want := poolSig(full), poolSig(oracle); got != want {
			t.Fatalf("iteration %d: cluster derivation diverges from pairwise:\n--- clusters\n%s--- pairwise\n%s", iter, got, want)
		}

		cfg.LeanReports = true
		lean := &PoolReport{ModuleName: "m"}
		NewChecker(cfg).deriveClusters(lean, "m", vms, errs, baseOf, clusterOf, first, repNames, mms)
		if got, want := leanSig(lean), leanSig(oracle); got != want {
			t.Fatalf("iteration %d: lean derivation diverges from pairwise:\n--- lean\n%s--- pairwise\n%s", iter, got, want)
		}
	}
}

// leanSig fingerprints what a lean report keeps: the verdict lists, the
// healthy count, and every non-clean VM's verdict, counts and tallies.
func leanSig(rep *PoolReport) string {
	s := fmt.Sprintf("healthy=%d flagged=%v inconclusive=%v errored=%v\n",
		rep.Healthy, rep.Flagged, rep.Inconclusive, rep.Errored)
	for _, r := range rep.VMReports {
		if r.Verdict == VerdictClean {
			continue
		}
		s += fmt.Sprintf("vm=%s verdict=%v succ=%d comp=%d err=%v\n",
			r.TargetVM, r.Verdict, r.Successes, r.Comparisons, r.Err != nil)
		for _, c := range r.Components {
			s += fmt.Sprintf("  comp %s matches=%d mismatches=%d\n", c.Name, c.Matches, c.Mismatches)
		}
	}
	return s
}

// standardPool boots n guests from the standard 32-bit disk (hal.dll,
// tcpip.sys, dummy.sys, ...) — the modules the paper's E1–E4 infect.
func standardPool(t *testing.T, n int) ([]*guest.Guest, []Target) {
	t.Helper()
	disk, err := guest.BuildStandardDisk()
	if err != nil {
		t.Fatal(err)
	}
	profile := vmi.XPSP2Profile(guest.PsLoadedModuleListVA)
	guests := make([]*guest.Guest, n)
	targets := make([]Target, n)
	for i := range guests {
		g, err := guest.New(guest.Config{
			Name:     fmt.Sprintf("std-%d", i+1),
			MemBytes: 16 << 20,
			BootSeed: int64(i+1) * 7919,
			Disk:     disk,
		})
		if err != nil {
			t.Fatal(err)
		}
		guests[i] = g
		targets[i] = Target{Name: g.Name(), Handle: vmi.Open(g.Name(), g.Phys(), g.CR3(), profile)}
	}
	return guests, targets
}

// infectWith rewrites module on g's disk with mutate and reloads it.
func infectWith(t *testing.T, g *guest.Guest, module string, mutate func([]byte) ([]byte, error)) {
	t.Helper()
	if err := rootkit.InfectDiskAndReload(g, module, mutate); err != nil {
		t.Fatal(err)
	}
}

// disguiseAsPE32 rewrites module's live headers in g so the image parses as
// PE32 while its sections keep their PE32+ bytes: the optional-header magic
// and SizeOfOptionalHeader say PE32, and the section table moves up to
// follow the shorter header. Paired with a PE32+ reference, the copy is
// normalized at width 4.
func disguiseAsPE32(t *testing.T, g *guest.Guest, module string) {
	t.Helper()
	mod := g.Module(module)
	hdr := make([]byte, 4096)
	if err := g.AddressSpace().Read(mod.Base, hdr); err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	fileOff := le.Uint32(hdr[0x3C:]) + 4
	optOff := fileOff + pe.FileHeaderSize
	sections := uint32(le.Uint16(hdr[fileOff+2:])) * pe.SectionHeaderSize
	le.PutUint16(hdr[fileOff+16:], pe.OptionalHeader32Size)
	le.PutUint16(hdr[optOff:], pe.OptionalMagic32)
	table := optOff + pe.OptionalHeader64Size
	copy(hdr[optOff+pe.OptionalHeader32Size:], hdr[table:table+sections])
	if err := g.AddressSpace().Write(mod.Base, hdr); err != nil {
		t.Fatal(err)
	}
}

func opcodePatch(img []byte) ([]byte, error) {
	out, _, err := rootkit.OpcodeReplace(img)
	return out, err
}

// TestDigestMemoMatchesPlainDigest is the differential test for the digest
// stage's reference memo: on every pool and engine configuration, each
// copy's cluster key and cost through digestStage — the first task seeding
// the memo on the driving goroutine, later shards replaying against it —
// must equal what digestAgainst gives with no memo at all. Every memoized
// buffer must still hash to its memoized sum when the module check ends, so
// under the modpoison build tag a buffer recycled while the memo still
// holds it fails here.
func TestDigestMemoMatchesPlainDigest(t *testing.T) {
	const n = 6
	pools := []struct {
		name, module string
		build        func(t *testing.T) []Target
		// seedsText: the first digest task is clean, so .text is memoized.
		// replays: some later copy replays against a memoized component.
		seedsText, replays bool
		errored            int // copies the fault plan makes unreadable
	}{
		{"clean", "hal.dll", func(t *testing.T) []Target {
			_, targets := standardPool(t, n)
			return targets
		}, true, true, 0},
		{"E1", "hal.dll", func(t *testing.T) []Target {
			guests, targets := standardPool(t, n)
			infectWith(t, guests[3], "hal.dll", opcodePatch)
			return targets
		}, true, true, 0},
		{"E2", "tcpip.sys", func(t *testing.T) []Target {
			guests, targets := standardPool(t, n)
			if _, err := rootkit.InlineHookLive(guests[3], "tcpip.sys"); err != nil {
				t.Fatal(err)
			}
			return targets
		}, true, true, 0},
		{"E3", "dummy.sys", func(t *testing.T) []Target {
			guests, targets := standardPool(t, n)
			infectWith(t, guests[3], "dummy.sys", func(img []byte) ([]byte, error) {
				out, _, err := rootkit.StubPatch(img, "DOS", "CHK")
				return out, err
			})
			return targets
		}, true, true, 0},
		{"E4", "dummy.sys", func(t *testing.T) []Target {
			guests, targets := standardPool(t, n)
			infectWith(t, guests[3], "dummy.sys", func(img []byte) ([]byte, error) {
				out, _, err := rootkit.DLLHook(img, "inject.dll", "callMessageBox")
				return out, err
			})
			return targets
		}, true, true, 0},
		{"infected-first-digest", "hal.dll", func(t *testing.T) []Target {
			guests, targets := standardPool(t, n)
			infectWith(t, guests[1], "hal.dll", opcodePatch)
			return targets
		}, false, true, 0},
		{"x64", "tcpip.sys", func(t *testing.T) []Target {
			_, targets := testPool64(t, n)
			return targets
		}, true, true, 0},
		// Mixed widths against a PE32+ reference: the seeding copy is
		// normalized at width 4 and the clean copies after it at width 8,
		// or the other way round.
		{"pe32-first-digest", "tcpip.sys", func(t *testing.T) []Target {
			guests, targets := testPool64(t, n)
			disguiseAsPE32(t, guests[1], "tcpip.sys")
			return targets
		}, true, false, 0},
		{"pe32-later", "tcpip.sys", func(t *testing.T) []Target {
			guests, targets := testPool64(t, n)
			disguiseAsPE32(t, guests[3], "tcpip.sys")
			return targets
		}, true, true, 0},
		{"faulted", "hal.dll", func(t *testing.T) []Target {
			guests, targets := standardPool(t, n)
			p := faults.NewPlan(1)
			p.FailForever(guests[1].Name(), 20)
			targets[1] = planTarget(guests[1], p)
			return targets
		}, true, true, 1},
	}
	for _, pool := range pools {
		targets := pool.build(t)
		for _, workers := range []int{1, 2, 8} {
			for _, shard := range []int{0, 1, 4} {
				t.Run(fmt.Sprintf("%s/workers=%d/shard=%d", pool.name, workers, shard), func(t *testing.T) {
					c := NewChecker(Config{Parallel: true, Workers: workers})
					var ref *fetched
					var rest []*fetched
					errored := 0
					for _, tg := range targets {
						f := c.fetchAndParse(tg, pool.module)
						defer c.releaseFetched(f)
						switch {
						case f.err != nil:
							errored++
						case ref == nil:
							ref = f
						default:
							rest = append(rest, f)
						}
					}
					if errored != pool.errored || ref == nil {
						t.Fatalf("%d copies errored, want %d", errored, pool.errored)
					}
					memo := &digestMemo{}
					defer memo.release()
					step := shard
					if step <= 0 {
						step = len(rest)
					}
					for lo := 0; lo < len(rest); lo += step {
						batch := rest[lo:min(lo+step, len(rest))]
						keys, costs := c.digestStage(ref, batch, memo)
						for k, f := range batch {
							key, cost := c.digestAgainst(ref, f, nil)
							if keys[k] != key || costs[k] != cost {
								t.Errorf("%s: memo key %x cost %v, plain key %x cost %v",
									f.target.Name, keys[k], costs[k], key, cost)
							}
						}
					}
					for i := range memo.comps {
						if e := memo.entry(i); e != nil && md5.Sum(*e.buf) != e.sum {
							t.Errorf("memo of %s no longer hashes to its sum", ref.parsed.Components[i].Name)
						}
					}
					text := memo.entry(ref.parsed.componentIndex(".text")) != nil
					if text != pool.seedsText {
						t.Errorf(".text memoized = %v, want %v", text, pool.seedsText)
					}
					if replayed := c.stats.replays.Load() > 0; replayed != pool.replays {
						t.Errorf("copies replayed against the memo = %v, want %v", replayed, pool.replays)
					}
					if (!pool.seedsText || !pool.replays) && c.stats.fallbacks.Load() == 0 {
						t.Error("copies that cannot replay counted no full scans")
					}
				})
			}
		}
	}
}
