package modchecker

import (
	"encoding/binary"
	"fmt"
	"testing"

	"modchecker/internal/core"
	"modchecker/internal/guest"
	"modchecker/internal/pe"
	"modchecker/internal/vmi"
)

// x64Pool boots four simulated Windows-x64 guests and opens a target on
// each through the Win7x64 profile: the same core.Target the 32-bit cloud
// hands the checker, at the other pointer width.
func x64Pool(t *testing.T) ([]*guest.Guest, []core.Target) {
	t.Helper()
	disk, err := guest.BuildStandardDisk64()
	if err != nil {
		t.Fatal(err)
	}
	profile := vmi.Win7x64Profile(guest.PsLoadedModuleList64VA)
	guests := make([]*guest.Guest, 4)
	targets := make([]core.Target, 4)
	for i := range guests {
		g, err := guest.New(guest.Config{
			Name:     fmt.Sprintf("Win7x64-%d", i+1),
			BootSeed: int64(i+1) * 7919,
			Disk:     disk,
		})
		if err != nil {
			t.Fatal(err)
		}
		guests[i] = g
		targets[i] = core.Target{Name: g.Name(), Handle: vmi.Open(g.Name(), g.Phys(), g.CR3(), profile)}
	}
	return guests, targets
}

// TestClusteredMatchesPairwiseX64 runs the engine-vs-oracle differential on
// an x64 pool: PE32+ modules, four-level paging and 8-byte Algorithm 2
// fields through the same engine as the 32-bit pools. Default, parallel and
// a ShardSize-1 sweep session must each report exactly what FullPairwise
// reports, and the verdicts must single out the tampered VM and component.
func TestClusteredMatchesPairwiseX64(t *testing.T) {
	scenarios := []struct {
		name, module string
		tamper       func(t *testing.T, g *guest.Guest)
		// wantMismatch is the tampered VM's (Win7x64-2) only mismatched
		// component; empty for the clean pool.
		wantMismatch string
	}{
		{"clean", "hal.dll", func(*testing.T, *guest.Guest) {}, ""},
		{"text-patch", "tcpip.sys", func(t *testing.T, g *guest.Guest) {
			mod := g.Module("tcpip.sys")
			if err := g.AddressSpace().Write(mod.Base+0x1100, []byte{0xCC, 0xCC, 0xCC, 0xCC}); err != nil {
				t.Fatal(err)
			}
		}, ".text"},
		{"optional-header-flip", "hal.dll", func(t *testing.T, g *guest.Guest) {
			mod := g.Module("hal.dll")
			hdr := make([]byte, 0x40)
			if err := g.AddressSpace().Read(mod.Base, hdr); err != nil {
				t.Fatal(err)
			}
			lfanew := uint64(binary.LittleEndian.Uint32(hdr[0x3C:]))
			if err := g.AddressSpace().Write(mod.Base+lfanew+4+pe.FileHeaderSize+46, []byte{0x99}); err != nil {
				t.Fatal(err)
			}
		}, "IMAGE_OPTIONAL_HEADER64"},
	}
	configs := []struct {
		name    string
		cfg     core.Config
		session bool
	}{
		{"default", core.Config{}, false},
		{"parallel", core.Config{Parallel: true}, false},
		{"session-shard1", core.Config{ShardSize: 1}, true},
	}
	for _, sc := range scenarios {
		// Each run gets a freshly booted, identically tampered pool.
		pool := func(t *testing.T) []core.Target {
			guests, targets := x64Pool(t)
			sc.tamper(t, guests[1])
			return targets
		}
		oracle, err := core.NewChecker(core.Config{FullPairwise: true}).CheckPool(sc.module, pool(t))
		if err != nil {
			t.Fatal(err)
		}
		for _, cf := range configs {
			t.Run(sc.name+"/"+cf.name, func(t *testing.T) {
				var rep *PoolReport
				c := core.NewChecker(cf.cfg)
				if cf.session {
					sweep, err := c.NewPoolSweep(pool(t))
					if err != nil {
						t.Fatal(err)
					}
					defer sweep.Close()
					rep = sweep.CheckModule(sc.module)
				} else {
					var err error
					if rep, err = c.CheckPool(sc.module, pool(t)); err != nil {
						t.Fatal(err)
					}
				}
				if got, want := poolFingerprint(rep), poolFingerprint(oracle); got != want {
					t.Errorf("engine diverges from pairwise oracle:\n--- engine\n%s--- pairwise\n%s", got, want)
				}
				if sc.wantMismatch == "" {
					if len(rep.Flagged) != 0 || rep.Healthy != 4 {
						t.Errorf("clean pool: flagged=%v healthy=%d", rep.Flagged, rep.Healthy)
					}
					for _, r := range rep.VMReports {
						if r.Verdict != VerdictClean || r.Successes != 3 || r.Comparisons != 3 {
							t.Errorf("%s: %v %d/%d", r.TargetVM, r.Verdict, r.Successes, r.Comparisons)
						}
					}
					return
				}
				if len(rep.Flagged) != 1 || rep.Flagged[0] != "Win7x64-2" {
					t.Fatalf("flagged = %v, want [Win7x64-2]", rep.Flagged)
				}
				if mm := rep.Report("Win7x64-2").MismatchedComponents(); len(mm) != 1 || mm[0] != sc.wantMismatch {
					t.Errorf("mismatched = %v, want [%s]", mm, sc.wantMismatch)
				}
				if r := rep.Report("Win7x64-1"); r.Verdict != VerdictClean || r.Successes != 2 {
					t.Errorf("clean VM: %v %d/%d", r.Verdict, r.Successes, r.Comparisons)
				}
			})
		}
	}
}
