package core

import (
	"encoding/binary"
	"errors"
	"testing"

	"modchecker/internal/guest"
	"modchecker/internal/pe"
)

// The simulated x64 guests checked end to end by the one checker:
// introspection through vmi handles opened with the Win7x64 profile, and
// the Searcher, Parser and Integrity-Checker of this package.

func check64(t *testing.T, module string, target Target, peers []Target) *ModuleReport {
	t.Helper()
	rep, err := NewChecker(Config{}).CheckModule(module, target, peers)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestListModules64MatchesGroundTruth(t *testing.T) {
	guests, targets := testPool64(t, 1)
	mods, err := NewSearcher(targets[0].Handle, CopyPageWise).ListModules()
	if err != nil {
		t.Fatal(err)
	}
	truth := guests[0].Modules()
	if len(mods) != len(truth) {
		t.Fatalf("introspection sees %d, guest has %d", len(mods), len(truth))
	}
	byName := map[string]ModuleInfo{}
	for _, m := range mods {
		byName[m.Name] = m
	}
	for _, w := range truth {
		g, ok := byName[w.Name]
		if !ok || g.DllBase != w.Base || g.SizeOfImage != w.SizeOfImage || g.LdrEntryVA != w.LdrEntryVA {
			t.Errorf("%s: got %+v, want base %#x size %#x", w.Name, g, w.Base, w.SizeOfImage)
		}
	}
}

func TestGuest64Unload(t *testing.T) {
	guests, targets := testPool64(t, 1)
	g := guests[0]
	if err := g.UnloadModule("hal.dll"); err != nil {
		t.Fatal(err)
	}
	if g.Module("hal.dll") != nil {
		t.Error("module still tracked")
	}
	mods, err := NewSearcher(targets[0].Handle, CopyPageWise).ListModules()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mods {
		if m.Name == "hal.dll" {
			t.Error("unloaded module still in list")
		}
	}
	if len(mods) != 3 {
		t.Errorf("%d modules after unload", len(mods))
	}
	if err := g.UnloadModule("hal.dll"); err == nil {
		t.Error("double unload succeeded")
	}
}

func TestCheckModule64Clean(t *testing.T) {
	_, targets := testPool64(t, 4)
	rep := check64(t, "hal.dll", targets[0], targets[1:])
	if rep.Verdict != VerdictClean {
		t.Fatalf("verdict %v; mismatched %v", rep.Verdict, rep.MismatchedComponents())
	}
	if rep.Successes != 3 || rep.Comparisons != 3 {
		t.Errorf("%d/%d", rep.Successes, rep.Comparisons)
	}
}

func TestCheckModule64AllCatalog(t *testing.T) {
	_, targets := testPool64(t, 3)
	for _, spec := range guest.StandardCatalog64() {
		rep := check64(t, spec.Name, targets[0], targets[1:])
		if rep.Verdict != VerdictClean {
			t.Errorf("%s: %v (%v)", spec.Name, rep.Verdict, rep.MismatchedComponents())
		}
	}
}

func TestCheckModule64DetectsPatch(t *testing.T) {
	guests, targets := testPool64(t, 4)
	// Patch 4 code bytes in the live module on VM 2 (a 64-bit inline
	// patch).
	g := guests[1]
	mod := g.Module("tcpip.sys")
	if err := g.AddressSpace().Write(mod.Base+0x1100, []byte{0xCC, 0xCC, 0xCC, 0xCC}); err != nil {
		t.Fatal(err)
	}
	rep := check64(t, "tcpip.sys", targets[1], []Target{targets[0], targets[2], targets[3]})
	if rep.Verdict != VerdictAltered {
		t.Fatalf("verdict %v", rep.Verdict)
	}
	if mm := rep.MismatchedComponents(); len(mm) != 1 || mm[0] != ".text" {
		t.Errorf("mismatched = %v", mm)
	}
	// Other VMs still judge their copies clean.
	rep = check64(t, "tcpip.sys", targets[0], []Target{targets[1], targets[2], targets[3]})
	if rep.Verdict != VerdictClean || rep.Successes != 2 {
		t.Errorf("clean VM: %v %d/%d", rep.Verdict, rep.Successes, rep.Comparisons)
	}
}

func TestCheckModule64HeaderTamper(t *testing.T) {
	guests, targets := testPool64(t, 3)
	g := guests[0]
	mod := g.Module("hal.dll")
	// Flip a byte in the OPTIONAL header (in-memory).
	hdr := make([]byte, 0x40)
	if err := g.AddressSpace().Read(mod.Base, hdr); err != nil {
		t.Fatal(err)
	}
	lfanew := uint64(binary.LittleEndian.Uint32(hdr[0x3C:]))
	if err := g.AddressSpace().Write(mod.Base+lfanew+4+pe.FileHeaderSize+46, []byte{0x99}); err != nil {
		t.Fatal(err)
	}
	rep := check64(t, "hal.dll", targets[0], targets[1:])
	if rep.Verdict != VerdictAltered {
		t.Fatalf("verdict %v", rep.Verdict)
	}
	if mm := rep.MismatchedComponents(); len(mm) != 1 || mm[0] != "IMAGE_OPTIONAL_HEADER64" {
		t.Errorf("mismatched = %v", mm)
	}
}

func TestCheckModule64Missing(t *testing.T) {
	_, targets := testPool64(t, 2)
	_, err := NewChecker(Config{}).CheckModule("ghost.sys", targets[0], targets[1:])
	if !errors.Is(err, ErrModuleNotFound) {
		t.Errorf("missing module check: %v", err)
	}
}

func TestCheckModule64PeerWithoutModule(t *testing.T) {
	guests, targets := testPool64(t, 4)
	if err := guests[2].UnloadModule("hal.dll"); err != nil {
		t.Fatal(err)
	}
	rep := check64(t, "hal.dll", targets[0], targets[1:])
	// Peer without the module is excluded from the vote.
	if rep.Comparisons != 2 || rep.Verdict != VerdictClean {
		t.Errorf("%d comparisons, %v", rep.Comparisons, rep.Verdict)
	}
}
