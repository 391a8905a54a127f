package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"modchecker/internal/guest"
	"modchecker/internal/nt"
	"modchecker/internal/vmi"
)

func TestListModulesMatchesGroundTruth(t *testing.T) {
	guests, targets := testPool(t, 1)
	s := NewSearcher(targets[0].Handle, CopyPageWise)
	mods, err := s.ListModules()
	if err != nil {
		t.Fatal(err)
	}
	truth := guests[0].Modules()
	if len(mods) != len(truth) {
		t.Fatalf("introspection sees %d modules, guest has %d", len(mods), len(truth))
	}
	byName := map[string]ModuleInfo{}
	for _, m := range mods {
		byName[m.Name] = m
	}
	for _, want := range truth {
		got, ok := byName[want.Name]
		if !ok {
			t.Errorf("module %s not found via introspection", want.Name)
			continue
		}
		if got.DllBase != want.Base || got.SizeOfImage != want.SizeOfImage {
			t.Errorf("%s: introspected base/size %#x/%#x, guest truth %#x/%#x",
				want.Name, got.DllBase, got.SizeOfImage, want.Base, want.SizeOfImage)
		}
		if got.LdrEntryVA != want.LdrEntryVA {
			t.Errorf("%s: LDR entry VA %#x, want %#x", want.Name, got.LdrEntryVA, want.LdrEntryVA)
		}
	}
}

func TestListModulesFullName(t *testing.T) {
	_, targets := testPool(t, 1)
	mods, err := NewSearcher(targets[0].Handle, CopyPageWise).ListModules()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mods {
		want := `\SystemRoot\System32\drivers\` + m.Name
		if m.FullName != want {
			t.Errorf("FullName = %q, want %q", m.FullName, want)
		}
	}
}

func TestFindModuleCaseInsensitive(t *testing.T) {
	_, targets := testPool(t, 1)
	s := NewSearcher(targets[0].Handle, CopyPageWise)
	info, err := s.FindModule("ALPHA.SYS")
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "alpha.sys" {
		t.Errorf("found %q", info.Name)
	}
}

func TestFindModuleMissing(t *testing.T) {
	_, targets := testPool(t, 1)
	s := NewSearcher(targets[0].Handle, CopyPageWise)
	if _, err := s.FindModule("ghost.sys"); !errors.Is(err, ErrModuleNotFound) {
		t.Errorf("err = %v, want ErrModuleNotFound", err)
	}
}

func TestCopyModuleMatchesGuestMemory(t *testing.T) {
	guests, targets := testPool(t, 1)
	s := NewSearcher(targets[0].Handle, CopyPageWise)
	info, err := s.FindModule("alpha.sys")
	if err != nil {
		t.Fatal(err)
	}
	buf, err := s.CopyModule(info)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, info.SizeOfImage)
	guests[0].AddressSpace().Read(info.DllBase, want)
	if !bytes.Equal(buf, want) {
		t.Error("copied module differs from guest memory")
	}
}

func TestCopyModuleMappedStrategy(t *testing.T) {
	_, targets := testPool(t, 1)
	pw := NewSearcher(targets[0].Handle, CopyPageWise)
	mp := NewSearcher(targets[0].Handle, CopyMapped)
	info, _ := pw.FindModule("alpha.sys")
	a, err := pw.CopyModule(info)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mp.CopyModule(info)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("strategies disagree on content")
	}
}

func TestFetchModuleCost(t *testing.T) {
	_, targets := testPool(t, 1)
	s := NewSearcher(targets[0].Handle, CopyPageWise)
	_, buf, cost, err := s.FetchModule("beta.sys")
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) == 0 {
		t.Fatal("empty module")
	}
	if cost <= 0 {
		t.Errorf("cost = %v", cost)
	}
	// The copy alone touches SizeOfImage/PageSize pages; cost must exceed
	// that many page reads.
	minCost := time.Duration(len(buf)/4096) * vmi.CostPageRead
	if cost < minCost {
		t.Errorf("cost %v below floor %v", cost, minCost)
	}
}

// TestSearcherDetectsLoopedList verifies the corrupt-list guard: a malware
// that makes the list circular (skipping the head) must not hang the
// searcher.
func TestSearcherDetectsLoopedList(t *testing.T) {
	guests, targets := testPool(t, 1)
	g := guests[0]
	mods := g.Modules()
	// Point the last module's FLINK back at the first module, bypassing
	// the list head sentinel.
	first, last := mods[0], mods[len(mods)-1]
	le := nt.X86.EncodeListEntry(nt.ListEntry{Flink: uint64(first.LdrEntryVA), Blink: 0})
	if err := g.AddressSpace().Write(last.LdrEntryVA, le[:4]); err != nil {
		t.Fatal(err)
	}
	s := NewSearcher(targets[0].Handle, CopyPageWise)
	if _, err := s.ListModules(); err == nil {
		t.Error("looped list traversed without error")
	}
}

// TestSearcherUnlinkedModuleInvisible demonstrates the classic DKOM attack
// surface: a module unlinked from PsLoadedModuleList is invisible to the
// searcher (a limitation ModChecker shares with the paper's prototype).
func TestSearcherUnlinkedModuleInvisible(t *testing.T) {
	guests, targets := testPool(t, 1)
	g := guests[0]
	mod := g.Module("alpha.sys")
	// DKOM-style unlink performed by the "attacker" inside the guest.
	raw := make([]byte, nt.X86.LdrEntrySize)
	g.AddressSpace().Read(mod.LdrEntryVA, raw)
	e, _ := nt.X86.DecodeLdrEntry(raw)
	g.AddressSpace().Write(e.InLoadOrderLinks.Blink, nt.X86.EncodeListEntry(nt.ListEntry{
		Flink: e.InLoadOrderLinks.Flink,
		Blink: mustBlinkOf(t, g, e.InLoadOrderLinks.Blink),
	}))
	g.AddressSpace().Write(e.InLoadOrderLinks.Flink+4, encodeU32(uint32(e.InLoadOrderLinks.Blink)))

	s := NewSearcher(targets[0].Handle, CopyPageWise)
	if _, err := s.FindModule("alpha.sys"); !errors.Is(err, ErrModuleNotFound) {
		t.Errorf("unlinked module still visible: %v", err)
	}
}

func mustBlinkOf(t *testing.T, g *guest.Guest, va uint64) uint64 {
	t.Helper()
	b := make([]byte, nt.X86.ListEntrySize())
	if err := g.AddressSpace().Read(va, b); err != nil {
		t.Fatal(err)
	}
	le, _ := nt.X86.DecodeListEntry(b)
	return le.Blink
}

func encodeU32(v uint32) []byte {
	return []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
}
