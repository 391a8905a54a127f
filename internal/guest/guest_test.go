package guest

import (
	"bytes"
	"encoding/binary"
	"testing"

	"modchecker/internal/mm"
	"modchecker/internal/nt"
	"modchecker/internal/pe"
)

// smallDisk builds a compact module set for fast tests.
func smallDisk(t testing.TB) map[string][]byte {
	t.Helper()
	disk := map[string][]byte{}
	for _, spec := range []ModuleSpec{
		{Name: "alpha.sys", TextSize: 8 << 10, DataSize: 2 << 10, RdataSize: 1 << 10, PreferredBase: 0x10000, Marker: true},
		{Name: "beta.sys", TextSize: 12 << 10, DataSize: 4 << 10, RdataSize: 1 << 10, PreferredBase: 0x10000,
			Imports: []pe.Import{{DLL: "ntoskrnl.exe", Functions: []string{"ZwClose"}}}},
	} {
		img, err := BuildImage(spec)
		if err != nil {
			t.Fatalf("BuildImage(%s): %v", spec.Name, err)
		}
		disk[spec.Name] = img
	}
	return disk
}

func newGuest(t testing.TB, name string, seed int64) *Guest {
	t.Helper()
	g, err := New(Config{Name: name, MemBytes: 16 << 20, BootSeed: seed, Disk: smallDisk(t)})
	if err != nil {
		t.Fatalf("guest.New: %v", err)
	}
	return g
}

func TestBootLoadsAllModules(t *testing.T) {
	g := newGuest(t, "vm1", 1)
	mods := g.Modules()
	if len(mods) != 2 {
		t.Fatalf("%d modules loaded, want 2", len(mods))
	}
	if mods[0].Name != "alpha.sys" || mods[1].Name != "beta.sys" {
		t.Errorf("modules = %v", mods)
	}
}

func TestBootRequiresDisk(t *testing.T) {
	if _, err := New(Config{Name: "x", BootSeed: 1}); err == nil {
		t.Error("boot without disk succeeded")
	}
}

func TestModuleLookupCaseInsensitive(t *testing.T) {
	g := newGuest(t, "vm1", 1)
	if g.Module("ALPHA.SYS") == nil {
		t.Error("upper-case lookup failed")
	}
	if g.Module("nosuch.sys") != nil {
		t.Error("bogus module found")
	}
}

func TestModuleBasesInDriverArea(t *testing.T) {
	g := newGuest(t, "vm1", 1)
	for _, m := range g.Modules() {
		if m.Base < x86Layout.driverBase || m.Base >= x86Layout.driverEnd {
			t.Errorf("%s at %#x outside driver area", m.Name, m.Base)
		}
		if m.Base&(mm.PageSize-1) != 0 {
			t.Errorf("%s base %#x not page aligned", m.Name, m.Base)
		}
	}
}

func TestCloneBasesDiffer(t *testing.T) {
	g1 := newGuest(t, "vm1", 1)
	g2 := newGuest(t, "vm2", 2)
	if g1.Module("alpha.sys").Base == g2.Module("alpha.sys").Base {
		t.Error("different boot seeds produced identical bases")
	}
}

func TestSameSeedIdenticalBoot(t *testing.T) {
	g1 := newGuest(t, "vm", 7)
	g2 := newGuest(t, "vm", 7)
	m1, m2 := g1.Module("alpha.sys"), g2.Module("alpha.sys")
	if m1.Base != m2.Base || m1.LdrEntryVA != m2.LdrEntryVA {
		t.Error("same seed booted differently")
	}
}

// TestPsLoadedModuleListStructure walks the raw in-memory list the way an
// introspection tool would and cross-checks it against guest-side truth.
func TestPsLoadedModuleListStructure(t *testing.T) {
	g := newGuest(t, "vm1", 3)
	as := g.AddressSpace()

	readList := func(va uint64) nt.ListEntry {
		b := make([]byte, nt.X86.ListEntrySize())
		if err := as.Read(va, b); err != nil {
			t.Fatalf("read LIST_ENTRY at %#x: %v", va, err)
		}
		le, _ := nt.X86.DecodeListEntry(b)
		return le
	}

	head := readList(PsLoadedModuleListVA)
	var names []string
	var entries []uint64
	for cur := head.Flink; cur != PsLoadedModuleListVA; {
		raw := make([]byte, nt.X86.LdrEntrySize)
		if err := as.Read(cur, raw); err != nil {
			t.Fatal(err)
		}
		e, err := nt.X86.DecodeLdrEntry(raw)
		if err != nil {
			t.Fatal(err)
		}
		nameBuf := make([]byte, e.BaseDllName.Length)
		if err := as.Read(e.BaseDllName.Buffer, nameBuf); err != nil {
			t.Fatal(err)
		}
		name, _ := nt.DecodeUTF16(nameBuf)
		names = append(names, name)
		entries = append(entries, cur)
		cur = e.InLoadOrderLinks.Flink
	}
	if len(names) != 2 || names[0] != "alpha.sys" || names[1] != "beta.sys" {
		t.Errorf("forward walk names = %v", names)
	}

	// Backward walk must visit the same entries in reverse.
	var back []uint64
	for cur := head.Blink; cur != PsLoadedModuleListVA; {
		back = append(back, cur)
		le := readList(cur)
		cur = le.Blink
	}
	if len(back) != 2 || back[0] != entries[1] || back[1] != entries[0] {
		t.Errorf("backward walk = %#v, want reverse of %#v", back, entries)
	}
}

// TestLoadedImageMatchesRelocatedLayout verifies the loader applied base
// relocations exactly as pe.LayoutAt computes them.
func TestLoadedImageMatchesRelocatedLayout(t *testing.T) {
	g := newGuest(t, "vm1", 5)
	mod := g.Module("alpha.sys")
	img, err := pe.Parse(g.DiskImage("alpha.sys"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := img.LayoutAt(mod.Base)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, mod.SizeOfImage)
	if err := g.AddressSpace().Read(mod.Base, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("in-memory module differs from relocated layout")
	}
}

// TestLoadedImageContainsAbsoluteAddresses spot-checks that a reloc site in
// the mapped image holds base-adjusted values (not the preferred-base
// values from the file).
func TestLoadedImageContainsAbsoluteAddresses(t *testing.T) {
	g := newGuest(t, "vm1", 5)
	mod := g.Module("alpha.sys")
	img, _ := pe.Parse(g.DiskImage("alpha.sys"))
	sites, err := img.RelocSites()
	if err != nil || len(sites) == 0 {
		t.Fatalf("no reloc sites: %v", err)
	}
	var b [4]byte
	if err := g.AddressSpace().Read(mod.Base+uint64(sites[0]), b[:]); err != nil {
		t.Fatal(err)
	}
	addr := uint64(binary.LittleEndian.Uint32(b[:]))
	delta := mod.Base - img.Optional.ImageBase
	if addr < img.Optional.ImageBase+delta || addr >= img.Optional.ImageBase+delta+uint64(img.Optional.SizeOfImage) {
		t.Errorf("relocated operand %#x not within loaded image [%#x,%#x)",
			addr, mod.Base, mod.Base+uint64(mod.SizeOfImage))
	}
}

func TestLoadDuplicateRejected(t *testing.T) {
	g := newGuest(t, "vm1", 1)
	if _, err := g.LoadModule("alpha.sys"); err == nil {
		t.Error("duplicate load succeeded")
	}
}

func TestLoadMissingFile(t *testing.T) {
	g := newGuest(t, "vm1", 1)
	if _, err := g.LoadModule("ghost.sys"); err == nil {
		t.Error("loading nonexistent file succeeded")
	}
}

func TestUnloadRemovesFromList(t *testing.T) {
	g := newGuest(t, "vm1", 1)
	if err := g.UnloadModule("alpha.sys"); err != nil {
		t.Fatal(err)
	}
	if g.Module("alpha.sys") != nil {
		t.Error("module still tracked after unload")
	}
	// The in-memory list must now contain only beta.sys.
	as := g.AddressSpace()
	b := make([]byte, nt.X86.ListEntrySize())
	as.Read(PsLoadedModuleListVA, b)
	head, _ := nt.X86.DecodeListEntry(b)
	count := 0
	for cur := head.Flink; cur != PsLoadedModuleListVA; count++ {
		raw := make([]byte, nt.X86.LdrEntrySize)
		as.Read(cur, raw)
		e, _ := nt.X86.DecodeLdrEntry(raw)
		cur = e.InLoadOrderLinks.Flink
	}
	if count != 1 {
		t.Errorf("list has %d entries after unload, want 1", count)
	}
	// And the image pages must be unmapped.
	mod := newGuest(t, "vm1", 1).Module("alpha.sys") // same seed: same base
	if err := as.Read(mod.Base, make([]byte, 4)); err == nil {
		t.Error("unloaded module memory still mapped")
	}
}

func TestUnloadUnknown(t *testing.T) {
	g := newGuest(t, "vm1", 1)
	if err := g.UnloadModule("ghost.sys"); err == nil {
		t.Error("unloading unknown module succeeded")
	}
}

func TestReloadGetsFreshBase(t *testing.T) {
	g := newGuest(t, "vm1", 1)
	old := g.Module("alpha.sys").Base
	if err := g.UnloadModule("alpha.sys"); err != nil {
		t.Fatal(err)
	}
	mod, err := g.LoadModule("alpha.sys")
	if err != nil {
		t.Fatal(err)
	}
	if mod.Base == old {
		t.Error("reload reused the old base (bump allocator should advance)")
	}
}

func TestReplaceDiskImageCopyOnWrite(t *testing.T) {
	disk := smallDisk(t)
	g1, err := New(Config{Name: "a", MemBytes: 16 << 20, BootSeed: 1, Disk: disk})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := New(Config{Name: "b", MemBytes: 16 << 20, BootSeed: 2, Disk: disk})
	if err != nil {
		t.Fatal(err)
	}
	infected := append([]byte(nil), g1.DiskImage("alpha.sys")...)
	infected[len(infected)-1] ^= 0xFF
	if err := g1.ReplaceDiskImage("alpha.sys", infected); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(g2.DiskImage("alpha.sys"), infected) {
		t.Error("replacing g1's disk image leaked into g2 (no copy-on-write)")
	}
	if !bytes.Equal(g1.DiskImage("alpha.sys"), infected) {
		t.Error("g1's disk image not replaced")
	}
}

func TestReplaceDiskImageUnknownFile(t *testing.T) {
	g := newGuest(t, "vm1", 1)
	if err := g.ReplaceDiskImage("ghost.sys", []byte{1}); err == nil {
		t.Error("replacing unknown file succeeded")
	}
}

func TestSnapshotRestore(t *testing.T) {
	g := newGuest(t, "vm1", 1)
	mod := g.Module("alpha.sys")
	snap := g.Snapshot()

	// Corrupt the module in memory, then restore.
	if err := g.AddressSpace().Write(mod.Base+0x1000, []byte{0xCC, 0xCC, 0xCC, 0xCC}); err != nil {
		t.Fatal(err)
	}
	g.Restore(snap)

	img, _ := pe.Parse(g.DiskImage("alpha.sys"))
	want, _ := img.LayoutAt(mod.Base)
	got := make([]byte, mod.SizeOfImage)
	if err := g.AddressSpace().Read(mod.Base, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("restore did not revert memory")
	}
}

func TestSnapshotRestoreTwice(t *testing.T) {
	g := newGuest(t, "vm1", 1)
	mod := g.Module("alpha.sys")
	snap := g.Snapshot()
	for i := 0; i < 2; i++ {
		g.AddressSpace().Write(mod.Base+0x1000, []byte{0xCC})
		g.Restore(snap)
	}
	var b [1]byte
	g.AddressSpace().Read(mod.Base+0x1000, b[:])
	if b[0] == 0xCC {
		t.Error("second restore ineffective")
	}
}

func TestSnapshotRestoresModuleSet(t *testing.T) {
	g := newGuest(t, "vm1", 1)
	snap := g.Snapshot()
	if err := g.UnloadModule("alpha.sys"); err != nil {
		t.Fatal(err)
	}
	g.Restore(snap)
	if g.Module("alpha.sys") == nil {
		t.Error("restore did not bring back the module record")
	}
	// After restore the guest must still be able to load/unload.
	if err := g.UnloadModule("alpha.sys"); err != nil {
		t.Errorf("unload after restore: %v", err)
	}
}

func TestResourceSampleIdle(t *testing.T) {
	g := newGuest(t, "vm1", 1)
	g.Tick(100)
	s := g.Sample()
	if s.CPUIdlePct < 90 {
		t.Errorf("idle guest CPU idle = %.1f%%", s.CPUIdlePct)
	}
	if s.FreePhysMemPct < 80 {
		t.Errorf("idle guest free mem = %.1f%%", s.FreePhysMemPct)
	}
}

func TestResourceSampleLoaded(t *testing.T) {
	g := newGuest(t, "vm1", 1)
	g.SetLoad(0.95, 0.8, 0.7, 0.5)
	g.Tick(100)
	s := g.Sample()
	if s.CPUIdlePct > 20 {
		t.Errorf("loaded guest CPU idle = %.1f%%", s.CPUIdlePct)
	}
	if s.PageFaultsPerS < 100 {
		t.Errorf("loaded guest faults = %.1f/s", s.PageFaultsPerS)
	}
	if g.Load() < 0.9 {
		t.Errorf("Load() = %.2f", g.Load())
	}
}

func TestSetLoadClamped(t *testing.T) {
	g := newGuest(t, "vm1", 1)
	g.SetLoad(7, -3, 0.5, 2)
	if g.Load() != 1 {
		t.Errorf("Load = %v, want clamp to 1", g.Load())
	}
}

func TestUptimeAdvances(t *testing.T) {
	g := newGuest(t, "vm1", 1)
	g.Tick(100)
	g.Tick(150)
	if s := g.Sample(); s.TimeMS != 250 {
		t.Errorf("uptime = %d, want 250", s.TimeMS)
	}
}
