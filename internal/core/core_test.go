package core

import (
	"fmt"
	"testing"

	"modchecker/internal/guest"
	"modchecker/internal/pe"
	"modchecker/internal/vmi"
)

// testDisk builds a compact golden disk shared by core tests: one marker
// module and one plain module, both with relocations and imports.
func testDisk(t testing.TB) map[string][]byte {
	t.Helper()
	disk := map[string][]byte{}
	for _, spec := range []guest.ModuleSpec{
		{Name: "alpha.sys", TextSize: 16 << 10, DataSize: 4 << 10, RdataSize: 2 << 10,
			PreferredBase: 0x10000, Marker: true,
			Imports: []pe.Import{{DLL: "ntoskrnl.exe", Functions: []string{"ZwClose"}}}},
		{Name: "beta.sys", TextSize: 24 << 10, DataSize: 8 << 10, RdataSize: 2 << 10,
			PreferredBase: 0x10000,
			Imports:       []pe.Import{{DLL: "ntoskrnl.exe", Functions: []string{"IoCreateDevice"}}}},
	} {
		img, err := guest.BuildImage(spec)
		if err != nil {
			t.Fatal(err)
		}
		disk[spec.Name] = img
	}
	return disk
}

// pool boots n identical guests and opens a VMI target on each.
func testPool(t testing.TB, n int) ([]*guest.Guest, []Target) {
	t.Helper()
	disk := testDisk(t)
	profile := vmi.XPSP2Profile(guest.PsLoadedModuleListVA)
	guests := make([]*guest.Guest, n)
	targets := make([]Target, n)
	for i := 0; i < n; i++ {
		g, err := guest.New(guest.Config{
			Name:     "vm" + string(rune('1'+i)),
			MemBytes: 16 << 20,
			BootSeed: int64(i+1) * 7919,
			Disk:     disk,
		})
		if err != nil {
			t.Fatal(err)
		}
		guests[i] = g
		targets[i] = Target{
			Name:   g.Name(),
			Handle: vmi.Open(g.Name(), g.Phys(), g.CR3(), profile),
		}
	}
	return guests, targets
}

// testPool64 boots n simulated Windows-x64 guests from the standard 64-bit
// disk and opens a VMI target on each with the Win7x64 profile.
func testPool64(t testing.TB, n int) ([]*guest.Guest, []Target) {
	t.Helper()
	disk, err := guest.BuildStandardDisk64()
	if err != nil {
		t.Fatal(err)
	}
	profile := vmi.Win7x64Profile(guest.PsLoadedModuleList64VA)
	guests := make([]*guest.Guest, n)
	targets := make([]Target, n)
	for i := range guests {
		g, err := guest.New(guest.Config{
			Name:     fmt.Sprintf("x64-%d", i+1),
			BootSeed: int64(i+1) * 104729,
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
