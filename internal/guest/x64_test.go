package guest

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"modchecker/internal/nt"
	"modchecker/internal/pe"
)

// boot64 boots n clones of the standard 64-bit disk.
func boot64(t testing.TB, n int) []*Guest {
	t.Helper()
	disk, err := BuildStandardDisk64()
	if err != nil {
		t.Fatal(err)
	}
	guests := make([]*Guest, n)
	for i := range guests {
		g, err := New(Config{
			Name:     fmt.Sprintf("Win7x64-%d", i+1),
			BootSeed: int64(i+1) * 104729,
			Disk:     disk,
		})
		if err != nil {
			t.Fatal(err)
		}
		guests[i] = g
	}
	return guests
}

func TestGuest64Boot(t *testing.T) {
	g := boot64(t, 1)[0]
	if g.AddressSpace().Levels() != 4 {
		t.Fatalf("PE32+ disk booted %d-level paging", g.AddressSpace().Levels())
	}
	mods := g.Modules()
	if len(mods) != 4 {
		t.Fatalf("%d modules", len(mods))
	}
	for _, m := range mods {
		if m.Base < x64Layout.driverBase || m.Base >= x64Layout.driverEnd {
			t.Errorf("%s at %#x outside driver area", m.Name, m.Base)
		}
	}
}

func TestGuest64BasesDiffer(t *testing.T) {
	guests := boot64(t, 2)
	if guests[0].Module("hal.dll").Base == guests[1].Module("hal.dll").Base {
		t.Error("clones share a base")
	}
}

func TestGuest64LoadedImageMatchesLayout(t *testing.T) {
	g := boot64(t, 1)[0]
	mod := g.Module("hal.dll")
	img, _ := pe.Parse(g.DiskImage("hal.dll"))
	want, err := img.LayoutAt(mod.Base)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, mod.SizeOfImage)
	if err := g.AddressSpace().Read(mod.Base, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("in-memory 64-bit module differs from relocated layout")
	}
}

// TestNormalizePair64Ldr64Offsets pins the LDR entries the loader writes in
// a 64-bit guest to the x64 layout: 8-byte pointers, DllBase at 0x30 and the
// BaseDllName buffer pointer at 0x60, decoded back by nt.X64.
func TestNormalizePair64Ldr64Offsets(t *testing.T) {
	g := boot64(t, 1)[0]
	mod := g.Module("hal.dll")
	b := make([]byte, nt.X64.LdrEntrySize)
	if err := g.AddressSpace().Read(mod.LdrEntryVA, b); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(b[0x30:]); got != mod.Base {
		t.Errorf("DllBase at 0x30 = %#x, want %#x", got, mod.Base)
	}
	e, err := nt.X64.DecodeLdrEntry(b)
	if err != nil {
		t.Fatal(err)
	}
	if e.BaseDllName.Buffer != binary.LittleEndian.Uint64(b[0x60:]) || e.SizeOfImage != mod.SizeOfImage {
		t.Errorf("decoded entry %+v", e)
	}
	name := make([]byte, e.BaseDllName.Length)
	if err := g.AddressSpace().Read(e.BaseDllName.Buffer, name); err != nil {
		t.Fatal(err)
	}
	if s, _ := nt.DecodeUTF16(name); s != "hal.dll" {
		t.Errorf("BaseDllName = %q", s)
	}
}

func TestGuest64ReplaceDiskCOW(t *testing.T) {
	disk, _ := BuildStandardDisk64()
	g1, err := New(Config{Name: "a", BootSeed: 1, Disk: disk})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := New(Config{Name: "b", BootSeed: 2, Disk: disk})
	if err != nil {
		t.Fatal(err)
	}
	patched := append([]byte(nil), g1.DiskImage("hal.dll")...)
	patched[len(patched)-1] ^= 0xFF
	if err := g1.ReplaceDiskImage("hal.dll", patched); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(g2.DiskImage("hal.dll"), patched) {
		t.Error("disk replacement leaked to sibling")
	}
	if err := g1.ReplaceDiskImage("ghost.sys", patched); err == nil {
		t.Error("replacing unknown file succeeded")
	}
}

// TestGuest64ForkAndReload covers the loader paths both widths share: a
// fork keeps four-level paging, and an unloaded module's frames are freed
// and it reloads at a fresh base.
func TestGuest64ForkAndReload(t *testing.T) {
	g := boot64(t, 1)[0]
	c := g.Fork("clone", 7)
	if c.AddressSpace().Levels() != 4 {
		t.Fatalf("fork has %d-level paging", c.AddressSpace().Levels())
	}
	old := c.Module("hal.dll")
	inUse := c.Phys().FramesInUse()
	if err := c.UnloadModule("hal.dll"); err != nil {
		t.Fatal(err)
	}
	if freed := inUse - c.Phys().FramesInUse(); freed != int(old.SizeOfImage/4096) {
		t.Errorf("unload freed %d frames, image has %d pages", freed, old.SizeOfImage/4096)
	}
	mod, err := c.LoadModule("hal.dll")
	if err != nil {
		t.Fatal(err)
	}
	if mod.Base == old.Base {
		t.Error("reload reused the old base")
	}
	if g.Module("hal.dll").Base != old.Base {
		t.Error("clone's reload moved the template's module")
	}
}

// TestGuestRejectsMixedWidths: a disk is all PE32 or all PE32+, and a
// running guest loads only images of its own width.
func TestGuestRejectsMixedWidths(t *testing.T) {
	disk64, err := BuildStandardDisk64()
	if err != nil {
		t.Fatal(err)
	}
	disk := smallDisk(t)
	disk["hal64.dll"] = disk64["hal.dll"]
	if _, err := New(Config{Name: "mixed", BootSeed: 1, MemBytes: 16 << 20, Disk: disk}); err == nil {
		t.Error("booted a disk mixing PE32 and PE32+")
	}
	g := newGuest(t, "vm1", 1)
	if err := g.ReplaceDiskImage("alpha.sys", disk64["hal.dll"]); err != nil {
		t.Fatal(err)
	}
	if err := g.UnloadModule("alpha.sys"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.LoadModule("alpha.sys"); err == nil {
		t.Error("32-bit guest loaded a PE32+ image")
	}
}
