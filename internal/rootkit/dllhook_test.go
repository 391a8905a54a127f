package rootkit

import (
	"bytes"
	"errors"
	"testing"

	"modchecker/internal/guest"
	"modchecker/internal/pe"
)

func TestDLLHookAddsImport(t *testing.T) {
	orig := victimImage(t)
	infected, rep, err := DLLHook(orig, "inject.dll", "callMessageBox")
	if err != nil {
		t.Fatal(err)
	}
	img, err := pe.Parse(infected)
	if err != nil {
		t.Fatalf("infected image invalid: %v", err)
	}
	imports, err := img.ParseImports()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, imp := range imports {
		if imp.DLL == "inject.dll" {
			found = true
			if len(imp.Functions) != 1 || imp.Functions[0] != "callMessageBox" {
				t.Errorf("inject.dll functions = %v", imp.Functions)
			}
		}
	}
	if !found {
		t.Fatal("inject.dll not imported")
	}
	// Original imports preserved.
	oimg, _ := pe.Parse(orig)
	oimports, _ := oimg.ParseImports()
	if len(imports) != len(oimports)+1 {
		t.Errorf("%d imports, want %d", len(imports), len(oimports)+1)
	}
	if rep.ThunkRVA == 0 || rep.CallSite == 0 {
		t.Errorf("report = %+v", rep)
	}
}

func TestDLLHookPatchesCode(t *testing.T) {
	orig := victimImage(t)
	infected, rep, err := DLLHook(orig, "inject.dll", "callMessageBox")
	if err != nil {
		t.Fatal(err)
	}
	img, _ := pe.Parse(infected)
	text := img.Section(".text")
	off := rep.CallSite - text.Header.VirtualAddress
	if text.Data[off] != 0xFF || text.Data[off+1] != 0x15 {
		t.Fatalf("call site holds % x", text.Data[off:off+6])
	}
	operand := uint32(text.Data[off+2]) | uint32(text.Data[off+3])<<8 |
		uint32(text.Data[off+4])<<16 | uint32(text.Data[off+5])<<24
	if operand != uint32(img.Optional.ImageBase)+rep.ThunkRVA {
		t.Errorf("call operand %#x, want base+thunk %#x", operand, uint32(img.Optional.ImageBase)+rep.ThunkRVA)
	}
	// The operand must be covered by a relocation so the loader fixes it.
	sites, err := img.RelocSites()
	if err != nil {
		t.Fatal(err)
	}
	covered := false
	for _, s := range sites {
		if s == rep.CallSite+2 {
			covered = true
		}
	}
	if !covered {
		t.Error("injected call operand has no relocation entry")
	}
}

// TestDLLHookChangesPaperComponents verifies the paper's E4 signature at
// the file level: NT header, optional header and *every* section header
// change, while the DOS header+stub stays identical.
func TestDLLHookChangesPaperComponents(t *testing.T) {
	orig := victimImage(t)
	infected, _, err := DLLHook(orig, "inject.dll", "callMessageBox")
	if err != nil {
		t.Fatal(err)
	}
	oimg, _ := pe.Parse(orig)
	nimg, _ := pe.Parse(infected)

	if !bytes.Equal(oimg.DOSStub, nimg.DOSStub) {
		t.Error("DOS stub changed")
	}
	if oimg.File == nimg.File {
		t.Error("file header (IMAGE_NT_HEADER) unchanged")
	}
	if oimg.Optional == nimg.Optional {
		t.Error("optional header unchanged")
	}
	if len(nimg.Sections) != len(oimg.Sections) {
		t.Fatalf("section count changed: %d -> %d", len(oimg.Sections), len(nimg.Sections))
	}
	for i := range oimg.Sections {
		if oimg.Sections[i].Header == nimg.Sections[i].Header {
			t.Errorf("section header %q unchanged (paper requires all to change)",
				oimg.Sections[i].Header.NameString())
		}
		if oimg.Sections[i].Header.VirtualAddress != nimg.Sections[i].Header.VirtualAddress &&
			oimg.Sections[i].Header.NameString() != ".reloc" {
			t.Errorf("section %q moved virtually", oimg.Sections[i].Header.NameString())
		}
	}
}

// TestDLLHookLoadsAndRuns verifies the infected driver still loads into a
// guest and that its in-memory call operand resolves to the new thunk.
func TestDLLHookLoadsAndRuns(t *testing.T) {
	orig := victimImage(t)
	infected, rep, err := DLLHook(orig, "inject.dll", "callMessageBox")
	if err != nil {
		t.Fatal(err)
	}
	g, err := guest.New(guest.Config{Name: "vm", MemBytes: 16 << 20, BootSeed: 3,
		Disk: map[string][]byte{"victim.sys": infected}})
	if err != nil {
		t.Fatalf("infected driver failed to load: %v", err)
	}
	mod := g.Module("victim.sys")
	var b [6]byte
	if err := g.AddressSpace().Read(mod.Base+uint64(rep.CallSite), b[:]); err != nil {
		t.Fatal(err)
	}
	operand := uint32(b[2]) | uint32(b[3])<<8 | uint32(b[4])<<16 | uint32(b[5])<<24
	if uint64(operand) != mod.Base+uint64(rep.ThunkRVA) {
		t.Errorf("loaded call operand %#x, want relocated thunk %#x", operand, mod.Base+uint64(rep.ThunkRVA))
	}
}

func TestDLLHookPreservesEntryAndStub(t *testing.T) {
	orig := victimImage(t)
	infected, _, err := DLLHook(orig, "inject.dll", "callMessageBox")
	if err != nil {
		t.Fatal(err)
	}
	oimg, _ := pe.Parse(orig)
	nimg, _ := pe.Parse(infected)
	if oimg.Optional.AddressOfEntryPoint != nimg.Optional.AddressOfEntryPoint {
		t.Error("entry point moved")
	}
	if oimg.Optional.ImageBase != nimg.Optional.ImageBase {
		t.Error("image base changed")
	}
}

func TestDLLHookInvalidImage(t *testing.T) {
	if _, _, err := DLLHook([]byte("garbage"), "inject.dll", "fn"); err == nil {
		t.Error("garbage accepted")
	}
}

func TestPresets(t *testing.T) {
	ps := Presets()
	if len(ps) != 5 {
		t.Fatalf("%d presets", len(ps))
	}
	names := map[string]bool{}
	for _, p := range ps {
		names[p.Name] = true
		if p.Module == "" || p.Description == "" || p.Apply == nil {
			t.Errorf("preset %q incomplete", p.Name)
		}
	}
	for _, want := range []string{"tcpirphook", "win32.chatter", "rustock.b", "opcode-patch", "stub-patch"} {
		if !names[want] {
			t.Errorf("missing preset %q", want)
		}
	}
	if _, err := PresetByName("tcpirphook"); err != nil {
		t.Error(err)
	}
	if _, err := PresetByName("bogus"); err == nil {
		t.Error("bogus preset found")
	}
}

// TestPresetsApplyToStandardGuest applies every preset to a standard guest
// and verifies the targeted module's memory actually changed.
func TestPresetsApplyToStandardGuest(t *testing.T) {
	disk, err := guest.BuildStandardDisk()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range Presets() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			g, err := guest.New(guest.Config{Name: "vm", MemBytes: 64 << 20, BootSeed: 5, Disk: disk})
			if err != nil {
				t.Fatal(err)
			}
			before := moduleBytes(t, g, p.Module)
			if err := p.Apply(g); err != nil {
				t.Fatalf("apply: %v", err)
			}
			after := moduleBytes(t, g, p.Module)
			if bytes.Equal(before, after) {
				t.Error("preset left the module's memory unchanged")
			}
		})
	}
}

func moduleBytes(t testing.TB, g *guest.Guest, name string) []byte {
	t.Helper()
	mod := g.Module(name)
	if mod == nil {
		t.Fatalf("module %s not loaded", name)
	}
	buf := make([]byte, mod.SizeOfImage)
	if err := g.AddressSpace().Read(mod.Base, buf); err != nil {
		t.Fatal(err)
	}
	return buf
}

func TestBuildInjectDLL(t *testing.T) {
	raw, err := BuildInjectDLL("inject.dll", []string{"callMessageBox", "spyOnIRPs"})
	if err != nil {
		t.Fatal(err)
	}
	img, err := pe.Parse(raw)
	if err != nil {
		t.Fatalf("inject.dll does not parse: %v", err)
	}
	if img.File.Characteristics&pe.FileDLL == 0 {
		t.Error("inject.dll not marked as DLL")
	}
	exp, err := img.ParseExports()
	if err != nil {
		t.Fatal(err)
	}
	if exp.DLLName != "inject.dll" {
		t.Errorf("export name = %q", exp.DLLName)
	}
	rva, ok := img.ExportRVA("callMessageBox")
	if !ok {
		t.Fatal("callMessageBox not exported")
	}
	// The export must point at a real function: a decodable prologue.
	text := img.Section(".text")
	off := rva - text.Header.VirtualAddress
	if text.Data[off] != 0x55 {
		t.Errorf("export target starts with %#02x, want push ebp", text.Data[off])
	}
	// And the DLL itself must be relocatable.
	sites, err := img.RelocSites()
	if err != nil || len(sites) == 0 {
		t.Errorf("inject.dll has no relocations (%v)", err)
	}
}

func TestBuildInjectDLLDeterministic(t *testing.T) {
	a, _ := BuildInjectDLL("inject.dll", []string{"callMessageBox"})
	b, _ := BuildInjectDLL("inject.dll", []string{"callMessageBox"})
	if !bytes.Equal(a, b) {
		t.Error("inject.dll builds differ")
	}
}

// TestDLLHookRejectsPE32Plus: the hook is a 32-bit CALL [abs32] through a
// PE32 import thunk, so a PE32+ image is no target.
func TestDLLHookRejectsPE32Plus(t *testing.T) {
	raw, err := guest.BuildImage(guest.StandardCatalog64()[1])
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DLLHook(raw, "inject.dll", "callMessageBox"); !errors.Is(err, ErrNoTarget) {
		t.Errorf("DLLHook on a PE32+ image: %v, want ErrNoTarget", err)
	}
}
