package rootkit

import (
	"bytes"
	"crypto/md5"
	"errors"
	"testing"

	"modchecker/internal/codegen"
	"modchecker/internal/guest"
	"modchecker/internal/pe"
)

// victimImage builds a module image with the E1 marker and caves.
func victimImage(t testing.TB) []byte {
	t.Helper()
	img, err := guest.BuildImage(guest.ModuleSpec{
		Name: "victim.sys", TextSize: 16 << 10, DataSize: 4 << 10, RdataSize: 1 << 10,
		PreferredBase: 0x10000, Marker: true,
		Imports: []pe.Import{{DLL: "ntoskrnl.exe", Functions: []string{"ZwClose"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// sectionHashes hashes each component of an image's *in-memory* layout so
// tests can assert exactly which parts an infection touched.
func sectionHashes(t testing.TB, raw []byte) map[string][md5.Size]byte {
	t.Helper()
	img, err := pe.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][md5.Size]byte{}
	out["dos+stub"] = md5.Sum(append(encodeDOS(img), img.DOSStub...))
	for i := range img.Sections {
		h := img.Sections[i].Header
		out["hdr:"+h.NameString()] = md5.Sum(headerBytes(h))
		out["data:"+h.NameString()] = md5.Sum(img.Sections[i].Data)
	}
	return out
}

func encodeDOS(img *pe.Image) []byte {
	// Enough for identity comparison: reuse serialized image prefix.
	raw, _ := img.Bytes()
	return raw[:64]
}

func headerBytes(h pe.SectionHeader) []byte {
	b := make([]byte, 0, 40)
	b = append(b, h.Name[:]...)
	for _, v := range []uint32{h.VirtualSize, h.VirtualAddress, h.SizeOfRawData, h.PointerToRawData, h.Characteristics} {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return b
}

func diffKeys(a, b map[string][md5.Size]byte) []string {
	var out []string
	for k, va := range a {
		if vb, ok := b[k]; !ok || vb != va {
			out = append(out, k)
		}
	}
	return out
}

func TestOpcodeReplacePatchBytes(t *testing.T) {
	orig := victimImage(t)
	infected, patch, err := OpcodeReplace(orig)
	if err != nil {
		t.Fatal(err)
	}
	if patch.Section != ".text" {
		t.Errorf("patched %s", patch.Section)
	}
	if patch.Old[0] != 0x49 {
		t.Errorf("old bytes % x do not start with DEC ECX", patch.Old)
	}
	if !bytes.Equal(patch.New, []byte{0x83, 0xE9, 0x01}) {
		t.Errorf("new bytes % x", patch.New)
	}
	// Exactly 3 bytes of .text differ; sizes unchanged.
	if len(infected) != len(orig) {
		t.Fatal("image size changed")
	}
	diffs := 0
	for i := range orig {
		if orig[i] != infected[i] {
			diffs++
		}
	}
	if diffs == 0 || diffs > 3+4 { // 3 patch bytes + possibly checksum
		t.Errorf("%d bytes differ", diffs)
	}
}

func TestOpcodeReplaceOnlyTextChanges(t *testing.T) {
	orig := victimImage(t)
	infected, _, err := OpcodeReplace(orig)
	if err != nil {
		t.Fatal(err)
	}
	changed := diffKeys(sectionHashes(t, orig), sectionHashes(t, infected))
	if len(changed) != 1 || changed[0] != "data:.text" {
		t.Errorf("changed components = %v, want [data:.text]", changed)
	}
}

func TestOpcodeReplaceNewCodeDecodes(t *testing.T) {
	infected, _, err := OpcodeReplace(victimImage(t))
	if err != nil {
		t.Fatal(err)
	}
	img, _ := pe.Parse(infected)
	text := img.Section(".text").Data
	idx := bytes.Index(text, []byte{0xB9, 0x10, 0x00, 0x00, 0x00, 0x83, 0xE9, 0x01})
	if idx < 0 {
		t.Fatal("SUB ECX,1 not found after MOV ECX,16")
	}
	in, err := codegen.Decode(text, uint32(idx+5))
	if err != nil || in.Mnemonic != "sub ecx, imm8" {
		t.Errorf("patched instruction decodes as %q (%v)", in.Mnemonic, err)
	}
}

func TestOpcodeReplaceNoMarker(t *testing.T) {
	img, err := guest.BuildImage(guest.ModuleSpec{
		Name: "plain.sys", TextSize: 8 << 10, DataSize: 1 << 10, RdataSize: 1 << 10,
		PreferredBase: 0x10000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpcodeReplace(img); !errors.Is(err, ErrNoTarget) {
		t.Errorf("err = %v, want ErrNoTarget", err)
	}
}

func TestStubPatch(t *testing.T) {
	orig := victimImage(t)
	infected, patch, err := StubPatch(orig, "DOS", "CHK")
	if err != nil {
		t.Fatal(err)
	}
	if patch.Section != "DOS stub" {
		t.Errorf("section = %s", patch.Section)
	}
	img, _ := pe.Parse(infected)
	if !bytes.Contains(img.DOSStub, []byte("CHK mode")) {
		t.Error("stub does not read 'CHK mode'")
	}
	if bytes.Contains(img.DOSStub, []byte("DOS mode")) {
		t.Error("original text still present")
	}
	changed := diffKeys(sectionHashes(t, orig), sectionHashes(t, infected))
	if len(changed) != 1 || changed[0] != "dos+stub" {
		t.Errorf("changed = %v, want only the DOS header+stub", changed)
	}
}

func TestStubPatchValidation(t *testing.T) {
	orig := victimImage(t)
	if _, _, err := StubPatch(orig, "DOS", "LONGER"); err == nil {
		t.Error("unequal lengths accepted")
	}
	if _, _, err := StubPatch(orig, "ZZZ", "YYY"); !errors.Is(err, ErrNoTarget) {
		t.Errorf("missing needle: %v", err)
	}
}

func TestInlineHookImage(t *testing.T) {
	orig := victimImage(t)
	infected, rep, err := InlineHookImage(orig)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DisplacedLen < 5 {
		t.Errorf("displaced %d bytes", rep.DisplacedLen)
	}
	changed := diffKeys(sectionHashes(t, orig), sectionHashes(t, infected))
	if len(changed) != 1 || changed[0] != "data:.text" {
		t.Errorf("changed = %v, want [data:.text] only", changed)
	}
}

// TestInlineHookControlFlow decodes the infected image and verifies the
// full Figure 5 structure: victim starts with JMP to the cave; the cave
// holds the payload marker, the displaced original instructions, and a JMP
// back to victim+displaced.
func TestInlineHookControlFlow(t *testing.T) {
	orig := victimImage(t)
	infected, rep, err := InlineHookImage(orig)
	if err != nil {
		t.Fatal(err)
	}
	oimg, _ := pe.Parse(orig)
	img, _ := pe.Parse(infected)
	textRVA := img.Section(".text").Header.VirtualAddress
	code := img.Section(".text").Data
	ocode := oimg.Section(".text").Data
	victim := rep.VictimRVA - textRVA
	cave := rep.CaveRVA - textRVA

	// 1. Victim entry is a JMP rel32 to the cave.
	in, err := codegen.Decode(code, victim)
	if err != nil || in.Mnemonic != "jmp rel32" {
		t.Fatalf("victim starts with %q (%v)", in.Mnemonic, err)
	}
	rel := uint32(code[victim+1]) | uint32(code[victim+2])<<8 | uint32(code[victim+3])<<16 | uint32(code[victim+4])<<24
	if victim+5+rel != cave {
		t.Errorf("hook jmp targets %#x, cave at %#x", victim+5+rel, cave)
	}
	// 2. NOP padding for remaining displaced bytes.
	for i := victim + 5; i < victim+uint32(rep.DisplacedLen); i++ {
		if code[i] != 0x90 {
			t.Errorf("byte %#x = %#02x, want NOP", i, code[i])
		}
	}
	// 3. Cave: payload marker first.
	if !bytes.Equal(code[cave:cave+5], hookPayloadMarker) {
		t.Errorf("cave starts % x", code[cave:cave+5])
	}
	// 4. Sanitized original bytes follow.
	sanitized := code[cave+5 : cave+5+uint32(rep.DisplacedLen)]
	if !bytes.Equal(sanitized, ocode[victim:victim+uint32(rep.DisplacedLen)]) {
		t.Error("displaced bytes in cave differ from the original prologue")
	}
	// 5. JMP back to victim+displaced.
	back := cave + 5 + uint32(rep.DisplacedLen)
	in, err = codegen.Decode(code, back)
	if err != nil || in.Mnemonic != "jmp rel32" {
		t.Fatalf("cave tail is %q (%v)", in.Mnemonic, err)
	}
	rel = uint32(code[back+1]) | uint32(code[back+2])<<8 | uint32(code[back+3])<<16 | uint32(code[back+4])<<24
	if back+5+rel != victim+uint32(rep.DisplacedLen) {
		t.Errorf("return jmp targets %#x, want %#x", back+5+rel, victim+uint32(rep.DisplacedLen))
	}
}

func TestInlineHookLive(t *testing.T) {
	disk := map[string][]byte{"victim.sys": victimImage(t)}
	g, err := guest.New(guest.Config{Name: "vm", MemBytes: 16 << 20, BootSeed: 1, Disk: disk})
	if err != nil {
		t.Fatal(err)
	}
	mod := g.Module("victim.sys")
	before := make([]byte, mod.SizeOfImage)
	g.AddressSpace().Read(mod.Base, before)

	rep, err := InlineHookLive(g, "victim.sys")
	if err != nil {
		t.Fatal(err)
	}
	after := make([]byte, mod.SizeOfImage)
	g.AddressSpace().Read(mod.Base, after)
	if bytes.Equal(before, after) {
		t.Fatal("live hook changed nothing")
	}
	// The victim's first instruction in guest memory is now a JMP.
	var b [1]byte
	g.AddressSpace().Read(mod.Base+uint64(rep.VictimRVA), b[:])
	if b[0] != 0xE9 {
		t.Errorf("victim byte = %#02x, want E9 (jmp)", b[0])
	}
	// Headers untouched: only .text bytes changed.
	img, _ := pe.Parse(disk["victim.sys"])
	text := img.Section(".text").Header
	for i := range before {
		if before[i] != after[i] {
			rva := uint32(i)
			if rva < text.VirtualAddress || rva >= text.VirtualAddress+text.VirtualSize {
				t.Fatalf("live hook touched byte outside .text at RVA %#x", rva)
			}
		}
	}
}

func TestInlineHookLiveMissingModule(t *testing.T) {
	g, err := guest.New(guest.Config{Name: "vm", MemBytes: 16 << 20, BootSeed: 1,
		Disk: map[string][]byte{"victim.sys": victimImage(t)}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := InlineHookLive(g, "ghost.sys"); err == nil {
		t.Error("hooking missing module succeeded")
	}
}

func TestPatchLiveBytes(t *testing.T) {
	g, err := guest.New(guest.Config{Name: "vm", MemBytes: 16 << 20, BootSeed: 1,
		Disk: map[string][]byte{"victim.sys": victimImage(t)}})
	if err != nil {
		t.Fatal(err)
	}
	if err := PatchLiveBytes(g, "victim.sys", 0x1000, []byte{0xCC}); err != nil {
		t.Fatal(err)
	}
	mod := g.Module("victim.sys")
	var b [1]byte
	g.AddressSpace().Read(mod.Base+0x1000, b[:])
	if b[0] != 0xCC {
		t.Error("patch not applied")
	}
	if err := PatchLiveBytes(g, "victim.sys", mod.SizeOfImage-1, []byte{1, 2, 3}); err == nil {
		t.Error("out-of-image patch accepted")
	}
	if err := PatchLiveBytes(g, "ghost.sys", 0, []byte{1}); err == nil {
		t.Error("patching missing module accepted")
	}
}

func TestInfectDiskAndReload(t *testing.T) {
	disk := map[string][]byte{"victim.sys": victimImage(t)}
	g, err := guest.New(guest.Config{Name: "vm", MemBytes: 16 << 20, BootSeed: 1, Disk: disk})
	if err != nil {
		t.Fatal(err)
	}
	if err := InfectDiskAndReload(g, "victim.sys", func(img []byte) ([]byte, error) {
		out, _, err := OpcodeReplace(img)
		return out, err
	}); err != nil {
		t.Fatal(err)
	}
	// The loaded module now carries the patched opcode sequence.
	mod := g.Module("victim.sys")
	buf := make([]byte, mod.SizeOfImage)
	g.AddressSpace().Read(mod.Base, buf)
	if !bytes.Contains(buf, []byte{0xB9, 0x10, 0x00, 0x00, 0x00, 0x83, 0xE9, 0x01}) {
		t.Error("reloaded module lacks the infected sequence")
	}
}

func TestInfectDiskAndReloadMissing(t *testing.T) {
	g, err := guest.New(guest.Config{Name: "vm", MemBytes: 16 << 20, BootSeed: 1,
		Disk: map[string][]byte{"victim.sys": victimImage(t)}})
	if err != nil {
		t.Fatal(err)
	}
	if err := InfectDiskAndReload(g, "ghost.sys", func(b []byte) ([]byte, error) { return b, nil }); err == nil {
		t.Error("infecting missing file succeeded")
	}
}
