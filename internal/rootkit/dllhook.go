package rootkit

import (
	"encoding/binary"
	"fmt"

	"modchecker/internal/codegen"
	"modchecker/internal/pe"
)

// BuildInjectDLL synthesizes the malicious helper DLL of the paper's E4
// experiment: a small kernel-mode DLL exporting the given functions (the
// paper's sample exports callMessageBox). Each export points at a real
// generated function in .text, so the image is structurally complete —
// import machinery in the hooked driver references exactly this artifact.
func BuildInjectDLL(dllName string, functions []string) ([]byte, error) {
	gen := codegen.New(int64(len(dllName)) * 7919)
	const textRVA = pe.DefaultSectionAlignment
	code, err := gen.Generate(codegen.GenerateParams{
		Size:     uint32(4096 + 256*len(functions)),
		CodeVA:   0x10000 + textRVA,
		DataVA:   0x10000 + 2*pe.DefaultSectionAlignment,
		DataSize: 1024,
		MinCave:  8,
		MaxCave:  16,
	})
	if err != nil {
		return nil, fmt.Errorf("rootkit: building %s code: %w", dllName, err)
	}
	if len(code.Functions) < len(functions) {
		return nil, fmt.Errorf("rootkit: %s: %d functions generated, need %d",
			dllName, len(code.Functions), len(functions))
	}
	data, err := gen.GenerateData(1024, 0x10000+2*pe.DefaultSectionAlignment, 8)
	if err != nil {
		return nil, err
	}
	b := pe.NewBuilder(0x10000)
	b.SetDLL()
	b.AddSection(".text", code.Code, pe.ScnCntCode|pe.ScnMemExecute|pe.ScnMemRead)
	b.AddSection(".data", data.Code, pe.ScnCntInitializedData|pe.ScnMemRead|pe.ScnMemWrite)
	var sites []uint32
	for _, off := range code.RelocOffsets {
		sites = append(sites, textRVA+off)
	}
	for _, off := range data.RelocOffsets {
		sites = append(sites, 2*pe.DefaultSectionAlignment+off)
	}
	b.SetRelocSites(sites)
	exp := pe.Export{DLLName: dllName}
	for i, fn := range functions {
		exp.Functions = append(exp.Functions, pe.ExportedFunction{
			Name: fn,
			RVA:  textRVA + code.Functions[i],
		})
	}
	b.SetExports(exp)
	img, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("rootkit: building %s: %w", dllName, err)
	}
	return img.Bytes()
}

// DLLHookReport describes a DLL-hooking infection.
type DLLHookReport struct {
	DLL        string
	Function   string
	ThunkRVA   uint32 // IAT slot the patched code calls through
	CallSite   uint32 // RVA of the injected CALL [thunk]
	OldImports []string
}

// rebuildFileAlignment is the coarser alignment PE rebuilding tools emit;
// re-aligning raw data moves every section's file pointers, which is why
// the paper's experiment V-B.4 sees *all* section-header hashes change.
const rebuildFileAlignment = 0x1000

// DLLHook performs experiment V-B.4: it attaches an extra import (the
// paper's inject.dll exporting callMessageBox) to a driver image and
// patches its code to call through the new IAT slot, mimicking the CFF
// Explorer workflow. The image is rebuilt the way such tools rebuild it —
// larger import directory, updated optional-header sizes, bumped link
// timestamp, coarser file alignment — so the loaded module mismatches in
// IMAGE_NT_HEADER, IMAGE_OPTIONAL_HEADER, every IMAGE_SECTION_HEADER and
// .text, exactly the paper's observed outcome.
func DLLHook(image []byte, dll, function string) ([]byte, *DLLHookReport, error) {
	img, err := pe.Parse(image)
	if err != nil {
		return nil, nil, fmt.Errorf("rootkit: dll hook: %w", err)
	}
	if img.AddrWidth() != 4 {
		return nil, nil, fmt.Errorf("rootkit: dll hook: %w: PE32+ image (the hook is a 32-bit CALL [abs32])", ErrNoTarget)
	}
	oldImports, err := img.ParseImports()
	if err != nil {
		return nil, nil, fmt.Errorf("rootkit: dll hook: reading imports: %w", err)
	}
	sites, err := img.RelocSites()
	if err != nil {
		return nil, nil, fmt.Errorf("rootkit: dll hook: reading relocs: %w", err)
	}
	newImports := append(append([]pe.Import(nil), oldImports...), pe.Import{
		DLL:       dll,
		Functions: []string{function},
	})

	// Pass 1: rebuild with the extra import and unpatched code, to learn
	// where the new function's IAT slot lands.
	probe, err := rebuild(img, newImports, sites, nil)
	if err != nil {
		return nil, nil, err
	}
	thunkRVA, ok := probe.ImportThunkRVA(dll, function)
	if !ok {
		return nil, nil, fmt.Errorf("rootkit: dll hook: thunk for %s!%s missing after rebuild", dll, function)
	}

	// Locate a 6-byte cave in .text for the CALL [thunk].
	text := img.Section(".text")
	if text == nil {
		return nil, nil, fmt.Errorf("%w: no .text section", ErrNoTarget)
	}
	mapped := text.Data
	if vs := text.Header.VirtualSize; vs != 0 && int(vs) < len(mapped) {
		mapped = mapped[:vs] // caves in file-padding tails never reach memory
	}
	caveOff, err := findCave(mapped, 6, 0, 0)
	if err != nil {
		return nil, nil, err
	}
	call := make([]byte, 6)
	call[0], call[1] = 0xFF, 0x15 // CALL dword ptr [abs32]
	binary.LittleEndian.PutUint32(call[2:], uint32(img.Optional.ImageBase)+thunkRVA)
	callSiteRVA := text.Header.VirtualAddress + caveOff

	// Pass 2: rebuild with the patched code and a relocation entry for the
	// call's absolute operand.
	patched := img.Clone()
	copy(patched.Section(".text").Data[caveOff:], call)
	finalSites := append(append([]uint32(nil), sites...), callSiteRVA+2)
	out, err := rebuild(patched, newImports, finalSites, nil)
	if err != nil {
		return nil, nil, err
	}
	raw, err := out.Bytes()
	if err != nil {
		return nil, nil, err
	}
	rep := &DLLHookReport{
		DLL:      dll,
		Function: function,
		ThunkRVA: thunkRVA,
		CallSite: callSiteRVA,
	}
	for _, imp := range oldImports {
		rep.OldImports = append(rep.OldImports, imp.DLL)
	}
	return raw, rep, nil
}

// rebuild re-emits an image with new imports and relocation sites through
// pe.Builder, preserving the original stub, entry point and section
// contents but re-aligning raw data the way PE editing tools do. extraSecs
// allows appending sections (unused by DLLHook but exercised in tests).
func rebuild(img *pe.Image, imports []pe.Import, relocSites []uint32, extraSecs []pe.Section) (*pe.Image, error) {
	b := pe.NewBuilder(uint32(img.Optional.ImageBase))
	b.SetDOSStubRaw(img.DOSStub)
	b.SetEntryPoint(img.Optional.AddressOfEntryPoint)
	b.SetFileAlignment(rebuildFileAlignment)
	// Tools stamp the rebuild time; any change to the link timestamp lands
	// in IMAGE_NT_HEADER (via IMAGE_FILE_HEADER).
	b.SetTimestamp(img.File.TimeDateStamp + 1)
	if img.File.Characteristics&pe.FileDLL != 0 {
		b.SetDLL()
	}
	for i := range img.Sections {
		s := &img.Sections[i]
		name := s.Header.NameString()
		if name == "INIT" || name == ".reloc" {
			continue // regenerated by the builder
		}
		b.AddSectionWithVirtualSize(name, s.Data, s.Header.VirtualSize, s.Header.Characteristics)
	}
	for i := range extraSecs {
		b.AddSectionWithVirtualSize(extraSecs[i].Header.NameString(), extraSecs[i].Data,
			extraSecs[i].Header.VirtualSize, extraSecs[i].Header.Characteristics)
	}
	b.SetImports(imports)
	b.SetRelocSites(relocSites)
	return b.Build()
}
