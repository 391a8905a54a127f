package guest

import (
	"fmt"
	"hash/fnv"

	"modchecker/internal/codegen"
	"modchecker/internal/pe"
)

// ModuleSpec describes one synthetic kernel module. The standard catalog
// mirrors the Windows XP SP2 modules the paper exercises (hal.dll,
// http.sys, the "Hello World" dummy.sys, and a supporting cast), each built
// deterministically from its name so every cloned VM's disk carries
// byte-identical files.
type ModuleSpec struct {
	Name          string
	TextSize      uint32 // raw .text bytes
	DataSize      uint32 // raw .data bytes
	RdataSize     uint32 // raw .rdata bytes (PE32 only)
	PreferredBase uint64 // ImageBase the linker chose
	Imports       []pe.Import
	Marker        bool // plant the paper's DEC ECX marker (E1 target)
	DLL           bool
	// X64 builds a PE32+ image of x86-64 code (.text and .data only, no
	// imports) for a 64-bit guest.
	X64 bool
}

// kernelImports are the functions a typical driver binds from the kernel.
var kernelImports = []pe.Import{
	{DLL: "ntoskrnl.exe", Functions: []string{
		"IoCreateDevice", "IoDeleteDevice", "ExAllocatePoolWithTag",
		"ExFreePoolWithTag", "KeInitializeSpinLock", "ObReferenceObjectByHandle",
		"RtlInitUnicodeString", "ZwClose",
	}},
	{DLL: "hal.dll", Functions: []string{
		"KfAcquireSpinLock", "KfReleaseSpinLock", "READ_PORT_UCHAR", "WRITE_PORT_UCHAR",
	}},
}

// StandardCatalog returns the module set installed on the golden image.
// Sizes approximate the real XP binaries scaled down for test speed while
// remaining large enough to span many pages (the property that makes
// Module-Searcher's page-wise copying dominate runtime, Figure 7).
func StandardCatalog() []ModuleSpec {
	halImports := []pe.Import{{DLL: "ntoskrnl.exe", Functions: []string{
		"KeBugCheckEx", "ExAllocatePoolWithTag", "KeQueryPerformanceCounter",
	}}}
	return []ModuleSpec{
		{Name: "ntoskrnl.exe", TextSize: 320 << 10, DataSize: 64 << 10, RdataSize: 32 << 10, PreferredBase: 0x00400000, Imports: halImports},
		{Name: "hal.dll", TextSize: 96 << 10, DataSize: 16 << 10, RdataSize: 8 << 10, PreferredBase: 0x00010000, Imports: halImports, Marker: true, DLL: true},
		{Name: "http.sys", TextSize: 160 << 10, DataSize: 32 << 10, RdataSize: 16 << 10, PreferredBase: 0x00010000, Imports: kernelImports},
		{Name: "tcpip.sys", TextSize: 192 << 10, DataSize: 48 << 10, RdataSize: 16 << 10, PreferredBase: 0x00010000, Imports: kernelImports},
		{Name: "ntfs.sys", TextSize: 256 << 10, DataSize: 64 << 10, RdataSize: 24 << 10, PreferredBase: 0x00010000, Imports: kernelImports},
		{Name: "ndis.sys", TextSize: 128 << 10, DataSize: 32 << 10, RdataSize: 8 << 10, PreferredBase: 0x00010000, Imports: kernelImports},
		{Name: "dummy.sys", TextSize: 4 << 10, DataSize: 1 << 10, RdataSize: 1 << 10, PreferredBase: 0x00010000, Imports: kernelImports, Marker: true},
	}
}

// StandardCatalog64 mirrors a small Windows-x64 driver set, for 64-bit
// guests.
func StandardCatalog64() []ModuleSpec {
	return []ModuleSpec{
		{Name: "ntoskrnl.exe", TextSize: 256 << 10, DataSize: 64 << 10, PreferredBase: 0x140000000, X64: true},
		{Name: "hal.dll", TextSize: 64 << 10, DataSize: 16 << 10, PreferredBase: 0x180010000, X64: true},
		{Name: "http.sys", TextSize: 128 << 10, DataSize: 32 << 10, PreferredBase: 0x180010000, X64: true},
		{Name: "tcpip.sys", TextSize: 160 << 10, DataSize: 48 << 10, PreferredBase: 0x180010000, X64: true},
	}
}

// BuildImage synthesizes the on-disk PE image for spec. The build is a pure
// function of the spec (seeded by the module name), so repeated builds are
// byte-identical — the property that lets cloned VMs share one golden disk.
func BuildImage(spec ModuleSpec) ([]byte, error) {
	const textRVA = pe.DefaultSectionAlignment
	dataRVA := textRVA + alignUp(spec.TextSize, pe.DefaultSectionAlignment)
	if spec.X64 {
		return buildImage64(spec, textRVA, dataRVA)
	}
	h := fnv.New64a()
	h.Write([]byte(spec.Name))
	gen := codegen.New(int64(h.Sum64()))

	base := uint32(spec.PreferredBase)
	rdataRVA := dataRVA + alignUp(spec.DataSize, pe.DefaultSectionAlignment)

	code, err := gen.Generate(codegen.GenerateParams{
		Size:     spec.TextSize,
		CodeVA:   base + textRVA,
		DataVA:   base + dataRVA,
		DataSize: spec.DataSize,
		MinCave:  8,
		MaxCave:  24,
		MarkerAt: spec.Marker,
	})
	if err != nil {
		return nil, fmt.Errorf("guest: building %s code: %w", spec.Name, err)
	}
	data, err := gen.GenerateData(spec.DataSize, base+dataRVA, int(spec.DataSize/128))
	if err != nil {
		return nil, fmt.Errorf("guest: building %s data: %w", spec.Name, err)
	}
	rdata, err := gen.GenerateData(spec.RdataSize, base+rdataRVA, int(spec.RdataSize/256))
	if err != nil {
		return nil, fmt.Errorf("guest: building %s rdata: %w", spec.Name, err)
	}

	var sites []uint32
	for _, off := range code.RelocOffsets {
		sites = append(sites, textRVA+off)
	}
	for _, off := range data.RelocOffsets {
		sites = append(sites, dataRVA+off)
	}
	for _, off := range rdata.RelocOffsets {
		sites = append(sites, rdataRVA+off)
	}

	b := pe.NewBuilder(base)
	if spec.DLL {
		b.SetDLL()
	}
	b.AddSection(".text", code.Code, pe.ScnCntCode|pe.ScnMemExecute|pe.ScnMemRead|pe.ScnMemNotPaged)
	b.AddSection(".data", data.Code, pe.ScnCntInitializedData|pe.ScnMemRead|pe.ScnMemWrite|pe.ScnMemNotPaged)
	b.AddSection(".rdata", rdata.Code, pe.ScnCntInitializedData|pe.ScnMemRead)
	b.SetImports(spec.Imports)
	b.SetRelocSites(sites)
	b.SetEntryPoint(textRVA + code.Functions[0])
	img, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("guest: building %s: %w", spec.Name, err)
	}
	return img.Bytes()
}

// buildImage64 is BuildImage for a PE32+ spec: x86-64 code with DIR64
// sites in .text and pointer slots at the head of .data.
func buildImage64(spec ModuleSpec, textRVA, dataRVA uint32) ([]byte, error) {
	h := fnv.New64a()
	h.Write([]byte("amd64:" + spec.Name))
	seed := int64(h.Sum64())
	code := codegen.Generate64(seed, spec.TextSize, spec.PreferredBase, dataRVA, spec.DataSize)
	data := codegen.GenerateData64(seed, spec.DataSize, spec.PreferredBase, dataRVA, int(spec.DataSize/256))

	var sites []uint32
	for _, off := range code.RelocOffsets {
		sites = append(sites, textRVA+off)
	}
	for _, off := range data.RelocOffsets {
		sites = append(sites, dataRVA+off)
	}
	b := pe.NewBuilder64(spec.PreferredBase)
	b.AddSection(".text", code.Code, pe.ScnCntCode|pe.ScnMemExecute|pe.ScnMemRead)
	b.AddSection(".data", data.Code, pe.ScnCntInitializedData|pe.ScnMemRead|pe.ScnMemWrite)
	b.SetRelocSites(sites)
	b.SetEntryPoint(textRVA + code.Functions[0])
	img, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("guest: building %s: %w", spec.Name, err)
	}
	return img.Bytes()
}

// BuildStandardDisk builds the golden disk: every module in the standard
// catalog, keyed by file name.
func BuildStandardDisk() (map[string][]byte, error) {
	return buildDisk(StandardCatalog())
}

// BuildStandardDisk64 builds the golden 64-bit disk from StandardCatalog64.
func BuildStandardDisk64() (map[string][]byte, error) {
	return buildDisk(StandardCatalog64())
}

func buildDisk(specs []ModuleSpec) (map[string][]byte, error) {
	disk := make(map[string][]byte)
	for _, spec := range specs {
		img, err := BuildImage(spec)
		if err != nil {
			return nil, err
		}
		disk[spec.Name] = img
	}
	return disk, nil
}

func alignUp(v, a uint32) uint32 { return (v + a - 1) / a * a }
