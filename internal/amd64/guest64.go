package amd64

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"modchecker/internal/mm"
	"modchecker/internal/nt"
	"modchecker/internal/pe"
)

// 64-bit guest virtual layout (Windows-7-x64-like). Constants are OS-build
// properties shared by all clones, so one VMI profile serves the pool.
const (
	// PsLoadedModuleList64VA is the guest VA of the loaded-module list
	// head in the 64-bit kernel.
	PsLoadedModuleList64VA = 0xFFFFF80001A45680

	kernelGlobals64VA = 0xFFFFF80001A45000
	pool64VA          = 0xFFFFF8A000000000
	driverArea64VA    = 0xFFFFF88001000000
	driverArea64End   = 0xFFFFF8800A000000
)

// Module64 is the guest-side record of one loaded 64-bit module.
type Module64 struct {
	Name        string
	Base        uint64
	SizeOfImage uint32
	LdrEntryVA  uint64
}

// Guest64 is a simulated 64-bit Windows guest: physical memory, 4-level
// page tables, and a 64-bit PsLoadedModuleList maintained by its module
// loader.
type Guest64 struct {
	name string
	phys *mm.PhysMemory
	as   *AddressSpace64
	disk map[string][]byte
	rng  *rand.Rand

	nextModuleVA uint64
	poolNext     uint64
	poolMapped   uint64
	modules      map[string]*Module64
}

// Config64 configures a 64-bit guest.
type Config64 struct {
	Name     string
	MemBytes uint64
	BootSeed int64
	Disk     map[string][]byte // PE32+ images
}

// NewGuest64 boots a 64-bit guest and loads every disk module.
func NewGuest64(cfg Config64) (*Guest64, error) {
	if cfg.MemBytes == 0 {
		cfg.MemBytes = 64 << 20
	}
	if cfg.Disk == nil {
		return nil, fmt.Errorf("amd64: guest %q has no disk", cfg.Name)
	}
	phys := mm.NewPhysMemory(cfg.MemBytes, cfg.BootSeed)
	as, err := NewAddressSpace64(phys)
	if err != nil {
		return nil, err
	}
	g := &Guest64{
		name:       cfg.Name,
		phys:       phys,
		as:         as,
		disk:       cfg.Disk,
		rng:        rand.New(rand.NewSource(cfg.BootSeed)),
		poolNext:   pool64VA,
		poolMapped: pool64VA,
		modules:    make(map[string]*Module64),
	}
	if err := as.AllocAndMap(kernelGlobals64VA, mm.PageSize, true); err != nil {
		return nil, err
	}
	head := nt.ListEntry{Flink: PsLoadedModuleList64VA, Blink: PsLoadedModuleList64VA}
	if err := as.Write(PsLoadedModuleList64VA, nt.X64.EncodeListEntry(head)); err != nil {
		return nil, err
	}
	g.nextModuleVA = driverArea64VA + uint64(g.rng.Intn(512))*mm.PageSize

	names := make([]string, 0, len(cfg.Disk))
	for n := range cfg.Disk {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := g.LoadModule(n); err != nil {
			return nil, fmt.Errorf("amd64: boot-loading %s: %w", n, err)
		}
	}
	return g, nil
}

// Name returns the VM name.
func (g *Guest64) Name() string { return g.name }

// Phys exposes guest-physical memory for introspection.
func (g *Guest64) Phys() *mm.PhysMemory { return g.phys }

// CR3 returns the PML4 physical address.
func (g *Guest64) CR3() uint32 { return g.as.CR3() }

// AddressSpace exposes the kernel address space (guest-side code only).
func (g *Guest64) AddressSpace() *AddressSpace64 { return g.as }

// Module returns the named module's record, or nil.
func (g *Guest64) Module(name string) *Module64 { return g.modules[name] }

// Modules lists loaded modules sorted by name.
func (g *Guest64) Modules() []*Module64 {
	out := make([]*Module64, 0, len(g.modules))
	for _, m := range g.modules {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// DiskImage returns a copy of a disk file's bytes, or nil. Copying keeps
// callers from mutating the golden disk shared by cloned guests.
func (g *Guest64) DiskImage(name string) []byte {
	img, ok := g.disk[name]
	if !ok {
		return nil
	}
	return append([]byte(nil), img...)
}

// ReplaceDiskImage swaps a disk file (copy-on-write over the shared golden
// disk).
func (g *Guest64) ReplaceDiskImage(name string, img []byte) error {
	if _, ok := g.disk[name]; !ok {
		return fmt.Errorf("amd64: no file %s", name)
	}
	nd := make(map[string][]byte, len(g.disk))
	for k, v := range g.disk {
		nd[k] = v
	}
	nd[name] = img
	g.disk = nd
	return nil
}

// poolAlloc reserves pool bytes, mapping pages on demand.
func (g *Guest64) poolAlloc(size uint32, alignTo uint64) (uint64, error) {
	va := (g.poolNext + alignTo - 1) &^ (alignTo - 1)
	end := va + uint64(size)
	for g.poolMapped < end {
		if err := g.as.AllocAndMap(g.poolMapped, mm.PageSize, true); err != nil {
			return 0, err
		}
		g.poolMapped += mm.PageSize
	}
	g.poolNext = end
	return va, nil
}

// LoadModule maps a PE32+ image, applies DIR64 relocations for the chosen
// base, and links an x64 LDR entry into PsLoadedModuleList.
func (g *Guest64) LoadModule(name string) (*Module64, error) {
	if _, dup := g.modules[name]; dup {
		return nil, fmt.Errorf("amd64: %s already loaded", name)
	}
	raw, ok := g.disk[name]
	if !ok {
		return nil, fmt.Errorf("amd64: no file %s", name)
	}
	img, err := Parse64(raw)
	if err != nil {
		return nil, err
	}
	base := g.nextModuleVA
	pages := uint64(img.Optional.SizeOfImage+mm.PageSize-1) / mm.PageSize
	g.nextModuleVA = base + pages*mm.PageSize + uint64(g.rng.Intn(64))*mm.PageSize
	if g.nextModuleVA > driverArea64End {
		return nil, fmt.Errorf("amd64: driver area exhausted")
	}
	mem, err := img.LayoutAt(base)
	if err != nil {
		return nil, err
	}
	if err := g.as.AllocAndMap(base, img.Optional.SizeOfImage, true); err != nil {
		return nil, err
	}
	if err := g.as.Write(base, mem); err != nil {
		return nil, err
	}

	mod := &Module64{Name: name, Base: base, SizeOfImage: img.Optional.SizeOfImage}
	nameBuf := nt.EncodeUTF16(name)
	fullBuf := nt.EncodeUTF16(`\SystemRoot\system32\drivers\` + name)
	nameVA, err := g.poolAlloc(uint32(len(nameBuf)), 2)
	if err != nil {
		return nil, err
	}
	if err := g.as.Write(nameVA, nameBuf); err != nil {
		return nil, err
	}
	fullVA, err := g.poolAlloc(uint32(len(fullBuf)), 2)
	if err != nil {
		return nil, err
	}
	if err := g.as.Write(fullVA, fullBuf); err != nil {
		return nil, err
	}
	entryVA, err := g.poolAlloc(nt.X64.LdrEntrySize, 16)
	if err != nil {
		return nil, err
	}

	// InsertTailList through guest memory.
	head, err := g.readListEntry(PsLoadedModuleList64VA)
	if err != nil {
		return nil, err
	}
	entry := nt.LdrDataTableEntry{
		InLoadOrderLinks: nt.ListEntry{Flink: PsLoadedModuleList64VA, Blink: head.Blink},
		DllBase:          base,
		EntryPoint:       base + uint64(img.Optional.AddressOfEntryPoint),
		SizeOfImage:      img.Optional.SizeOfImage,
		FullDllName:      nt.UnicodeString{Length: uint16(len(fullBuf)), MaximumLength: uint16(len(fullBuf)), Buffer: fullVA},
		BaseDllName:      nt.UnicodeString{Length: uint16(len(nameBuf)), MaximumLength: uint16(len(nameBuf)), Buffer: nameVA},
		Flags:            0x09004000,
	}
	if err := g.as.Write(entryVA, nt.X64.EncodeLdrEntry(&entry)); err != nil {
		return nil, err
	}
	if err := g.writePtr(head.Blink, entryVA); err != nil { // tail.Flink = entry
		return nil, err
	}
	if err := g.writePtr(PsLoadedModuleList64VA+8, entryVA); err != nil { // head.Blink = entry
		return nil, err
	}
	mod.LdrEntryVA = entryVA
	g.modules[name] = mod
	return mod, nil
}

// readListEntry reads a LIST_ENTRY through the guest's own tables.
func (g *Guest64) readListEntry(va uint64) (nt.ListEntry, error) {
	b := make([]byte, nt.X64.ListEntrySize())
	if err := g.Read(va, b); err != nil {
		return nt.ListEntry{}, err
	}
	return nt.X64.DecodeListEntry(b)
}

// writePtr stores one 8-byte pointer through the guest's own tables.
func (g *Guest64) writePtr(va, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return g.as.Write(va, b[:])
}

// Read copies guest virtual memory: guest-side code (and tests) reading
// the kernel address space.
func (g *Guest64) Read(va uint64, b []byte) error {
	return mm.ReadVirtual64(g.phys, g.as.CR3(), va, b)
}

// UnloadModule unlinks and unmaps a module (no frame reclamation; 64-bit
// guests in these experiments never re-load).
func (g *Guest64) UnloadModule(name string) error {
	mod, ok := g.modules[name]
	if !ok {
		return fmt.Errorf("amd64: %s not loaded", name)
	}
	links, err := g.readListEntry(mod.LdrEntryVA)
	if err != nil {
		return err
	}
	if err := g.writePtr(links.Blink, links.Flink); err != nil { // blink.Flink = flink
		return err
	}
	if err := g.writePtr(links.Flink+8, links.Blink); err != nil { // flink.Blink = blink
		return err
	}
	delete(g.modules, name)
	return nil
}

// ModuleSpec64 describes one synthetic 64-bit kernel module.
type ModuleSpec64 struct {
	Name          string
	TextSize      uint32
	DataSize      uint32
	PreferredBase uint64
}

// StandardCatalog64 mirrors a small Windows-x64 driver set.
func StandardCatalog64() []ModuleSpec64 {
	return []ModuleSpec64{
		{Name: "ntoskrnl.exe", TextSize: 256 << 10, DataSize: 64 << 10, PreferredBase: 0x140000000},
		{Name: "hal.dll", TextSize: 64 << 10, DataSize: 16 << 10, PreferredBase: 0x180010000},
		{Name: "http.sys", TextSize: 128 << 10, DataSize: 32 << 10, PreferredBase: 0x180010000},
		{Name: "tcpip.sys", TextSize: 160 << 10, DataSize: 48 << 10, PreferredBase: 0x180010000},
	}
}

// BuildImage64 synthesizes a PE32+ module deterministically from its spec.
func BuildImage64(spec ModuleSpec64) ([]byte, error) {
	h := fnv.New64a()
	h.Write([]byte("amd64:" + spec.Name))
	seed := int64(h.Sum64())

	const textRVA = pe.DefaultSectionAlignment
	dataRVA := textRVA + align(spec.TextSize, pe.DefaultSectionAlignment)
	code := Generate64(seed, spec.TextSize, spec.PreferredBase, dataRVA, spec.DataSize)
	data := GenerateData64(seed, spec.DataSize, spec.PreferredBase, dataRVA, int(spec.DataSize/256))

	var sites []uint32
	for _, off := range code.RelocOffsets {
		sites = append(sites, textRVA+off)
	}
	for _, off := range data.RelocOffsets {
		sites = append(sites, dataRVA+off)
	}
	b := NewBuilder64(spec.PreferredBase)
	b.AddSection(".text", code.Code, pe.ScnCntCode|pe.ScnMemExecute|pe.ScnMemRead)
	b.AddSection(".data", data.Code, pe.ScnCntInitializedData|pe.ScnMemRead|pe.ScnMemWrite)
	b.SetRelocSites(sites)
	b.SetEntryPoint(textRVA + code.Functions[0])
	img, err := b.Build()
	if err != nil {
		return nil, err
	}
	return img.Bytes()
}

// BuildStandardDisk64 builds the golden 64-bit disk.
func BuildStandardDisk64() (map[string][]byte, error) {
	disk := make(map[string][]byte)
	for _, spec := range StandardCatalog64() {
		img, err := BuildImage64(spec)
		if err != nil {
			return nil, err
		}
		disk[spec.Name] = img
	}
	return disk, nil
}
