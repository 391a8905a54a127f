// Package guest simulates a Windows guest VM at the fidelity ModChecker
// requires: real guest-physical memory with x86 page tables, a kernel
// module loader that maps PE images and applies base relocations, and an
// authentic PsLoadedModuleList — a doubly linked list of
// LDR_DATA_TABLE_ENTRY structures laid out byte-for-byte in guest memory
// (paper Figure 2) that introspection tools traverse from outside.
//
// One Guest serves both address widths. The width of its disk images picks
// the machine: PE32 images boot a 32-bit Windows XP guest (two-level page
// tables, the nt.X86 LDR layout, the paper's testbed), PE32+ images a
// 64-bit Windows 7 guest (four-level page tables, nt.X64) — the
// portability the paper claims. A disk may not mix the two.
//
// Guests are deterministic: two guests created from the same disk with the
// same boot seed are bit-identical, modeling VM clones instantiated from a
// single golden installation (paper Section V-A); different boot seeds give
// each VM its own module load addresses and physical frame layout, which is
// what forces the Integrity-Checker's RVA normalization.
package guest

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"modchecker/internal/mm"
	"modchecker/internal/nt"
	"modchecker/internal/pe"
)

// Well-known guest virtual addresses. These are properties of the OS
// build, so they are identical across cloned VMs — which is why a single
// VMI symbol profile works for the whole pool.
const (
	// PsLoadedModuleListVA is the 32-bit guest VA of the
	// PsLoadedModuleList global: the LIST_ENTRY heading the loaded-module
	// list.
	PsLoadedModuleListVA = 0x8055A420
	// PsLoadedModuleList64VA is the list head's VA in the 64-bit kernel.
	PsLoadedModuleList64VA = 0xFFFFF80001A45680
)

// layout is one address width's guest virtual layout and LDR codec.
type layout struct {
	ldr *nt.Layout
	// moduleList is the PsLoadedModuleList head; kernelGlobals is the page
	// of exported kernel globals that holds it.
	moduleList    uint64
	kernelGlobals uint64
	// [poolBase, poolEnd) is the simulated nonpaged pool, where loader
	// metadata (LDR entries, name buffers) is allocated.
	poolBase, poolEnd uint64
	// [driverBase, driverEnd) is where kernel modules are mapped; boot
	// starts a random number of pages below jitterPages into it.
	driverBase, driverEnd uint64
	jitterPages           int
}

var (
	// x86Layout is 32-bit XP: boot drivers around 0xF8xxxxxx, matching the
	// base addresses in the paper's Figure 4.
	x86Layout = &layout{
		ldr:        nt.X86,
		moduleList: PsLoadedModuleListVA, kernelGlobals: 0x8055A000,
		poolBase: 0x81000000, poolEnd: 0x85000000,
		driverBase: 0xF8000000, driverEnd: 0xFFC00000, jitterPages: 256,
	}
	// x64Layout is Windows 7 x64: drivers in the 0xFFFFF880'00000000
	// system region, pool in paged-pool space.
	x64Layout = &layout{
		ldr:        nt.X64,
		moduleList: PsLoadedModuleList64VA, kernelGlobals: 0xFFFFF80001A45000,
		poolBase: 0xFFFFF8A000000000, poolEnd: 0xFFFFF8A004000000,
		driverBase: 0xFFFFF88001000000, driverEnd: 0xFFFFF8800A000000, jitterPages: 512,
	}
)

// layoutOf returns the layout matching an address space's paging mode.
func layoutOf(as *mm.AddressSpace) *layout {
	if as.Levels() == 4 {
		return x64Layout
	}
	return x86Layout
}

// Config controls guest creation.
type Config struct {
	Name     string
	MemBytes uint64 // guest-physical memory size; default 64 MiB
	// BootSeed drives every nondeterministic boot decision: physical
	// frame allocation order, module base jitter, resource noise.
	// Distinct VMs get distinct seeds.
	BootSeed int64
	// Disk maps module file names to their on-disk PE images, all PE32 or
	// all PE32+; their width picks the guest's. Cloned VMs share one disk
	// (same underlying map is safe: it is never mutated by the guest;
	// infections that "patch the file on disk" operate on a copy).
	Disk map[string][]byte
}

// Guest is one simulated virtual machine.
type Guest struct {
	name string
	seed int64 // boot seed; drives the lazily created rng
	phys *mm.PhysMemory
	as   *mm.AddressSpace

	// loadObs, when set, is invoked with the new CPU demand after every
	// SetLoad (outside the resource lock). The hypervisor installs it
	// before the guest is shared to keep its contention accounting O(1).
	loadObs func(float64)

	res resourceState // independently synchronized

	mu   sync.Mutex
	rng  *rand.Rand // lazily created from seed; forks never pay for one
	pool *poolAllocator
	// nextModuleVA is the bump pointer for module load addresses.
	nextModuleVA uint64
	modules      map[string]*LoadedModule // lowercase name -> record
	disk         map[string][]byte        // swapped whole on mutation (copy-on-write)
}

// LoadedModule records where a module was mapped and where its loader
// bookkeeping lives. This is guest-side ground truth used by tests and the
// infection toolkit; ModChecker itself never sees it — it recovers the same
// facts by walking guest memory.
type LoadedModule struct {
	Name        string
	Base        uint64 // DllBase: guest VA of the first byte of the image
	SizeOfImage uint32
	EntryPoint  uint64
	LdrEntryVA  uint64 // guest VA of the LDR_DATA_TABLE_ENTRY
}

// New boots a guest: initializes physical memory, the kernel address space,
// the pool, the PsLoadedModuleList head, and loads every module on the disk
// in deterministic (sorted) order, as an OS with a fixed boot-start driver
// set would.
func New(cfg Config) (*Guest, error) {
	if cfg.MemBytes == 0 {
		cfg.MemBytes = 64 << 20
	}
	if cfg.Disk == nil {
		return nil, fmt.Errorf("guest %q: no disk", cfg.Name)
	}
	names := make([]string, 0, len(cfg.Disk))
	for name := range cfg.Disk {
		names = append(names, name)
	}
	sort.Strings(names)
	images := make([]*pe.Image, len(names))
	for i, name := range names {
		img, err := pe.Parse(cfg.Disk[name])
		if err != nil {
			return nil, fmt.Errorf("guest %q: parsing %s: %w", cfg.Name, name, err)
		}
		if i > 0 && img.AddrWidth() != images[0].AddrWidth() {
			return nil, fmt.Errorf("guest %q: disk mixes PE32 and PE32+ images (%s)", cfg.Name, name)
		}
		images[i] = img
	}

	phys := mm.NewPhysMemory(cfg.MemBytes, cfg.BootSeed)
	newAS := mm.NewAddressSpace
	if len(images) > 0 && images[0].AddrWidth() == 8 {
		newAS = mm.NewAddressSpace64
	}
	as, err := newAS(phys)
	if err != nil {
		return nil, fmt.Errorf("guest %q: %w", cfg.Name, err)
	}
	l := layoutOf(as)
	g := &Guest{
		name:    cfg.Name,
		seed:    cfg.BootSeed,
		phys:    phys,
		as:      as,
		disk:    cfg.Disk,
		modules: make(map[string]*LoadedModule),
	}
	g.pool = &poolAllocator{as: as, next: l.poolBase, mappedEnd: l.poolBase}
	g.res.init(cfg.BootSeed)

	// Map the kernel-globals page and initialize the empty module list
	// (head points at itself).
	if _, err := as.AllocAndMap(l.kernelGlobals, mm.PageSize, mm.PteWritable); err != nil {
		return nil, fmt.Errorf("guest %q: mapping kernel globals: %w", cfg.Name, err)
	}
	head := nt.ListEntry{Flink: l.moduleList, Blink: l.moduleList}
	if err := as.Write(l.moduleList, l.ldr.EncodeListEntry(head)); err != nil {
		return nil, err
	}

	// Boot-time module base: start of the driver area plus a per-VM
	// jitter, so clones load the same modules at different addresses
	// (real bases drift with boot-time pool state and device enumeration
	// order).
	g.nextModuleVA = l.driverBase + uint64(g.bootRNG().Intn(l.jitterPages))*mm.PageSize

	for i, name := range names {
		if _, err := g.load(name, images[i]); err != nil {
			return nil, fmt.Errorf("guest %q: boot-loading %s: %w", cfg.Name, name, err)
		}
	}
	return g, nil
}

// Name returns the VM name (e.g. "Dom3").
func (g *Guest) Name() string { return g.name }

// Phys exposes guest-physical memory; the hypervisor hands this (read-only)
// to the VMI layer.
func (g *Guest) Phys() *mm.PhysMemory { return g.phys }

// CR3 returns the kernel address space's top-level page-table physical
// address, as the hypervisor would report the vCPU's CR3 to an
// introspection client.
func (g *Guest) CR3() uint32 { return g.as.CR3() }

// AddressSpace exposes the kernel address space for guest-side code (the
// infection toolkit patching live memory, tests checking ground truth).
func (g *Guest) AddressSpace() *mm.AddressSpace { return g.as }

// Modules returns the guest-side records of loaded modules, sorted by name.
func (g *Guest) Modules() []*LoadedModule {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]*LoadedModule, 0, len(g.modules))
	for _, m := range g.modules {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Module returns the record for the named module (case-insensitive on the
// ASCII range, as Windows module names are), or nil.
func (g *Guest) Module(name string) *LoadedModule {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.modules[foldName(name)]
}

// DiskImage returns a copy of the on-disk image bytes for a module file,
// or nil. The copy matters: the underlying bytes may belong to the golden
// disk shared by every cloned VM, and handing out an alias would let one
// guest's mutation silently infect its siblings.
func (g *Guest) DiskImage(name string) []byte {
	g.mu.Lock()
	defer g.mu.Unlock()
	img, ok := g.disk[name]
	if !ok {
		return nil
	}
	return append([]byte(nil), img...)
}

// ReplaceDiskImage swaps the on-disk image for name. Used by infections
// that patch the file and rely on a reboot/reload to bring the modified
// code into memory (paper Section V-B.1). The guest's disk map is copied
// on first mutation so sibling clones sharing the golden disk are
// unaffected.
func (g *Guest) ReplaceDiskImage(name string, img []byte) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.disk[name]; !ok {
		return fmt.Errorf("guest %q: no file %s on disk", g.name, name)
	}
	// Copy-on-write: clones share the golden disk map.
	nd := make(map[string][]byte, len(g.disk))
	for k, v := range g.disk {
		nd[k] = v
	}
	nd[name] = img
	g.disk = nd
	return nil
}

// foldName lower-cases ASCII letters, mirroring the case-insensitive
// comparison Windows applies to module names.
func foldName(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}

// bootRNG returns the guest's seeded boot/loader RNG, creating it on first
// use. Laziness matters at fleet scale: a rand.Rand costs ~5 KiB, and a
// forked clone that never loads another module never needs one. Callers
// must hold g.mu (or be inside New, before the guest is shared).
func (g *Guest) bootRNG() *rand.Rand {
	if g.rng == nil {
		g.rng = rand.New(rand.NewSource(g.seed))
	}
	return g.rng
}

// allocModuleBase reserves a page-aligned load address for a module of the
// given image size, with a random inter-module gap.
func (g *Guest) allocModuleBase(size uint32) (uint64, error) {
	base := g.nextModuleVA
	if base+uint64(size) > layoutOf(g.as).driverEnd {
		return 0, fmt.Errorf("guest %q: driver area exhausted", g.name)
	}
	pages := uint64(size+mm.PageSize-1) / mm.PageSize
	gap := uint64(g.bootRNG().Intn(64)) * mm.PageSize
	g.nextModuleVA = base + pages*mm.PageSize + gap
	return base, nil
}
