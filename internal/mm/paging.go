package mm

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Page table entry flag bits (x86, 32-bit non-PAE paging).
const (
	PtePresent  = 1 << 0
	PteWritable = 1 << 1
	PteUser     = 1 << 2
)

// entriesPerTable is the number of 4-byte entries in a page directory or
// page table (1024 each, covering 4 MiB and 4 KiB respectively).
const entriesPerTable = 1024

// AddressSpace is one virtual address space backed by real x86 page tables
// stored *inside* guest-physical memory: two-level 32-bit tables (page
// directory → page table, 4-byte entries) or four-level x86-64 tables
// (PML4 → PDPT → PD → PT, 8-byte entries). The paging mode is a property of
// the space, fixed at construction. The guest kernel owns and mutates it;
// VMI never touches it and instead re-walks the same physical structures
// itself via WalkPageTables or WalkPageTables64.
type AddressSpace struct {
	mem    *PhysMemory
	cr3    uint32 // physical address of the top-level table
	levels uint8  // 2 or 4; it sits in the struct's padding, so forks pay nothing for it
}

// NewAddressSpace allocates a page directory and returns an empty
// two-level (32-bit) address space.
func NewAddressSpace(mem *PhysMemory) (*AddressSpace, error) {
	return newAddressSpace(mem, 2)
}

// NewAddressSpace64 allocates a PML4 and returns an empty four-level
// (x86-64) address space.
func NewAddressSpace64(mem *PhysMemory) (*AddressSpace, error) {
	return newAddressSpace(mem, 4)
}

func newAddressSpace(mem *PhysMemory, levels uint8) (*AddressSpace, error) {
	pfn, err := mem.AllocFrame()
	if err != nil {
		return nil, fmt.Errorf("mm: allocating top-level page table: %w", err)
	}
	return &AddressSpace{mem: mem, cr3: pfn << PageShift, levels: levels}, nil
}

// Attach returns the same tables — same CR3, same paging mode — over mem,
// without allocating anything. Used by forks and snapshot restores, whose
// physical memory already holds a copy of the page tables.
func (as *AddressSpace) Attach(mem *PhysMemory) *AddressSpace {
	return &AddressSpace{mem: mem, cr3: as.cr3, levels: as.levels}
}

// CR3 returns the physical address of the top-level table, as the guest's
// CR3 register would hold it. The hypervisor exposes this to VMI.
func (as *AddressSpace) CR3() uint32 { return as.cr3 }

// Levels returns the paging depth: 2 for 32-bit x86, 4 for x86-64.
func (as *AddressSpace) Levels() int { return int(as.levels) }

// Phys returns the physical memory backing this address space.
func (as *AddressSpace) Phys() *PhysMemory { return as.mem }

func readEntry(mem PhysReader, pa uint32) (uint32, error) {
	var b [4]byte
	if err := mem.ReadPhys(pa, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

// entrySize is the byte width of one table entry in this paging mode.
func (as *AddressSpace) entrySize() uint32 {
	if as.levels == 4 {
		return 8
	}
	return 4
}

// index returns va's entry index in its level-th table (0 = PT).
func (as *AddressSpace) index(va uint64, level int) uint32 {
	if as.levels == 4 {
		return ptIndex64(va, uint(level))
	}
	return uint32(va>>(PageShift+10*level)) & (entriesPerTable - 1)
}

func (as *AddressSpace) readEntry(pa uint32) (uint64, error) {
	if as.levels == 4 {
		return readPTE64(as.mem, pa)
	}
	e, err := readEntry(as.mem, pa)
	return uint64(e), err
}

func (as *AddressSpace) writeEntry(pa uint32, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return as.mem.WritePhys(pa, b[:as.entrySize()])
}

// checkVA rejects addresses this paging mode cannot map: above 4 GiB for
// two-level tables, non-canonical for four-level ones.
func (as *AddressSpace) checkVA(va uint64) error {
	if as.levels == 4 && !canonical64(va) {
		return fmt.Errorf("%w: non-canonical va %#x", ErrUnmapped, va)
	}
	if as.levels != 4 && va > math.MaxUint32 {
		return fmt.Errorf("%w: va %#x beyond 32-bit paging", ErrUnmapped, va)
	}
	return nil
}

// leaf returns the physical address of va's page-table entry. Walking down
// from CR3, a missing intermediate table is allocated when alloc is set and
// is an ErrUnmapped error otherwise.
func (as *AddressSpace) leaf(va uint64, alloc bool) (uint32, error) {
	if err := as.checkVA(va); err != nil {
		return 0, err
	}
	table := as.cr3
	for level := int(as.levels) - 1; level > 0; level-- {
		pa := table + as.index(va, level)*as.entrySize()
		e, err := as.readEntry(pa)
		if err != nil {
			return 0, err
		}
		if e&PtePresent == 0 {
			if !alloc {
				return 0, fmt.Errorf("%w: va %#x (level-%d entry not present)", ErrUnmapped, va, level)
			}
			pfn, err := as.mem.AllocFrame()
			if err != nil {
				return 0, fmt.Errorf("mm: allocating level-%d page table: %w", level-1, err)
			}
			e = uint64(pfn)<<PageShift | PtePresent | PteWritable
			if err := as.writeEntry(pa, e); err != nil {
				return 0, err
			}
		}
		table = pteFrame64(e)
	}
	return table + as.index(va, 0)*as.entrySize(), nil
}

// Map installs a translation va -> pfn with the given flag bits, allocating
// intermediate page tables if needed. va must be page-aligned.
func (as *AddressSpace) Map(va uint64, pfn, flags uint32) error {
	if va&(PageSize-1) != 0 {
		return fmt.Errorf("mm: map of unaligned address %#x", va)
	}
	pte, err := as.leaf(va, true)
	if err != nil {
		return err
	}
	return as.writeEntry(pte, uint64(pfn)<<PageShift|uint64(flags)|PtePresent)
}

// Unmap removes the translation for the page containing va. The backing
// frame is not freed; callers own frame lifecycle.
func (as *AddressSpace) Unmap(va uint64) error {
	pte, err := as.leaf(va, false)
	if err != nil {
		return err
	}
	return as.writeEntry(pte, 0)
}

// AllocAndMap allocates frames for and maps the size-byte region starting
// at the page-aligned va. It returns the PFNs backing the region in order.
func (as *AddressSpace) AllocAndMap(va uint64, size, flags uint32) ([]uint32, error) {
	if va&(PageSize-1) != 0 {
		return nil, fmt.Errorf("mm: AllocAndMap of unaligned address %#x", va)
	}
	pages := (size + PageSize - 1) / PageSize
	pfns := make([]uint32, 0, pages)
	for i := uint32(0); i < pages; i++ {
		pfn, err := as.mem.AllocFrame()
		if err != nil {
			return nil, err
		}
		if err := as.Map(va+uint64(i)*PageSize, pfn, flags); err != nil {
			return nil, err
		}
		pfns = append(pfns, pfn)
	}
	return pfns, nil
}

// UnmapAndFree tears down the mapping for [va, va+size) and frees the
// backing frames. Used when a kernel module is unloaded.
func (as *AddressSpace) UnmapAndFree(va uint64, size uint32) error {
	pages := (size + PageSize - 1) / PageSize
	for i := uint32(0); i < pages; i++ {
		page := va + uint64(i)*PageSize
		pa, err := as.Translate(page)
		if err != nil {
			return err
		}
		if err := as.Unmap(page); err != nil {
			return err
		}
		if err := as.mem.FreeFrame(pa >> PageShift); err != nil {
			return err
		}
	}
	return nil
}

// Translate walks this address space's page tables for va, the same
// external walk the VMI layer performs.
func (as *AddressSpace) Translate(va uint64) (uint32, error) {
	if as.levels == 4 {
		return WalkPageTables64(as.mem, as.cr3, va)
	}
	if err := as.checkVA(va); err != nil {
		return 0, err
	}
	return WalkPageTables(as.mem, as.cr3, uint32(va))
}

// Read copies len(b) bytes from virtual address va, walking the page tables
// for each page touched.
func (as *AddressSpace) Read(va uint64, b []byte) error {
	return readPages(as.mem, va, b, as.Translate)
}

// Write copies b to virtual address va page by page.
func (as *AddressSpace) Write(va uint64, b []byte) error {
	for len(b) > 0 {
		pa, err := as.Translate(va)
		if err != nil {
			return err
		}
		n := PageSize - uint32(va&(PageSize-1))
		if int(n) > len(b) {
			n = uint32(len(b))
		}
		if err := as.mem.WritePhys(pa, b[:n]); err != nil {
			return err
		}
		b = b[n:]
		va += uint64(n)
	}
	return nil
}

// WalkPageTables translates va by reading the page directory and page table
// out of raw physical memory, the way libVMI translates guest virtual
// addresses from outside the guest. cr3 is the physical address of the page
// directory.
//
//modsafe:spends two-level page-table walk
func WalkPageTables(mem PhysReader, cr3, va uint32) (uint32, error) {
	pdIndex := va >> 22
	ptIndex := (va >> PageShift) & (entriesPerTable - 1)

	pde, err := readEntry(mem, cr3+pdIndex*4)
	if err != nil {
		return 0, err
	}
	if pde&PtePresent == 0 {
		return 0, fmt.Errorf("%w: va %#x (PDE %d not present)", ErrUnmapped, va, pdIndex)
	}
	pte, err := readEntry(mem, (pde&^(PageSize-1))+ptIndex*4)
	if err != nil {
		return 0, err
	}
	if pte&PtePresent == 0 {
		return 0, fmt.Errorf("%w: va %#x (PTE %d not present)", ErrUnmapped, va, ptIndex)
	}
	return (pte &^ (PageSize - 1)) | (va & (PageSize - 1)), nil
}

// x86-64 four-level paging: 8-byte entries, 512 per table (9 bits of VA
// per level), and 48-bit canonical virtual addresses (bits 47..63 sign
// extended). Physical addresses stay 32-bit, like the frames they name.
const (
	entriesPerTable64 = 512
	frameMask64       = 0x000FFFFFFFFFF000
)

// canonical64 reports whether va is a canonical 48-bit x86-64 address.
func canonical64(va uint64) bool {
	top := va >> 47
	return top == 0 || top == 0x1FFFF
}

// ptIndex64 extracts the 9-bit table index of va at level (3 = PML4 .. 0 =
// PT).
func ptIndex64(va uint64, level uint) uint32 {
	return uint32(va>>(PageShift+9*level)) & (entriesPerTable64 - 1)
}

// readPTE64 reads the 8-byte page-table entry at pa.
func readPTE64(mem PhysReader, pa uint32) (uint64, error) {
	var b [8]byte
	if err := mem.ReadPhys(pa, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// pteFrame64 returns the physical frame address an entry points at.
func pteFrame64(entry uint64) uint32 { return uint32(entry & frameMask64) }

// WalkPageTables64 translates a 64-bit guest VA by walking the PML4, PDPT,
// PD and PT out of raw physical memory: the four-level counterpart of
// WalkPageTables, performed from outside the guest the same way.
//
//modsafe:spends four-level page-table walk
func WalkPageTables64(mem PhysReader, cr3 uint32, va uint64) (uint32, error) {
	if !canonical64(va) {
		return 0, fmt.Errorf("%w: non-canonical va %#x", ErrUnmapped, va)
	}
	tablePA := cr3
	for level := uint(3); ; level-- {
		entry, err := readPTE64(mem, tablePA+ptIndex64(va, level)*8)
		if err != nil {
			return 0, err
		}
		if entry&PtePresent == 0 {
			return 0, fmt.Errorf("%w: va %#x (level %d entry not present)", ErrUnmapped, va, level)
		}
		if level == 0 {
			return pteFrame64(entry) | uint32(va&(PageSize-1)), nil
		}
		tablePA = pteFrame64(entry)
	}
}

// ReadVirtual reads len(b) bytes from va through an external two-level
// walk per page: introspection clients translate and read entirely through
// the PhysReader, never through guest-side state.
func ReadVirtual(mem PhysReader, cr3, va uint32, b []byte) error {
	return readPages(mem, uint64(va), b, func(va uint64) (uint32, error) {
		return WalkPageTables(mem, cr3, uint32(va))
	})
}

// readPages copies len(b) bytes from va page by page, translating each page
// with walk.
func readPages(mem PhysReader, va uint64, b []byte, walk func(uint64) (uint32, error)) error {
	for len(b) > 0 {
		pa, err := walk(va)
		if err != nil {
			return err
		}
		n := PageSize - uint32(va&(PageSize-1))
		if int(n) > len(b) {
			n = uint32(len(b))
		}
		if err := mem.ReadPhys(pa, b[:n]); err != nil {
			return err
		}
		b = b[n:]
		va += uint64(n)
	}
	return nil
}
