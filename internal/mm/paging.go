package mm

import (
	"encoding/binary"
	"fmt"
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

// AddressSpace is one virtual address space backed by real two-level x86
// page tables stored *inside* guest-physical memory. The guest kernel owns
// and mutates it; VMI never touches it and instead re-walks the same
// physical structures itself via WalkPageTables.
type AddressSpace struct {
	mem *PhysMemory
	cr3 uint32 // physical address of the page directory
}

// NewAddressSpace allocates a page directory and returns the empty address
// space.
func NewAddressSpace(mem *PhysMemory) (*AddressSpace, error) {
	pfn, err := mem.AllocFrame()
	if err != nil {
		return nil, fmt.Errorf("mm: allocating page directory: %w", err)
	}
	return &AddressSpace{mem: mem, cr3: pfn << PageShift}, nil
}

// CR3 returns the physical address of the page directory, as the guest's
// CR3 register would hold it. The hypervisor exposes this to VMI.
func (as *AddressSpace) CR3() uint32 { return as.cr3 }

// Phys returns the physical memory backing this address space.
func (as *AddressSpace) Phys() *PhysMemory { return as.mem }

func readEntry(mem PhysReader, pa uint32) (uint32, error) {
	var b [4]byte
	if err := mem.ReadPhys(pa, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func (as *AddressSpace) writeEntry(pa, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return as.mem.WritePhys(pa, b[:])
}

// Map installs a translation va -> pfn with the given flag bits, allocating
// the intermediate page table if needed. va must be page-aligned.
func (as *AddressSpace) Map(va, pfn, flags uint32) error {
	if va&(PageSize-1) != 0 {
		return fmt.Errorf("mm: map of unaligned address %#x", va)
	}
	pdIndex := va >> 22
	ptIndex := (va >> PageShift) & (entriesPerTable - 1)

	pdeAddr := as.cr3 + pdIndex*4
	pde, err := readEntry(as.mem, pdeAddr)
	if err != nil {
		return err
	}
	if pde&PtePresent == 0 {
		ptPFN, err := as.mem.AllocFrame()
		if err != nil {
			return fmt.Errorf("mm: allocating page table: %w", err)
		}
		pde = ptPFN<<PageShift | PtePresent | PteWritable
		if err := as.writeEntry(pdeAddr, pde); err != nil {
			return err
		}
	}
	pteAddr := (pde &^ (PageSize - 1)) + ptIndex*4
	return as.writeEntry(pteAddr, pfn<<PageShift|flags|PtePresent)
}

// Unmap removes the translation for the page containing va. The backing
// frame is not freed; callers own frame lifecycle.
func (as *AddressSpace) Unmap(va uint32) error {
	pdIndex := va >> 22
	ptIndex := (va >> PageShift) & (entriesPerTable - 1)
	pde, err := readEntry(as.mem, as.cr3+pdIndex*4)
	if err != nil {
		return err
	}
	if pde&PtePresent == 0 {
		return fmt.Errorf("%w: unmap %#x", ErrUnmapped, va)
	}
	pteAddr := (pde &^ (PageSize - 1)) + ptIndex*4
	return as.writeEntry(pteAddr, 0)
}

// AllocAndMap allocates frames for and maps the size-byte region starting
// at the page-aligned va. It returns the PFNs backing the region in order.
func (as *AddressSpace) AllocAndMap(va, size, flags uint32) ([]uint32, error) {
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
		if err := as.Map(va+i*PageSize, pfn, flags); err != nil {
			return nil, err
		}
		pfns = append(pfns, pfn)
	}
	return pfns, nil
}

// UnmapAndFree tears down the mapping for [va, va+size) and frees the
// backing frames. Used when a kernel module is unloaded.
func (as *AddressSpace) UnmapAndFree(va, size uint32) error {
	pages := (size + PageSize - 1) / PageSize
	for i := uint32(0); i < pages; i++ {
		pa, err := as.Translate(va + i*PageSize)
		if err != nil {
			return err
		}
		if err := as.Unmap(va + i*PageSize); err != nil {
			return err
		}
		if err := as.mem.FreeFrame(pa >> PageShift); err != nil {
			return err
		}
	}
	return nil
}

// Translate walks this address space's page tables for va.
func (as *AddressSpace) Translate(va uint32) (uint32, error) {
	return WalkPageTables(as.mem, as.cr3, va)
}

// Read copies len(b) bytes from virtual address va, walking the page tables
// for each page touched.
func (as *AddressSpace) Read(va uint32, b []byte) error {
	return ReadVirtual(as.mem, as.cr3, va, b)
}

// Write copies b to virtual address va page by page.
func (as *AddressSpace) Write(va uint32, b []byte) error {
	for len(b) > 0 {
		pa, err := as.Translate(va)
		if err != nil {
			return err
		}
		off := va & (PageSize - 1)
		n := PageSize - off
		if int(n) > len(b) {
			n = uint32(len(b))
		}
		if err := as.mem.WritePhys(pa, b[:n]); err != nil {
			return err
		}
		b = b[n:]
		va += n
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

// Canonical64 reports whether va is a canonical 48-bit x86-64 address.
func Canonical64(va uint64) bool {
	top := va >> 47
	return top == 0 || top == 0x1FFFF
}

// PTIndex64 extracts the 9-bit table index of va at level (3 = PML4 .. 0 =
// PT).
func PTIndex64(va uint64, level uint) uint32 {
	return uint32(va>>(PageShift+9*level)) & (entriesPerTable64 - 1)
}

// ReadPTE64 reads the 8-byte page-table entry at pa.
func ReadPTE64(mem PhysReader, pa uint32) (uint64, error) {
	var b [8]byte
	if err := mem.ReadPhys(pa, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// PTEFrame64 returns the physical frame address an 8-byte entry points at.
func PTEFrame64(entry uint64) uint32 { return uint32(entry & frameMask64) }

// WalkPageTables64 translates a 64-bit guest VA by walking the PML4, PDPT,
// PD and PT out of raw physical memory: the four-level counterpart of
// WalkPageTables, performed from outside the guest the same way.
//
//modsafe:spends four-level page-table walk
func WalkPageTables64(mem PhysReader, cr3 uint32, va uint64) (uint32, error) {
	if !Canonical64(va) {
		return 0, fmt.Errorf("%w: non-canonical va %#x", ErrUnmapped, va)
	}
	tablePA := cr3
	for level := uint(3); ; level-- {
		entry, err := ReadPTE64(mem, tablePA+PTIndex64(va, level)*8)
		if err != nil {
			return 0, err
		}
		if entry&PtePresent == 0 {
			return 0, fmt.Errorf("%w: va %#x (level %d entry not present)", ErrUnmapped, va, level)
		}
		if level == 0 {
			return PTEFrame64(entry) | uint32(va&(PageSize-1)), nil
		}
		tablePA = PTEFrame64(entry)
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

// ReadVirtual64 is ReadVirtual over four-level x86-64 tables.
func ReadVirtual64(mem PhysReader, cr3 uint32, va uint64, b []byte) error {
	return readPages(mem, va, b, func(va uint64) (uint32, error) {
		return WalkPageTables64(mem, cr3, va)
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
