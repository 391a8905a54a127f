package amd64

import (
	"encoding/binary"
	"fmt"

	"modchecker/internal/mm"
)

// x86-64 4-level paging over the shared guest-physical substrate: the
// guest-side half only. The guest kernel maps and writes through its own
// tables; translation is mm.WalkPageTables64, the same external walk the
// VMI layer performs from outside the guest.

// AddressSpace64 is one 64-bit virtual address space rooted at a PML4
// inside guest-physical memory.
type AddressSpace64 struct {
	mem *mm.PhysMemory
	cr3 uint32 // physical address of the PML4
}

// NewAddressSpace64 allocates a PML4 and returns the empty address space.
func NewAddressSpace64(mem *mm.PhysMemory) (*AddressSpace64, error) {
	pfn, err := mem.AllocFrame()
	if err != nil {
		return nil, fmt.Errorf("amd64: allocating PML4: %w", err)
	}
	return &AddressSpace64{mem: mem, cr3: pfn << mm.PageShift}, nil
}

// CR3 returns the PML4's physical address.
func (as *AddressSpace64) CR3() uint32 { return as.cr3 }

// Phys returns the backing physical memory.
func (as *AddressSpace64) Phys() *mm.PhysMemory { return as.mem }

func (as *AddressSpace64) writeEntry64(pa uint32, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return as.mem.WritePhys(pa, b[:])
}

// Map installs va -> pfn, allocating intermediate tables as needed. va
// must be page-aligned and canonical.
func (as *AddressSpace64) Map(va uint64, pfn uint32, writable bool) error {
	if va&(mm.PageSize-1) != 0 {
		return fmt.Errorf("amd64: map of unaligned address %#x", va)
	}
	if !mm.Canonical64(va) {
		return fmt.Errorf("amd64: non-canonical address %#x", va)
	}
	tablePA := as.cr3
	for level := uint(3); level >= 1; level-- {
		entryPA := tablePA + mm.PTIndex64(va, level)*8
		entry, err := mm.ReadPTE64(as.mem, entryPA)
		if err != nil {
			return err
		}
		if entry&mm.PtePresent == 0 {
			newPFN, err := as.mem.AllocFrame()
			if err != nil {
				return fmt.Errorf("amd64: allocating level-%d table: %w", level, err)
			}
			entry = uint64(newPFN)<<mm.PageShift | mm.PtePresent | mm.PteWritable
			if err := as.writeEntry64(entryPA, entry); err != nil {
				return err
			}
		}
		tablePA = mm.PTEFrame64(entry)
	}
	flags := uint64(mm.PtePresent)
	if writable {
		flags |= mm.PteWritable
	}
	return as.writeEntry64(tablePA+mm.PTIndex64(va, 0)*8, uint64(pfn)<<mm.PageShift|flags)
}

// AllocAndMap allocates and maps size bytes at the page-aligned va.
func (as *AddressSpace64) AllocAndMap(va uint64, size uint32, writable bool) error {
	pages := (size + mm.PageSize - 1) / mm.PageSize
	for i := uint32(0); i < pages; i++ {
		pfn, err := as.mem.AllocFrame()
		if err != nil {
			return err
		}
		if err := as.Map(va+uint64(i)*mm.PageSize, pfn, writable); err != nil {
			return err
		}
	}
	return nil
}

// Write copies b into guest virtual memory.
func (as *AddressSpace64) Write(va uint64, b []byte) error {
	for len(b) > 0 {
		pa, err := mm.WalkPageTables64(as.mem, as.cr3, va)
		if err != nil {
			return err
		}
		n := mm.PageSize - uint32(va&(mm.PageSize-1))
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
