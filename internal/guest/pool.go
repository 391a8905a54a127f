package guest

import (
	"fmt"

	"modchecker/internal/mm"
)

// poolAllocator is a simple bump allocator over the layout's kernel pool
// range, standing in for the nonpaged pool. It maps backing pages on demand
// and never frees (loader metadata is tiny and lives for the guest's
// lifetime, matching how PsLoadedModuleList entries behave in practice).
type poolAllocator struct {
	as        *mm.AddressSpace
	next      uint64
	mappedEnd uint64
}

// alloc reserves size bytes aligned to align (a power of two) and returns
// the guest VA.
func (p *poolAllocator) alloc(size, align uint32) (uint64, error) {
	if align == 0 {
		align = 8
	}
	va := (p.next + uint64(align) - 1) &^ (uint64(align) - 1)
	end := va + uint64(size)
	if limit := layoutOf(p.as).poolEnd; end > limit {
		return 0, fmt.Errorf("guest: pool exhausted (%#x > %#x)", end, limit)
	}
	for p.mappedEnd < end {
		if _, err := p.as.AllocAndMap(p.mappedEnd, mm.PageSize, mm.PteWritable); err != nil {
			return 0, fmt.Errorf("guest: mapping pool page %#x: %w", p.mappedEnd, err)
		}
		p.mappedEnd += mm.PageSize
	}
	p.next = end
	return va, nil
}
