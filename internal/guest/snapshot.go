package guest

import "modchecker/internal/mm"

// Snapshot is a point-in-time capture of a guest: the full physical memory
// image plus the loader bookkeeping needed to resume. The paper's
// discussion (Section III-B) notes that clouds keep clean snapshots and
// revert infected VMs to flush infections; the hypervisor package exposes
// that workflow on top of this type.
//
// The boot RNG stream is not part of the capture: module bases assigned
// *after* a restore may differ from those the original guest would have
// chosen, but all state existing at snapshot time is restored exactly.
type Snapshot struct {
	phys         *mm.PhysMemory
	modules      map[string]*LoadedModule
	nextModuleVA uint64
	poolNext     uint64
	poolMapped   uint64
	disk         map[string][]byte
}

// Snapshot captures the guest's current memory and loader state.
func (g *Guest) Snapshot() *Snapshot {
	g.mu.Lock()
	defer g.mu.Unlock()
	return &Snapshot{
		phys:         g.phys.Clone(),
		modules:      cloneModules(g.modules),
		nextModuleVA: g.nextModuleVA,
		poolNext:     g.pool.next,
		poolMapped:   g.pool.mappedEnd,
		disk:         g.disk,
	}
}

// Restore rewinds the guest to the snapshot. The snapshot itself is not
// consumed; it can be restored any number of times.
func (g *Guest) Restore(s *Snapshot) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.phys = s.phys.Clone()
	// The kernel's page tables never move, so the captured memory holds
	// them at the same CR3.
	g.as = g.as.Attach(g.phys)
	g.pool = &poolAllocator{as: g.as, next: s.poolNext, mappedEnd: s.poolMapped}
	g.nextModuleVA = s.nextModuleVA
	g.disk = s.disk
	g.modules = cloneModules(s.modules)
}

// cloneModules copies a module table. LoadedModule records are immutable
// once linked, so the copies share them; the map itself must be private
// because load and unload mutate it in place.
func cloneModules(mods map[string]*LoadedModule) map[string]*LoadedModule {
	out := make(map[string]*LoadedModule, len(mods))
	for k, v := range mods {
		out[k] = v
	}
	return out
}
