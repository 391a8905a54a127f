package guest

// Fork creates a copy-on-write clone of the guest, modeling a VM
// instantiated by snapshotting a running golden template rather than by
// booting from disk. The clone shares every physical frame with the
// template (mm.PhysMemory.Fork freezes the image into a common base layer)
// and pays only for frames it subsequently dirties, so a fleet of clean
// clones costs O(templates × image) memory instead of O(N × image).
//
// The clone inherits the template's page tables, loaded-module layout, pool
// cursor, and disk (shared until first mutation, like cloned domains
// already share the golden disk); its own seed drives any future load
// decisions and resource noise. Until the clone's memory diverges, its
// Phys().SnapshotID matches the template's — the content-identity token
// fleet sweeps use to avoid introspecting bit-identical clones twice.
func (g *Guest) Fork(name string, seed int64) *Guest {
	g.mu.Lock()
	defer g.mu.Unlock()
	phys := g.phys.Fork()
	as := g.as.Attach(phys)
	c := &Guest{
		name:         name,
		seed:         seed,
		phys:         phys,
		as:           as,
		nextModuleVA: g.nextModuleVA,
		disk:         g.disk,
		modules:      cloneModules(g.modules),
	}
	c.pool = &poolAllocator{as: as, next: g.pool.next, mappedEnd: g.pool.mappedEnd}
	c.res.init(seed)
	return c
}
