package mm

// Clone returns a copy of the physical memory with identical contents and
// allocation behavior. The hypervisor snapshot facility uses this to
// capture and restore whole-VM memory images. Since the CoW rework it is an
// alias for Fork: the image is frozen into a shared base layer and both
// sides copy frames only on write, so repeated snapshot/restore cycles of
// an idle guest share one frozen image instead of duplicating it.
func (m *PhysMemory) Clone() *PhysMemory {
	return m.Fork()
}
