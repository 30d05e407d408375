package alloc

// GroupFree returns the free-block count of group g.
func (a *Allocator) GroupFree(g int) int64 {
	return a.groupFree[g]
}
