package mdfs

// blockLRU is the residency set of the MDS block cache: which blocks are in
// memory, in recency order, bounded at a fixed capacity. It tracks block
// states only — contents live in the store's overlays. The list is
// threaded through a node slice by index, and a block's node is found
// through its state's lru field, so a touch hashes nothing, moves no
// pointers and allocates nothing once the cache has filled.
type blockLRU struct {
	// nodes[0] is the list head: its next is the most recently used node,
	// its prev the least. Unused nodes are chained through next from free.
	nodes    []lruNode
	free     int32
	resident int
	limit    int
}

type lruNode struct {
	st         *blockState
	prev, next int32
}

func newBlockLRU(capacity int) blockLRU {
	return blockLRU{nodes: []lruNode{{}}, limit: capacity}
}

// reset empties the cache, visiting only the resident blocks.
func (c *blockLRU) reset() {
	for i := c.nodes[0].next; i != 0; i = c.nodes[i].next {
		c.nodes[i].st.lru = 0
	}
	clear(c.nodes)
	c.nodes = c.nodes[:1]
	c.free, c.resident = 0, 0
}

// touch makes the block whose state is st the most recently used,
// inserting it — and evicting the coldest block if the cache is full —
// when it was not resident. It reports whether the block was resident
// before the call.
func (c *blockLRU) touch(st *blockState) bool {
	if i := st.lru; i != 0 {
		c.unlink(i)
		c.pushFront(i)
		return true
	}
	var i int32
	switch {
	case c.resident >= c.limit:
		i = c.nodes[0].prev
		c.unlink(i)
		c.nodes[i].st.lru = 0
		c.resident--
	case c.free != 0:
		i = c.free
		c.free = c.nodes[i].next
	default:
		c.nodes = append(c.nodes, lruNode{})
		i = int32(len(c.nodes) - 1)
	}
	c.nodes[i].st = st
	st.lru = i
	c.resident++
	c.pushFront(i)
	return false
}

// remove drops the block whose state is st from the cache if it is
// resident.
func (c *blockLRU) remove(st *blockState) {
	i := st.lru
	if i == 0 {
		return
	}
	st.lru = 0
	c.resident--
	c.unlink(i)
	c.nodes[i] = lruNode{next: c.free}
	c.free = i
}

func (c *blockLRU) unlink(i int32) {
	n := c.nodes[i]
	c.nodes[n.prev].next = n.next
	c.nodes[n.next].prev = n.prev
}

func (c *blockLRU) pushFront(i int32) {
	first := c.nodes[0].next
	c.nodes[i].prev, c.nodes[i].next = 0, first
	c.nodes[first].prev = i
	c.nodes[0].next = i
}
