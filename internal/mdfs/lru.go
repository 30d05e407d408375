package mdfs

// blockLRU is the residency set of the MDS block cache: which blocks are in
// memory, in recency order, bounded at a fixed capacity. It tracks block
// numbers only — contents live in the store's overlays. The list is
// threaded through a node slice by index, so a touch moves no pointers and
// allocates nothing once the cache has filled.
type blockLRU struct {
	idx map[int64]int32 // block → its node
	// nodes[0] is the list head: its next is the most recently used node,
	// its prev the least. Unused nodes are chained through next from free.
	nodes []lruNode
	free  int32
	limit int
}

type lruNode struct {
	blk        int64
	prev, next int32
}

func newBlockLRU(capacity int) blockLRU {
	c := blockLRU{limit: capacity}
	c.reset()
	return c
}

// reset empties the cache.
func (c *blockLRU) reset() {
	c.idx = make(map[int64]int32)
	c.nodes = append(c.nodes[:0], lruNode{})
	c.free = 0
}

// touch makes the block the most recently used, inserting it — and evicting
// the coldest block if the cache is full — when it was not resident. It
// reports whether the block was resident before the call.
func (c *blockLRU) touch(blk int64) bool {
	if i, ok := c.idx[blk]; ok {
		c.unlink(i)
		c.pushFront(i)
		return true
	}
	var i int32
	switch {
	case len(c.idx) >= c.limit:
		i = c.nodes[0].prev
		c.unlink(i)
		delete(c.idx, c.nodes[i].blk)
	case c.free != 0:
		i = c.free
		c.free = c.nodes[i].next
	default:
		c.nodes = append(c.nodes, lruNode{})
		i = int32(len(c.nodes) - 1)
	}
	c.nodes[i].blk = blk
	c.idx[blk] = i
	c.pushFront(i)
	return false
}

// remove drops the block from the cache if it is resident.
func (c *blockLRU) remove(blk int64) {
	i, ok := c.idx[blk]
	if !ok {
		return
	}
	delete(c.idx, blk)
	c.unlink(i)
	c.nodes[i].next = c.free
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
