package core

import "repro/internal/parallel"

// Node is one recursion node's output, shared by every terminal op that
// emits a slice (collect's KVs, dedup's kept records, a join's rows or
// per-key counts): the node's own chunk (an internal node's heavy-key
// output; a leaf's emitted rows) followed by its light-bucket children in
// bucket-id order. Nodes and chunks are arena-pooled; Pack walks the tree
// once to assign offsets and copies every chunk into the result slice in
// parallel.
type Node[T any] struct {
	Own  *parallel.Buf[T]        // nil when the node emitted nothing itself
	Hown *parallel.Buf[uint64]   // Own's user hashes (plane-emitting ops only)
	Kids *parallel.Buf[*Node[T]] // nil for leaves; nil entries for empty buckets
}

// packItem is one chunk placement of the final parallel pack.
type packItem[T any] struct {
	src  []T
	hsrc []uint64 // aligned hashes (plane-emitting packs only)
	off  int
}

// NewNode takes a clean pooled node from the arena.
func NewNode[T any](sc *parallel.Scratch) *Node[T] {
	nd := parallel.GetObj[Node[T]](sc)
	*nd = Node[T]{} // pooled nodes come back dirty
	return nd
}

// NewKids gives nd a zeroed child slot per light bucket and returns the
// slots (children fill their own bucket's slot, so no synchronization).
func (nd *Node[T]) NewKids(sc *parallel.Scratch, n int) []*Node[T] {
	nd.Kids = parallel.GetBuf[*Node[T]](sc, n)
	nd.Kids.Zero()
	return nd.Kids.S
}

// Pack flattens the tree into the result slice: one deterministic pre-order
// walk (a node's own chunk, then its buckets in bucket-id order) assigns
// offsets, one parallel pass copies the chunks, and the tree goes back to
// the arena. With plane set, every chunk travels with its aligned hash
// chunk (Node.Hown) and the copy also fills an arena-leased hash plane:
// hout.S[i] is out[i]'s user hash. The caller owns hout (typically handing
// it to the next pipeline stage inside a Plane); it is nil without plane or
// for an empty tree.
func Pack[T any](rt *parallel.Runtime, sc *parallel.Scratch, root *Node[T], plane bool) (out []T, hout *parallel.Buf[uint64]) {
	if root == nil {
		return nil, nil
	}
	itemsBuf := parallel.GetBuf[packItem[T]](sc, 0)
	items := itemsBuf.S[:0]
	total := 0
	var walk func(nd *Node[T])
	walk = func(nd *Node[T]) {
		if nd == nil {
			return
		}
		if nd.Own != nil && len(nd.Own.S) > 0 {
			it := packItem[T]{src: nd.Own.S, off: total}
			if plane {
				it.hsrc = nd.Hown.S
			}
			items = append(items, it)
			total += len(nd.Own.S)
		}
		if nd.Kids != nil {
			for _, kid := range nd.Kids.S {
				walk(kid)
			}
		}
	}
	walk(root)
	out = make([]T, total)
	var hs []uint64
	if plane {
		hout = parallel.GetBuf[uint64](sc, total)
		hs = hout.S
	}
	rt.For(len(items), 1, func(i int) {
		copy(out[items[i].off:], items[i].src)
		if plane {
			copy(hs[items[i].off:], items[i].hsrc)
		}
	})
	freeTree(sc, root)
	itemsBuf.S = items[:0]
	itemsBuf.Release()
	return out, hout
}

// freeTree returns a packed subtree to the arena, clearing chunk contents so
// pooled buffers do not pin caller records between calls.
func freeTree[T any](sc *parallel.Scratch, nd *Node[T]) {
	if nd == nil {
		return
	}
	if nd.Own != nil {
		clear(nd.Own.S)
		nd.Own.Release()
	}
	if nd.Hown != nil {
		nd.Hown.Release()
	}
	if nd.Kids != nil {
		for _, kid := range nd.Kids.S {
			freeTree(sc, kid)
		}
		nd.Kids.Zero()
		nd.Kids.Release()
	}
	*nd = Node[T]{}
	parallel.PutObj(sc, nd)
}
