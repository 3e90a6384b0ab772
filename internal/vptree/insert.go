package vptree

// Insert adds one item using the four-case dynamic update scheme the paper
// adopts from Fu et al. (§III-D):
//
//  1. the target leaf bucket has room — append;
//  2. the leaf is full but its sibling subtree has room — redistribute all
//     values under the common parent;
//  3. both are full but some ancestor's subtree has room — redistribute
//     under that ancestor;
//  4. the tree is completely full — split the root (here: rebuild the whole
//     tree one level taller).
//
// "Room" for a subtree of height h is bucketCap * 2^h items, the capacity of
// a perfectly balanced subtree of that height; redistribution is a balanced
// rebuild of the affected subtree. This keeps the tree balanced so lookups
// stay logarithmic, at the cost the paper notes — extra preprocessing —
// which InsertBatch amortizes.
//
// A leaf a bulk build left in its arena is capped at its length, so the append
// of case 1 moves that leaf into a slab of its own (the arena keeps a hole
// until an enclosing rebuild drops it); the rebuilds of cases 2 to 4 give the
// subtree they rebuild a fresh arena.
func (t *Tree) Insert(it Item) {
	if t.root == nil {
		t.root = &node{slab: t.collectWith(nil, it), count: 1}
		t.size = 1
		return
	}
	// Route to the leaf, remembering the path.
	path := []*node{}
	n := t.root
	for n.refs == nil {
		path = append(path, n)
		if t.metric.Distance(n.keys, it.Key) <= int(n.mu) {
			n = n.left
		} else {
			n = n.right
		}
	}
	if len(n.refs) < t.bucketCap { // case 1
		t.add(&n.slab, it)
		n.count++
		for _, p := range path {
			p.count++
		}
		t.size++
		return
	}
	// Cases 2-3: lowest ancestor (parent first) whose subtree has room.
	for i := len(path) - 1; i >= 0; i-- {
		a := path[i]
		if int(a.count)+1 <= t.capacity(int(a.height)) {
			*a = *t.build(t.collectWith(a, it))
			// Fix counts and heights on the remaining path (leaf-ward
			// ancestors first so heights propagate upward correctly).
			for j := i - 1; j >= 0; j-- {
				p := path[j]
				p.count++
				p.height = 1 + max(subHeight(p.left), subHeight(p.right))
			}
			t.size++
			return
		}
	}
	// Case 4: completely full tree.
	t.root = t.build(t.collectWith(t.root, it))
	t.size++
}

// InsertBatch adds items in bulk. Large batches (relative to the current
// size) trigger a single balanced rebuild, which is the paper's middle
// ground between one-at-a-time insertion and whole-dataset construction.
func (t *Tree) InsertBatch(items []Item) {
	if len(items) == 0 {
		return
	}
	if t.root == nil || len(items)*4 >= t.size {
		t.root = t.build(t.collectWith(t.root, items...))
		t.size += len(items)
		return
	}
	for _, it := range items {
		t.Insert(it)
	}
}

// Items returns a copy of every item in the tree.
func (t *Tree) Items() []Item {
	all := t.collectWith(t.root)
	out := make([]Item, len(all.refs))
	for i, ref := range all.refs {
		out[i] = Item{Key: all.key(i, t.stride), Ref: ref}
	}
	return out
}

// capacity is the item capacity of a balanced subtree of the given height.
func (t *Tree) capacity(height int) int {
	if height > 30 {
		return int(^uint(0) >> 1)
	}
	return t.bucketCap << uint(height)
}

// collectWith gathers the subtree's items, left to right, followed by extra,
// into one fresh slab: the input, and then the arena, of a rebuild. The first
// key an empty tree is given fixes the tree's key length.
func (t *Tree) collectWith(n *node, extra ...Item) slab {
	count := 0
	if n != nil {
		count = int(n.count)
	} else if t.size == 0 && len(extra) > 0 {
		t.stride = len(extra[0].Key)
	}
	out := t.newSlab(count + len(extra))
	eachLeaf(n, func(leaf slab) {
		out.keys = append(out.keys, leaf.keys...)
		out.refs = append(out.refs, leaf.refs...)
	})
	t.add(&out, extra...)
	return out
}

// eachLeaf calls f on every leaf slab under n, left to right.
func eachLeaf(n *node, f func(slab)) {
	if n == nil {
		return
	}
	if n.refs != nil {
		f(n.slab)
		return
	}
	eachLeaf(n.left, f)
	eachLeaf(n.right, f)
}
