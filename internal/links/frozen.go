package links

// Frozen is an immutable, persistent set of links with structural
// sharing: each value holds a pointer to its parent plus a small delta
// of links added relative to it. Extending a Frozen with With is
// O(delta) and never copies the ancestry, which makes it the right
// provenance carrier for the federated evaluator: a query producing R
// intermediate rows over provenance chains of average length L costs
// O(R) pointers instead of the O(R·L) of cloning a mutable Set per row.
// The chain is materialized into a Set only when a row is emitted.
//
// A nil *Frozen is the empty set, and every method is safe on a nil
// receiver. Frozen values are never mutated after construction, so they
// may be shared freely across goroutines without synchronization.
//
// Construct Frozen values only through NewFrozen and With; both
// guarantee that the links along a chain are pairwise distinct, which
// Len relies on.
type Frozen struct {
	parent *Frozen
	delta  []Link
	// one backs delta when a node adds a single link — one sameAs hop,
	// the common case — so that such a node is one allocation.
	one [1]Link
}

// NewFrozen returns a frozen set holding the given links.
func NewFrozen(ls ...Link) *Frozen {
	return (*Frozen)(nil).With(ls...)
}

// With returns a frozen set that additionally contains ls. The receiver
// is unchanged. When every link in ls is already present the receiver
// itself is returned, so no-op extensions are free.
func (f *Frozen) With(ls ...Link) *Frozen {
	var buf [3]Link // a triple pattern crosses at most three links
	add := buf[:0]
	for _, l := range ls {
		if !f.Has(l) && !linkIn(add, l) {
			add = append(add, l)
		}
	}
	if len(add) == 0 {
		return f
	}
	n := &Frozen{parent: f}
	if len(add) == 1 {
		n.one[0] = add[0]
		n.delta = n.one[:]
	} else {
		n.delta = append([]Link(nil), add...)
	}
	return n
}

func linkIn(ls []Link, l Link) bool {
	for _, x := range ls {
		if x == l {
			return true
		}
	}
	return false
}

// Has reports membership by walking the delta chain. Chains are short
// (one node per sameAs hop of one answer row), so the walk is cheap.
func (f *Frozen) Has(l Link) bool {
	for n := f; n != nil; n = n.parent {
		for _, d := range n.delta {
			if d == l {
				return true
			}
		}
	}
	return false
}

// Len returns the number of distinct links in the set.
func (f *Frozen) Len() int {
	n := 0
	for node := f; node != nil; node = node.parent {
		n += len(node.delta)
	}
	return n
}

// Empty reports whether the set holds no links.
func (f *Frozen) Empty() bool { return f.Len() == 0 }

// Set materializes the frozen set as a freshly allocated mutable Set.
// The result is owned by the caller.
func (f *Frozen) Set() Set {
	out := make(Set, f.Len())
	f.AddTo(out)
	return out
}

// AppendTo appends every link of the frozen set to dst, in no
// particular order.
func (f *Frozen) AppendTo(dst []Link) []Link {
	for node := f; node != nil; node = node.parent {
		dst = append(dst, node.delta...)
	}
	return dst
}

// AddTo inserts every link of the frozen set into s.
func (f *Frozen) AddTo(s Set) {
	for node := f; node != nil; node = node.parent {
		for _, l := range node.delta {
			s[l] = struct{}{}
		}
	}
}
