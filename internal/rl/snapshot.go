package rl

// TableEntry is one (state, action) row of the exported action-value
// table: Sum and N reconstruct the Returns average.
type TableEntry[S comparable, A comparable] struct {
	State  S
	Action A
	Sum    float64
	N      int
}

// Export dumps the learned action-value table, each state's rows
// together in its actions' first-seen order. Snapshots are taken
// between episodes, so neither the greedy policy, which Import derives,
// nor the first-visit bookkeeping is exported.
func (c *Controller[S, A]) Export() []TableEntry[S, A] {
	var table []TableEntry[S, A]
	for s, actions := range c.q {
		for _, a := range c.order[s] {
			r := actions[a]
			table = append(table, TableEntry[S, A]{State: s, Action: a, Sum: r.sum, N: r.n})
		}
	}
	return table
}

// Import replaces the controller's learned state with an exported
// table, then derives the policy with EndEpisode's argmax over every
// state. A state's rows are applied in slice order, which fixes its
// actions' first-seen order and so argmax's tie-break.
func (c *Controller[S, A]) Import(table []TableEntry[S, A]) {
	c.q = make(map[S]map[A]returns, len(table))
	c.order = make(map[S][]A, len(table))
	c.policy = make(map[S]A, len(table))
	c.episode = make(map[S]struct{})
	for _, e := range table {
		c.add(e.State, e.Action, e.Sum, e.N)
	}
	c.EndEpisode()
}
