// Package rl implements the first-visit Monte Carlo control algorithm
// with an ε-greedy policy that ALEX uses to learn which feature to
// explore around (paper §4.4, Algorithm 1).
//
// The controller is generic over state and action types: in ALEX, a
// state is a link and an action is a feature key, but the algorithm is
// independent of that.
package rl

import "math/rand"

type returns struct {
	sum float64
	n   int
}

func (r returns) avg() float64 {
	if r.n == 0 {
		return 0
	}
	return r.sum / float64(r.n)
}

// Controller is a first-visit Monte Carlo controller with an ε-greedy
// policy. It is not safe for concurrent use; ALEX gives each partition
// its own controller.
type Controller[S comparable, A comparable] struct {
	epsilon float64
	rng     *rand.Rand

	q      map[S]map[A]returns // Returns(s,a) running averages
	order  map[S][]A           // actions per state in first-seen order, for deterministic argmax
	policy map[S]A             // greedy action per state after improvement

	visited map[S]bool     // first-visit bookkeeping for the current episode
	episode map[S]struct{} // states encountered in the current episode
}

// New returns a controller with exploration rate epsilon, drawing
// randomness from rng.
func New[S comparable, A comparable](epsilon float64, rng *rand.Rand) *Controller[S, A] {
	return &Controller[S, A]{
		epsilon: epsilon,
		rng:     rng,
		q:       make(map[S]map[A]returns),
		order:   make(map[S][]A),
		policy:  make(map[S]A),
		visited: make(map[S]bool),
		episode: make(map[S]struct{}),
	}
}

// Visit marks state s as visited in the current episode and reports
// whether this was the first visit. Per the first-visit MC rule
// (Algorithm 1 line 13), only feedback from a state's first visit in an
// episode contributes to the returns of the state-action pairs that led
// to it; if Visit returns false the caller must not record returns for
// this feedback item.
func (c *Controller[S, A]) Visit(s S) bool {
	if c.visited[s] {
		return false
	}
	c.visited[s] = true
	return true
}

// ChooseAction picks an action for state s from the available set using
// the current ε-greedy policy: the greedy action with probability 1−ε,
// otherwise a uniformly random action (so π(s,a) ≥ ε/|A(s)| > 0 and
// exploration never stops, §4.4.1). Before the first policy improvement
// involving s the choice is uniformly random (Algorithm 1 lines 2-8,
// "arbitrary action"). ChooseAction returns the zero action and false
// when no actions are available.
func (c *Controller[S, A]) ChooseAction(s S, available []A) (A, bool) {
	var zero A
	if len(available) == 0 {
		return zero, false
	}
	c.episode[s] = struct{}{}
	if g, ok := c.policy[s]; ok && c.rng.Float64() >= c.epsilon {
		for _, a := range available {
			if a == g {
				return g, true
			}
		}
	}
	return available[c.rng.Intn(len(available))], true
}

// RecordReturn appends a reward to Returns(s, a) (Algorithm 1 line 14:
// "append feedback value to all Returns(s,a) that led to s′"; the caller
// walks the generation chain and calls RecordReturn once per pair).
// Q(s, a) is maintained as the running average of Returns (line 16).
func (c *Controller[S, A]) RecordReturn(s S, a A, reward float64) { c.add(s, a, reward, 1) }

// add adds n returns summing to sum to Returns(s, a) and marks s for
// EndEpisode, which keeps every state's policy the argmax of its values.
func (c *Controller[S, A]) add(s S, a A, sum float64, n int) {
	c.episode[s] = struct{}{}
	m := c.q[s]
	if m == nil {
		m = make(map[A]returns)
		c.q[s] = m
	}
	if _, seen := m[a]; !seen {
		c.order[s] = append(c.order[s], a)
	}
	r := m[a]
	m[a] = returns{sum: r.sum + sum, n: r.n + n}
}

// Q returns the current action-value estimate for (s, a).
func (c *Controller[S, A]) Q(s S, a A) float64 { return c.q[s][a].avg() }

// GreedyAction returns the greedy action recorded by the last policy
// improvement for s, if any.
func (c *Controller[S, A]) GreedyAction(s S) (A, bool) {
	a, ok := c.policy[s]
	return a, ok
}

// EndEpisode performs policy improvement for every state visited during
// the episode (Algorithm 1 lines 24-33): the greedy action
// a* = argmax_a Q(s, a) gets probability 1−ε, implemented by recording
// a* as the policy action and letting ChooseAction add the ε exploration
// mass. It then resets the per-episode first-visit bookkeeping. Ties
// break toward the first-seen action so runs are reproducible.
func (c *Controller[S, A]) EndEpisode() {
	for s := range c.episode {
		m := c.q[s]
		if len(m) == 0 {
			continue
		}
		var best A
		bestVal := 0.0
		first := true
		for _, a := range c.order[s] {
			v := m[a].avg()
			if first || v > bestVal {
				best, bestVal, first = a, v, false
			}
		}
		c.policy[s] = best
	}
	c.visited = make(map[S]bool)
	c.episode = make(map[S]struct{})
}

// States returns the number of states with value estimates.
func (c *Controller[S, A]) States() int { return len(c.q) }
