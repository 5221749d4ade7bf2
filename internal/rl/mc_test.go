package rl

import (
	"math/rand"
	"testing"
)

func newTestController(eps float64) *Controller[int, string] {
	return New[int, string](eps, rand.New(rand.NewSource(42)))
}

func TestChooseActionEmpty(t *testing.T) {
	c := newTestController(0.1)
	if _, ok := c.ChooseAction(1, nil); ok {
		t.Fatal("ChooseAction with no actions returned ok")
	}
}

func TestChooseActionArbitraryBeforeLearning(t *testing.T) {
	c := newTestController(0.1)
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		a, ok := c.ChooseAction(1, []string{"x", "y", "z"})
		if !ok {
			t.Fatal("no action")
		}
		seen[a] = true
	}
	if len(seen) != 3 {
		t.Fatalf("arbitrary policy did not cover all actions: %v", seen)
	}
}

func TestVisitFirstVisitSemantics(t *testing.T) {
	c := newTestController(0.1)
	if !c.Visit(100) {
		t.Fatal("first Visit returned false")
	}
	if c.Visit(100) {
		t.Fatal("second Visit in same episode returned true")
	}
	c.EndEpisode()
	if !c.Visit(100) {
		t.Fatal("Visit in a new episode is a new first visit")
	}
}

func TestReturnsAveraging(t *testing.T) {
	c := newTestController(0.1)
	c.RecordReturn(1, "x", 1)
	c.RecordReturn(1, "x", -1)
	if got := c.Q(1, "x"); got != 0 {
		t.Fatalf("Q = %f, want 0 (average of +1 and -1)", got)
	}
	c.RecordReturn(1, "x", 1)
	if got := c.Q(1, "x"); got < 0.33 || got > 0.34 {
		t.Fatalf("Q = %f, want 1/3", got)
	}
	if got := c.Q(1, "never"); got != 0 {
		t.Fatalf("Q of unseen action = %f, want 0", got)
	}
}

func TestPolicyImprovementPicksArgmax(t *testing.T) {
	c := newTestController(0) // fully greedy after improvement
	c.RecordReturn(1, "bad", -1)
	c.RecordReturn(1, "good", 1)
	c.EndEpisode()
	a, ok := c.GreedyAction(1)
	if !ok || a != "good" {
		t.Fatalf("greedy action = %q, %v; want good", a, ok)
	}
	for i := 0; i < 50; i++ {
		got, _ := c.ChooseAction(1, []string{"bad", "good"})
		if got != "good" {
			t.Fatalf("ε=0 policy chose %q", got)
		}
	}
}

func TestEpsilonGreedyStillExplores(t *testing.T) {
	c := newTestController(0.5)
	c.RecordReturn(1, "good", 1)
	c.RecordReturn(1, "bad", -1)
	c.EndEpisode()
	counts := map[string]int{}
	for i := 0; i < 2000; i++ {
		a, _ := c.ChooseAction(1, []string{"bad", "good"})
		counts[a]++
	}
	if counts["bad"] == 0 {
		t.Fatal("ε-greedy never explored the non-greedy action")
	}
	if counts["good"] <= counts["bad"] {
		t.Fatalf("greedy action not preferred: %v", counts)
	}
}

func TestGreedyActionUnavailableFallsBack(t *testing.T) {
	c := newTestController(0)
	c.RecordReturn(1, "gone", 5)
	c.EndEpisode()
	a, ok := c.ChooseAction(1, []string{"other"})
	if !ok || a != "other" {
		t.Fatalf("fallback = %q, %v", a, ok)
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	// Two actions with equal Q: argmax must resolve to the first-seen
	// action, deterministically across controllers.
	for trial := 0; trial < 5; trial++ {
		c := New[int, string](0, rand.New(rand.NewSource(7)))
		c.RecordReturn(1, "first", 1)
		c.RecordReturn(1, "second", 1)
		c.EndEpisode()
		a, _ := c.GreedyAction(1)
		if a != "first" {
			t.Fatalf("tie broke to %q", a)
		}
	}
}

func TestStatesCount(t *testing.T) {
	c := newTestController(0.1)
	c.RecordReturn(1, "a", 1)
	c.RecordReturn(2, "a", 1)
	if c.States() != 2 {
		t.Fatalf("States = %d, want 2", c.States())
	}
}

// The convergence property behind §5: with ε-greedy improvement over
// repeated episodes where one action is consistently better, the policy
// settles on that action.
func TestConvergenceToBetterAction(t *testing.T) {
	c := New[int, string](0.2, rand.New(rand.NewSource(11)))
	actions := []string{"a", "b", "c"}
	rng := rand.New(rand.NewSource(99))
	for ep := 0; ep < 30; ep++ {
		for step := 0; step < 20; step++ {
			s := step % 3
			act, _ := c.ChooseAction(s, actions)
			reward := -1.0
			if act == "b" {
				reward = 1.0
			}
			// noisy reward
			if rng.Float64() < 0.1 {
				reward = -reward
			}
			c.RecordReturn(s, act, reward)
		}
		c.EndEpisode()
	}
	for s := 0; s < 3; s++ {
		if a, ok := c.GreedyAction(s); !ok || a != "b" {
			t.Fatalf("state %d converged to %q", s, a)
		}
	}
}

// TestImportDerivesThePolicy: the policy is not exported, so at every
// episode boundary a controller imported from the exported table must
// hold the same greedy action for every state — ties (common: returns
// are ±1) broken toward the first-seen action, as EndEpisode breaks
// them.
func TestImportDerivesThePolicy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := newTestController(0.3)
	actions := []string{"a", "b", "c", "d"}
	for ep := 0; ep < 40; ep++ {
		for i := 0; i < 30; i++ {
			s := rng.Intn(12)
			if rng.Intn(2) == 0 {
				c.ChooseAction(s, actions)
				continue
			}
			c.RecordReturn(s, actions[rng.Intn(len(actions))], float64(2*rng.Intn(2)-1))
		}
		c.EndEpisode()
		twin := newTestController(0.3)
		twin.Import(c.Export())
		for s := 0; s < 12; s++ {
			got, gok := twin.GreedyAction(s)
			want, wok := c.GreedyAction(s)
			if got != want || gok != wok {
				t.Fatalf("episode %d, state %d: imported policy %q/%v, want %q/%v", ep, s, got, gok, want, wok)
			}
		}
	}
}
