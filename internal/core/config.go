// Package core implements ALEX itself: the feedback-driven link
// exploration system of the paper. Starting from a set of candidate
// links produced by any automatic linking algorithm, ALEX interprets
// user feedback on query answers as feedback on the links behind them.
// Positive feedback triggers exploration — a reinforcement-learned
// choice of one feature of the approved link, and the admission of all
// links whose score on that feature lies within ±step of the approved
// link's — and negative feedback removes links, feeding the blacklist
// and rollback optimizations (§6.3).
package core

// Config holds every tunable of the system, with defaults matching the
// paper's experimental setup (§7.1 "Default Settings").
type Config struct {
	// StepSize is the exploration offset around a feature score
	// (paper default 0.05).
	StepSize float64
	// Theta is the feature-filtering threshold (paper default 0.3,
	// §6.1). Zero is an explicit θ=0 — every feature is kept, which
	// makes spaces enormous; use DefaultConfig for the paper value.
	Theta float64
	// Epsilon is the ε of the ε-greedy policy, fixed for the whole run
	// (§4.4.1).
	Epsilon float64
	// EpisodeSize is the number of feedback items per episode (paper
	// default 1000 in batch mode, 10 for specific domains).
	EpisodeSize int
	// MaxEpisodes bounds the policy evaluation/improvement iterations
	// (the paper caps at 100).
	MaxEpisodes int
	// BlacklistMargin is how many net negative votes (negatives minus
	// positives) a link needs before it is blacklisted (§6.3); 0 turns
	// the blacklist off. 1 reproduces §6.3 literally: the first
	// rejection of a never-approved link blacklists it. 2 (the default)
	// tolerates one erroneous rejection, which is what keeps recall
	// robust under incorrect feedback (Appendix C): a correct link whose
	// very first judgment is a user error is merely removed and can be
	// rediscovered, instead of being barred forever.
	BlacklistMargin int
	// RollbackThreshold is the number of negative feedback items on
	// links generated by one state-action pair that triggers rollback
	// (§6.3); 0 turns rollback off.
	RollbackThreshold int
	// Partitions is the number of equal-size partitions of dataset 1
	// (§6.2). Partitions are explored independently.
	Partitions int
	// Seed drives all randomness in the system.
	Seed int64
	// UniformPolicy disables learning: actions are drawn uniformly at
	// random regardless of collected rewards. This is the ablation
	// baseline showing the value of the RL component.
	UniformPolicy bool
}

// convergenceEpisodes is the number of consecutive episodes with no
// change in the candidate set that strict convergence needs. With small
// episode sizes a single unchanged episode can be a sampling accident
// rather than a fixpoint.
const convergenceEpisodes = 2

// relaxedDelta is the fraction of changed links below which the
// relaxed convergence rule fires (paper: 5%).
const relaxedDelta = 0.05

// The rewards of Algorithm 1 line 14: an approved link is worth +1 to
// every state-action pair that led to it, a rejected one −1 (§4.3).
const (
	approveReward = 1.0
	rejectReward  = -1.0
)

// DefaultConfig returns the paper's default settings.
func DefaultConfig() Config {
	return Config{
		StepSize:          0.05,
		Theta:             0.3,
		Epsilon:           0.1,
		EpisodeSize:       1000,
		MaxEpisodes:       100,
		BlacklistMargin:   2,
		RollbackThreshold: 3,
		Partitions:        1,
		Seed:              1,
	}
}
