// Package feedback simulates the users of the paper's evaluation
// (§7.1, "Generating Feedback"): a link drawn from the candidate set is
// compared against the ground truth, yielding a positive or negative
// feedback item. An optional error rate flips feedback randomly to model
// incorrect users (Appendix C).
package feedback

import (
	"math/rand"

	"alex/internal/links"
)

// Judger is anything that can give approve/reject verdicts on links:
// the single-user Oracle, the majority-vote Crowd, or a real feedback
// channel.
type Judger interface {
	Judge(l links.Link) bool
}

// Oracle answers approve/reject for candidate links.
type Oracle struct {
	gt      links.Set
	errRate float64
	rng     *rand.Rand
}

// NewOracle returns an oracle over the given ground truth. errRate in
// [0, 1] is the probability that a feedback item is flipped (0 for the
// paper's main experiments, 0.10 for Appendix C).
func NewOracle(gt links.Set, errRate float64, rng *rand.Rand) *Oracle {
	return &Oracle{gt: gt, errRate: errRate, rng: rng}
}

// Judge returns the user's verdict for a link: whether the answer built
// on it is approved.
func (o *Oracle) Judge(l links.Link) bool {
	correct := o.gt.Has(l)
	if o.errRate > 0 && o.rng.Float64() < o.errRate {
		return !correct
	}
	return correct
}

// GroundTruth returns the oracle's ground-truth set.
func (o *Oracle) GroundTruth() links.Set { return o.gt }

// Crowd simulates the feedback-refinement idea the paper points to in
// §6.3 ("refine the feedback so that ALEX uses only high quality
// feedback obtained from a large number of users"): each judgment is
// the majority vote of Voters independent users, every one of whom errs
// with probability ErrRate. Majority voting drives the effective error
// rate down exponentially in the number of voters.
type Crowd struct {
	gt      links.Set
	errRate float64
	voters  int
	rng     *rand.Rand
}

// NewCrowd returns a majority-vote crowd of the given size (rounded up
// to an odd number so votes cannot tie).
func NewCrowd(gt links.Set, errRate float64, voters int, rng *rand.Rand) *Crowd {
	if voters < 1 {
		voters = 1
	}
	if voters%2 == 0 {
		voters++
	}
	return &Crowd{gt: gt, errRate: errRate, voters: voters, rng: rng}
}

// Judge returns the crowd's majority verdict for a link.
func (c *Crowd) Judge(l links.Link) bool {
	correct := c.gt.Has(l)
	approvals := 0
	for i := 0; i < c.voters; i++ {
		vote := correct
		if c.errRate > 0 && c.rng.Float64() < c.errRate {
			vote = !vote
		}
		if vote {
			approvals++
		}
	}
	return approvals*2 > c.voters
}

// EffectiveErrRate returns the probability that the crowd's majority
// verdict on a link is wrong: the error rate a single Oracle would need
// to be as unreliable as the vote.
func (c *Crowd) EffectiveErrRate() float64 {
	// P(majority wrong) for n voters each wrong with probability p:
	// sum over k > n/2 of C(n,k) p^k (1-p)^(n-k).
	n := c.voters
	p := c.errRate
	total := 0.0
	for k := n/2 + 1; k <= n; k++ {
		total += binom(n, k) * pow(p, k) * pow(1-p, n-k)
	}
	return total
}

func binom(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	out := 1.0
	for i := 0; i < k; i++ {
		out = out * float64(n-i) / float64(i+1)
	}
	return out
}

func pow(x float64, n int) float64 {
	out := 1.0
	for i := 0; i < n; i++ {
		out *= x
	}
	return out
}
