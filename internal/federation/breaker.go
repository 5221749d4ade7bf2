// Configuration types nothing reads: federated sources are local
// stores and the fleet router has no circuit breakers.
package federation

import "time"

// BreakerConfig is what tuned a circuit breaker.
//
// Deprecated: nothing reads it. It remains until the end-to-end
// benchmark, which sets fleet.Config.Breaker and Resilience.Breaker,
// stops naming it.
type BreakerConfig struct {
	Failures  int
	Cooldown  time.Duration
	Successes int
}

// Resilience is what tuned the per-source deadline, retries and
// breakers federated sources no longer have.
//
// Deprecated: nothing reads it. It remains until the end-to-end
// benchmark, which sets server.Config.Resilience, stops naming it.
type Resilience struct {
	SourceTimeout time.Duration
	Retries       int
	Breaker       BreakerConfig
}
