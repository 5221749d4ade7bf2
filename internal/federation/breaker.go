// The circuit breaker of the fleet router's shards (internal/fleet).
// Federated sources are local stores and have none.
package federation

import (
	"sync"
	"time"
)

// BreakerState is the circuit state of one remote peer.
type BreakerState int32

const (
	// BreakerClosed: the peer is healthy; requests flow normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the peer failed repeatedly; requests are skipped
	// until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: the cooldown elapsed; probe requests are allowed
	// through to test whether the peer recovered.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// BreakerConfig tunes a circuit breaker.
type BreakerConfig struct {
	// Failures is the number of consecutive failures that opens the
	// circuit.
	Failures int
	// Cooldown is how long an open circuit rejects before allowing
	// half-open probes.
	Cooldown time.Duration
	// Successes is the number of consecutive half-open successes that
	// close the circuit again.
	Successes int
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Failures < 1 {
		c.Failures = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5 * time.Second
	}
	if c.Successes < 1 {
		c.Successes = 2
	}
	return c
}

// Breaker is a closed → open → half-open → closed circuit breaker. It
// is safe for concurrent use; the clock is injectable for tests.
type Breaker struct {
	mu      sync.Mutex
	cfg     BreakerConfig
	now     func() time.Time
	state   BreakerState
	fails   int       // consecutive failures while closed
	succ    int       // consecutive successes while half-open
	until   time.Time // when an open circuit starts probing
	probing bool      // a half-open probe is in flight
}

// NewBreaker returns a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults(), now: time.Now}
}

// Allow reports whether a request may proceed, transitioning open →
// half-open when the cooldown has elapsed. While half-open, only a
// single probe may be in flight: the first caller takes the probe
// token and the rest are rejected until that probe's outcome is
// recorded, so N concurrent requests never hammer a barely-recovered
// peer at once.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	default: // open
		if b.now().Before(b.until) {
			return false
		}
		b.state = BreakerHalfOpen
		b.succ = 0
		b.probing = true
		return true
	}
}

// Record feeds the outcome of an allowed request into the state
// machine.
func (b *Breaker) Record(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		if ok {
			b.fails = 0
			return
		}
		b.fails++
		if b.fails >= b.cfg.Failures {
			b.trip()
		}
	case BreakerHalfOpen:
		b.probing = false // the in-flight probe resolved; release the token
		if !ok {
			b.trip()
			return
		}
		b.succ++
		if b.succ >= b.cfg.Successes {
			b.state = BreakerClosed
			b.fails = 0
		}
	default: // open: late results from in-flight probes; ignore
	}
}

func (b *Breaker) trip() {
	b.state = BreakerOpen
	b.until = b.now().Add(b.cfg.Cooldown)
	b.fails = 0
	b.succ = 0
	b.probing = false
}

// State returns the current circuit state (open circuits past their
// cooldown still report open until a request probes them).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
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
