package main

import "time"

// The sandbox does not run at one speed. Its clock moves between two
// turbo states that last seconds to tens of seconds each (the same
// register-only loop takes 716 µs, then 912 µs), and on top of that the
// core's other hyperthread and the shared caches are sometimes busy with
// a neighbour's work, which slows real code by another 10-30 % for as
// long. Identical code differs by up to 28 % from one run to the next,
// and no order statistic over a 12 s run removes a state that outlasts
// the run. So every timing is reported in units of a yardstick: measured
// time × (unitNsPerIter / the yardstick's cost per iteration measured
// alongside). AA.md has both readings of the same runs side by side.
//
// The yardstick (spin) has to slow down when real code does. Four
// independent chains of loads, multiplies and xors at random places in
// 512 KB keep several execution ports busy and miss L1 on most loads, so
// a busy sibling thread and a contended L2/L3 slow it as they slow a
// server; a dependent chain in registers only saw the clock, and left
// 11-13 % run-to-run spread on feedback_durable where this leaves 3-4 %
// (README, "Load model", has the table).
//
// unitNsPerIter is not a property of a host. It fixes the unit — a
// reported µs is the time in which the yardstick gets through 1000/5 =
// 200 iterations — which on this sandbox is between 0.7 and 1.4
// wall-clock µs, depending on the state it is in. It cannot be measured
// at run time instead: whatever reference a run measures for itself
// moves with the state the run happens to sit in, which is the variation
// to be removed. On another kind of host every time shifts by one
// constant factor; parent and change are always measured on the same
// kind.
const (
	calibIters    = 50_000 // one spin, ~0.3 ms
	unitNsPerIter = 5.0
	// calibEvery is how often a timed loop stops between two calls for
	// one spin: ~0.3 ms in every 6, so the speed a stretch is scaled by
	// was measured all through it.
	calibEvery = 6 * time.Millisecond
)

var (
	spinBuf  [1 << 16]uint64 // 512 KB
	spinSink uint64
)

// spin runs iters rounds of the yardstick and returns how long they
// took.
func spin(iters int) time.Duration {
	start := time.Now()
	var a, b, c, d uint64 = 1, 2, 3, 4
	x := uint64(88172645463325252)
	const mask = uint64(len(spinBuf) - 1)
	for i := 0; i < iters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		j := (x >> 33) & mask
		a += spinBuf[j] * 3
		b ^= spinBuf[(j+17)&mask] + uint64(i)
		c += spinBuf[(j*7)&mask] ^ 5
		d ^= spinBuf[(j+4099)&mask] * 7
		spinBuf[(j+1)&mask] = a
	}
	spinSink += a + b + c + d
	return time.Since(start)
}

// cpuClock accumulates spins taken while something else is being timed.
type cpuClock struct {
	spent time.Duration // inside spins; the caller takes it off its own wall and CPU time
	iters int64
	last  time.Duration // the latest spin
	next  time.Time
}

func (c *cpuClock) sample() {
	c.last = spin(calibIters)
	c.spent += c.last
	c.iters += calibIters
}

// tick is called between two timed calls of a loop and spins when
// calibEvery has passed since the last spin (and on the first call). It
// reports whether it did.
func (c *cpuClock) tick() bool {
	if now := time.Now(); now.Before(c.next) {
		return false
	}
	c.sample()
	c.next = time.Now().Add(calibEvery)
	return true
}

// speedBetween is the speed of a stretch that lay between a spin that
// took prev and the latest one.
func (c *cpuClock) speedBetween(prev time.Duration) float64 {
	return unitNsPerIter * 2 * calibIters / float64((prev + c.last).Nanoseconds())
}

// speed is how fast the host ran over the samples, in units: a time
// measured alongside, multiplied by it, is that time in reported units.
// It is the mean over the spins, stalls included: what stalls a spin
// stalls the calls between the spins as often. 1 without samples.
func (c *cpuClock) speed() float64 {
	if c.iters == 0 {
		return 1
	}
	return unitNsPerIter * float64(c.iters) / float64(c.spent.Nanoseconds())
}

// Set-up is another kind of work: one computation of seconds over its
// own data (core.New is 96 % of it), which cannot be interleaved with
// spins by hand and which a busy sibling thread barely slows. Scaled by
// the yardstick above, 24 set-ups in a row spread by 12 % as they did
// unscaled; scaled by a dependent chain in registers, which sees the
// core's clock and nothing else, the median of each three spread by
// 1.2 %. So set-up, and the restart after a crash, have a yardstick of
// their own, with its own unit (a reported second is 1e9/1.9 rounds of
// the chain).
const (
	chainIters         = 250_000 // one spin, ~0.4 ms
	chainUnitNsPerIter = 1.9
)

func chainSpin() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < chainIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink += x
	return time.Since(start)
}

// alongside runs fn while a second goroutine takes one chainSpin every
// calibEvery. On the one P the two take turns (a goroutine that computes
// without pause is preempted every 10 ms), so the spins land all through
// fn. It returns the speed by the median spin — a stall that hits one
// spin in a hundred says nothing about the other ninety-nine — and the
// time the spins took, which fn's caller takes off what it clocked.
func alongside(fn func()) (speed float64, spent time.Duration) {
	var spins []float64
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			d := chainSpin()
			spent += d
			spins = append(spins, float64(d.Nanoseconds()))
			select {
			case <-stop:
				return
			case <-time.After(calibEvery):
			}
		}
	}()
	fn()
	close(stop)
	<-done
	return chainUnitNsPerIter * chainIters / median(sortedCopy(spins)), spent
}

// calibrate is 100 spins in ms, as the clock read them: what the host
// did before and after a traced run.
func calibrate() float64 { return float64(spin(100*calibIters).Nanoseconds()) / 1e6 }
