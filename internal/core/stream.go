package core

import "math/rand"

// stream is a seeded random stream that knows how far it has been
// read, so that a snapshot can record the position and a restored
// system can carry on drawing where the saved one stopped. The numbers
// are those of rand.New(rand.NewSource(seed)): the counter sits between
// the generator and the *rand.Rand and changes no draw.
type stream struct {
	*rand.Rand
	src counter
}

func newStream(seed int64) *stream {
	s := &stream{src: counter{Source64: rand.NewSource(seed).(rand.Source64), seed: seed}}
	s.Rand = rand.New(&s.src)
	return s
}

// pos is the number of values drawn since the seed.
func (s *stream) pos() uint64 { return s.src.n }

// seek rewinds the stream to its seed and advances it to pos. Every
// rand.Rand method costs whole source values and the source steps once
// per value whichever of its methods is asked, so the count alone
// fixes the state. The cost is a few nanoseconds per draw since the
// seed — thousands to millions of draws in a long-lived system.
func (s *stream) seek(pos uint64) {
	s.src.Seed(s.src.seed)
	for s.src.n < pos {
		s.src.Uint64()
	}
}

// counter is a rand.Source64 that counts the values it hands out.
type counter struct {
	rand.Source64
	seed int64
	n    uint64
}

func (c *counter) Int63() int64   { c.n++; return c.Source64.Int63() }
func (c *counter) Uint64() uint64 { c.n++; return c.Source64.Uint64() }
func (c *counter) Seed(seed int64) {
	c.seed, c.n = seed, 0
	c.Source64.Seed(seed)
}
