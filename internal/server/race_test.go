//go:build race

package server

// Under the race detector sync.Pool drops a quarter of what it is
// handed, at random, so about one request in four starts from a new
// wireBuf whose body buffer and Scratch grow afresh, about 32
// allocations each: eight a request on average over 200 requests, with
// a spread of one. Fourteen bounds it six spreads above the mean.
func init() { racePoolAllocs = 14 }
