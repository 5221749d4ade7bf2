//go:build race

package fleet

// Under the race detector encoding/json's scanner and the recorder's
// buffer allocate once more per routed query than they do without it.
func init() { raceAllocs = 1 }
