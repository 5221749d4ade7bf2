// Fixture a: orphan launches. The first is the exact shape the (since
// deleted) net/rpc worker's Serve loop first shipped with: RPC
// connections served by goroutines nothing waits for.
package a

import (
	"net"
	"net/rpc"
)

// serveShape accepts connections forever and leaks a goroutine per
// connection through shutdown.
func serveShape(l net.Listener, srv *rpc.Server) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go srv.ServeConn(conn) // want `goroutine is not tied to a WaitGroup`
	}
}

// bareLit launches a fire-and-forget literal.
func bareLit(work func()) {
	go func() { // want `goroutine is not tied to a WaitGroup`
		work()
	}()
}

type worker struct {
	jobs chan int
}

// loop drains a data channel but has no shutdown tie: closing jobs is a
// data-path concern, not a lifecycle one, and an int channel is not a
// stop signal.
func (w *worker) loop() {
	for range w.jobs {
	}
}

// namedUntracked launches a same-package method whose body shows no
// completion or shutdown path.
func (w *worker) namedUntracked() {
	go w.loop() // want `goroutine is not tied to a WaitGroup`
}

// tickerLoop is the replication anti-pattern the fleet work guards
// against: a periodic loop whose only exit is process death. A
// time.Ticker channel is a data channel, not a stop signal, so this
// goroutine runs through Server.Close and races teardown.
func tickerLoop(replicate func()) {
	go func() { // want `goroutine is not tied to a WaitGroup`
		for range tick() {
			replicate()
		}
	}()
}

func tick() <-chan int { return nil }
