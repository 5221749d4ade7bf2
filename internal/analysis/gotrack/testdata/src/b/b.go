// Fixture b: tracked launches — the serving layer's own idioms.
package b

import (
	"context"
	"net"
	"net/rpc"
	"sync"
)

type server struct {
	stop chan struct{}
	done chan struct{}
}

// writer signals completion by closing done, the way the single-writer
// goroutine does; Close waits on it.
func (s *server) writer() {
	defer close(s.done)
	for {
		select {
		case <-s.stop:
			return
		}
	}
}

func (s *server) start() {
	go s.writer()
}

// addDone is the classic WaitGroup triple.
func addDone(work func()) *sync.WaitGroup {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		work()
	}()
	return &wg
}

// serveTracked is that Serve loop after the fix: every connection
// goroutine registered before launch, drained before return.
func serveTracked(l net.Listener, srv *rpc.Server) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.ServeConn(conn)
		}()
	}
}

// evalShape is a request-scoped helper (fleet's hedged shard request has
// this shape): its work is scoped to the request context, which cancels
// its callees.
func evalShape(ctx context.Context, eval func(context.Context) int) int {
	ch := make(chan int, 1)
	go func() {
		ch <- eval(ctx)
	}()
	select {
	case v := <-ch:
		return v
	case <-ctx.Done():
		return 0
	}
}

// stopChan ties the goroutine to a struct{} stop channel.
func stopChan(stop chan struct{}, work func()) {
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				work()
			}
		}
	}()
}

// replicatorShape is internal/server's fleet replicator: a long-lived
// periodic loop that closes its done-channel on exit and selects on a
// struct{} stop signal alongside its tick/kick channels.
func (s *server) replicatorShape(tick <-chan int, replicate func()) {
	defer close(s.done)
	for {
		select {
		case <-s.stop:
			return
		case <-tick:
			replicate()
		}
	}
}

func (s *server) startReplicator(tick <-chan int, replicate func()) {
	go s.replicatorShape(tick, replicate)
}
