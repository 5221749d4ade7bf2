// Command alexrouter fronts a fleet of alexd shards: it consistent-
// hashes /feedback writes to the shard owning each link's dataset-1
// entity and sends each /query to one shard — every shard holds a full
// read replica — relaying that shard's answer byte for byte, so clients
// see exactly what a single alexd over the same data would return. The
// router is stateless — all durable state lives in the shards'
// journals — so any number of routers can front one fleet.
//
// Route a three-shard fleet (same address list the shards were given
// via -fleet, in shard-ID order):
//
//	alexrouter -addr :8080 \
//	  -shards localhost:8081,localhost:8082,localhost:8083
//
// Every request the router sends a shard is one attempt; a failed
// request or /healthz probe marks the shard down, and its own probe
// loop brings it back on the first good answer. Down shards are routed
// around: reads keep working off any live shard's replicated full view,
// a query whose shard fails is asked of the next routable shard once, a
// query whose shard hangs ends at its deadline, and writes for a down
// shard's range get 503 + Retry-After until it recovers.
//
// Endpoints: POST /query, POST /feedback, GET /links, GET /healthz,
// GET /metrics — the same wire contract as alexd, so fedquery and
// alexload point at the router unchanged.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"alex/internal/fleet"
	"alex/internal/pprofserve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	shards := flag.String("shards", "", "comma-separated alexd shard addresses, in shard-ID order (required)")
	healthInterval := flag.Duration("health-interval", time.Second, "shard /healthz poll interval")
	queryTimeout := flag.Duration("query-timeout", 10*time.Second, "deadline per /query, failover included")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (off when empty)")
	flag.Parse()

	if pa, err := pprofserve.Start(*pprofAddr); err != nil {
		fatal(err)
	} else if pa != "" {
		log.Printf("pprof on http://%s/debug/pprof/", pa)
	}

	if *shards == "" {
		fmt.Fprintln(os.Stderr, "alexrouter: -shards is required")
		flag.Usage()
		os.Exit(2)
	}
	var addrs []string
	for _, a := range strings.Split(*shards, ",") {
		addrs = append(addrs, strings.TrimSpace(a))
	}

	r, err := fleet.New(fleet.Config{
		Shards:         addrs,
		HealthInterval: *healthInterval,
		QueryTimeout:   *queryTimeout,
	})
	if err != nil {
		fatal(err)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: r.Handler()}
	go func() {
		log.Printf("alexrouter serving on %s over %d shards", *addr, len(addrs))
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			fatal(err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("shutting down...")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("alexrouter: http shutdown: %v", err)
	}
	if err := r.Close(); err != nil {
		log.Printf("alexrouter: %v", err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "alexrouter: %v\n", err)
	os.Exit(1)
}
