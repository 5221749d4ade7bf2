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
// A health loop probes every shard's /healthz; dead shards are routed
// around behind a circuit breaker (reads keep working off any live
// shard's replicated full view, and a query whose shard fails or stalls
// is hedged to a peer; writes for a dead shard's range get 503 +
// Retry-After until it recovers).
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

	"alex/internal/federation"
	"alex/internal/fleet"
	"alex/internal/pprofserve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	shards := flag.String("shards", "", "comma-separated alexd shard addresses, in shard-ID order (required)")
	healthInterval := flag.Duration("health-interval", time.Second, "shard /healthz poll interval")
	queryTimeout := flag.Duration("query-timeout", 10*time.Second, "deadline per /query, failover included")
	healthProbeTimeout := flag.Duration("health-probe-timeout", 0, "deadline per shard /healthz probe (0 = 2s default)")
	hedgeDelay := flag.Duration("hedge-delay", 0, "fixed delay before hedging a slow query to a peer (0 = adaptive p95)")
	noHedge := flag.Bool("no-hedge", false, "disable hedged failover reads")
	breakerFailures := flag.Int("breaker-failures", 5, "consecutive shard failures that open its circuit breaker")
	breakerCooldown := flag.Duration("breaker-cooldown", 5*time.Second, "open-circuit cooldown before a half-open probe")
	breakerSuccesses := flag.Int("breaker-successes", 2, "half-open successes required to close the breaker")
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
		Shards:             addrs,
		HealthInterval:     *healthInterval,
		QueryTimeout:       *queryTimeout,
		HealthProbeTimeout: *healthProbeTimeout,
		Hedge:              fleet.HedgeConfig{Disabled: *noHedge, Delay: *hedgeDelay},
		Breaker: federation.BreakerConfig{
			Failures:  *breakerFailures,
			Cooldown:  *breakerCooldown,
			Successes: *breakerSuccesses,
		},
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
