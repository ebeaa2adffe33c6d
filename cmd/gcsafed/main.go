// Command gcsafed is the reproduction pipeline as a long-running service:
// an HTTP/JSON daemon exposing annotate, check, compile, run and the
// differential treatment matrix, backed by a bounded worker pool and a
// content-addressed artifact cache (see internal/server).
//
// Usage:
//
//	gcsafed [flags]
//
// Flags:
//
//	-addr host:port    listen address (default 127.0.0.1:7996; :0 picks a
//	                   free port, printed on startup)
//	-workers n         concurrent pipeline executions (default: the shared
//	                   parallelism degree)
//	-parallel n        shared parallelism degree: sizes the worker pool's
//	                   default and the per-request /v1/matrix treatment
//	                   fan-out (default: GCSAFETY_PARALLEL, else GOMAXPROCS)
//	-queue n           waiting requests before load shedding (default 64)
//	-cache-bytes n     artifact cache LRU budget (default 256 MiB)
//	-cache-dir path    crash-safe disk tier for the artifact cache
//	                   (default off: memory-only)
//	-max-body n        request body cap in bytes (default 1 MiB)
//	-timeout d         per-request processing ceiling (default 30s)
//	-max-steps n       per-run interpreter instruction ceiling (default 200M)
//	-faults spec       process-wide fault injection spec (see
//	                   internal/faultinject); also settable via the
//	                   GCSAFETY_FAULTS environment variable
//	-fault-seed n      seed for -faults firing schedules (default 1)
//	-allow-fault-headers
//	                   honor per-request X-Fault-Inject / X-Fault-Seed
//	                   headers (default off: header-driven injection lets
//	                   any reachable client fail or delay requests, so it
//	                   must be an explicit opt-in; -chaos enables it for
//	                   its in-process daemon)
//	-peers urls        comma-separated base URLs of the other cluster
//	                   members; joins the cache-peering cluster (default
//	                   empty: standalone). Artifact keys are owned by
//	                   exactly one member (consistent hashing); misses for
//	                   remotely owned keys ask the owner before computing
//	                   locally, and any peer failure degrades to a local
//	                   compute.
//	-advertise url     base URL the other members reach this node at
//	                   (default http://<resolved listen address>; required
//	                   in explicit form when -addr binds 0.0.0.0 or
//	                   another address peers cannot dial)
//	-chaos             run the chaos smoke suite against an in-process
//	                   daemon instead of serving: replay the pipeline
//	                   request mix under injected faults and exit 0 iff
//	                   every request ended in a clean HTTP status and the
//	                   daemon stayed healthy
//	-chaos-requests n  requests per chaos run (default 64)
//	-pprof host:port   serve net/http/pprof on a second listener (default
//	                   off; keep it on a loopback address — profiles expose
//	                   internals)
//
// Endpoints:
//
//	POST /v1/annotate  C in, KEEP_LIVE/GC_same_obj-annotated C out
//	POST /v1/check     source-checking diagnostics only
//	POST /v1/compile   one treatment cell, content-addressed-cached
//	POST /v1/run       compile (cached) + execute under deadline and budget
//	POST /v1/matrix    one generated program through the treatment matrix
//	POST /v1/peer/get  peer protocol: get-or-compute an owned artifact
//	POST /v1/peer/put  peer protocol: accept an artifact for an owned key
//	POST /v1/peer/update
//	                   admin: replace the member list (live rebalance)
//	GET  /healthz      liveness
//	GET  /readyz       readiness (503 while draining or saturated)
//	GET  /metrics      JSON counters: traffic, latency, cache, GC stats,
//	                   recovered panics, disk-tier recovery
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gcsafety/internal/cluster"
	"gcsafety/internal/faultinject"
	"gcsafety/internal/server"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:7996", "listen address")
		workers    = flag.Int("workers", 0, "concurrent pipeline executions (0 = the shared parallelism degree)")
		parallel   = flag.Int("parallel", 0, "shared parallelism degree for the worker pool and matrix fan-out (0 = GCSAFETY_PARALLEL, else GOMAXPROCS)")
		queue      = flag.Int("queue", 0, "queued requests before load shedding (0 = default 64)")
		cacheBytes = flag.Int64("cache-bytes", 0, "artifact cache byte budget (0 = default 256 MiB)")
		cacheDir   = flag.String("cache-dir", "", "crash-safe disk tier directory (empty = memory-only)")
		maxBody    = flag.Int64("max-body", 0, "request body cap in bytes (0 = default 1 MiB)")
		timeout    = flag.Duration("timeout", 0, "per-request processing ceiling (0 = default 30s)")
		maxSteps   = flag.Uint64("max-steps", 0, "per-run instruction ceiling (0 = default 200M)")
		faults     = flag.String("faults", "", "process-wide fault injection spec (empty = env/off)")
		faultSeed  = flag.Uint64("fault-seed", 1, "seed for -faults firing schedules")
		faultHdrs  = flag.Bool("allow-fault-headers", false, "honor per-request X-Fault-Inject headers (keep off on exposed addresses)")
		chaos      = flag.Bool("chaos", false, "run the chaos smoke suite and exit")
		chaosReqs  = flag.Int("chaos-requests", 64, "requests per chaos run")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (empty = off)")
		peers      = flag.String("peers", "", "comma-separated peer base URLs (empty = standalone)")
		advertise  = flag.String("advertise", "", "base URL peers reach this node at (empty = http://<listen address>)")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: gcsafed [flags]")
		os.Exit(2)
	}

	if *faults != "" {
		set, err := faultinject.Parse(*faults, *faultSeed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gcsafed: -faults: %v\n", err)
			os.Exit(2)
		}
		faultinject.SetGlobal(set)
	} else if _, err := faultinject.FromEnv(os.Getenv); err != nil {
		fmt.Fprintf(os.Stderr, "gcsafed: %s: %v\n", faultinject.EnvVar, err)
		os.Exit(2)
	}

	cfg := server.Config{
		Workers:           *workers,
		Parallel:          *parallel,
		QueueDepth:        *queue,
		CacheBytes:        *cacheBytes,
		MaxBodyBytes:      *maxBody,
		RunTimeout:        *timeout,
		MaxSteps:          *maxSteps,
		CacheDir:          *cacheDir,
		AllowFaultHeaders: *faultHdrs,
	}

	if *chaos {
		os.Exit(runChaos(cfg, *faultSeed, *chaosReqs))
	}

	// The listener comes up before the Server: with -addr :0 the advertise
	// URL (and therefore cluster membership) only exists once the kernel
	// has picked the port.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gcsafed: %v\n", err)
		os.Exit(1)
	}
	if *peers != "" {
		self := *advertise
		if self == "" {
			self = "http://" + ln.Addr().String()
		}
		p, err := cluster.New(cluster.Config{Self: self, Peers: splitList(*peers)})
		if err != nil {
			fmt.Fprintf(os.Stderr, "gcsafed: -peers: %v\n", err)
			os.Exit(2)
		}
		cfg.Peering = p
	}

	s := server.New(cfg)
	if err := s.DiskErr(); err != nil {
		// Not fatal by design: the daemon serves memory-only, but the
		// operator asked for a disk tier, so say loudly that it is absent.
		fmt.Fprintf(os.Stderr, "gcsafed: disk cache disabled: %v\n", err)
	} else if *cacheDir != "" {
		rs := s.DiskRecovery()
		fmt.Printf("gcsafed: disk cache: %d entries verified, %d quarantined, %d tmp removed\n",
			rs.Verified, rs.Quarantined, rs.TempRemoved)
	}
	if faultinject.Enabled() {
		fmt.Printf("gcsafed: fault injection active (seed %d)\n", *faultSeed)
	}

	if *pprofAddr != "" {
		// A second listener keeps profiling off the service port: the
		// pipeline mux stays exactly what handlers_test exercises, and the
		// operator can firewall the two addresses independently.
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gcsafed: -pprof: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("gcsafed: pprof listening on http://%s/debug/pprof/\n", pln.Addr())
		go func() {
			// DefaultServeMux carries the net/http/pprof registrations.
			if err := http.Serve(pln, nil); err != nil {
				fmt.Fprintf(os.Stderr, "gcsafed: pprof: %v\n", err)
			}
		}()
	}

	// The resolved address line is part of the interface: the serve-smoke
	// harness (and anyone scripting -addr :0) parses it.
	fmt.Printf("gcsafed: listening on %s\n", ln.Addr())
	logEffectiveConfig(s, *pprofAddr, *faults, *faultSeed)

	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "gcsafed: %v\n", err)
		os.Exit(1)
	case got := <-sig:
		// Flip readiness first so load balancers stop sending traffic,
		// then let in-flight work finish.
		s.StartDrain()
		fmt.Printf("gcsafed: %v, draining\n", got)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "gcsafed: shutdown: %v\n", err)
			os.Exit(1)
		}
	}
}

// splitList parses a comma-separated flag value, dropping empty items.
func splitList(s string) []string {
	var out []string
	for _, item := range strings.Split(s, ",") {
		if item = strings.TrimSpace(item); item != "" {
			out = append(out, item)
		}
	}
	return out
}

// logEffectiveConfig prints the configuration actually in force — every
// default resolved, the cluster membership as built — so an operator
// reading the log of a misbehaving node sees what it is really running
// with, not what the unit file claims.
func logEffectiveConfig(s *server.Server, pprofAddr, faults string, faultSeed uint64) {
	cfg := s.EffectiveConfig()
	fmt.Printf("gcsafed: config: workers=%d parallel=%d queue=%d timeout=%s max-steps=%d max-body=%d\n",
		cfg.Workers, cfg.Parallel, cfg.QueueDepth, cfg.RunTimeout, cfg.MaxSteps, cfg.MaxBodyBytes)
	dir := cfg.CacheDir
	if dir == "" {
		dir = "(memory-only)"
	}
	fmt.Printf("gcsafed: config: cache-bytes=%d cache-dir=%s\n", cfg.CacheBytes, dir)
	if faults == "" {
		faults = "(off)"
	}
	fmt.Printf("gcsafed: config: faults=%s fault-seed=%d allow-fault-headers=%v\n",
		faults, faultSeed, cfg.AllowFaultHeaders)
	if pprofAddr != "" {
		fmt.Printf("gcsafed: config: pprof=%s\n", pprofAddr)
	}
	if p := s.Peering(); p != nil {
		fmt.Printf("gcsafed: config: cluster self=%s members=%s\n",
			p.Self(), strings.Join(p.Members(), ","))
	} else {
		fmt.Printf("gcsafed: config: cluster=standalone\n")
	}
}
