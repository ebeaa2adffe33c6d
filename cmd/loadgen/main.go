// Command loadgen drives a gcsafed node or cluster with a deterministic
// mixed /v1/* workload and reports availability and dedup effectiveness.
// It is the measurement half of the cluster-smoke gate: under chaos fault
// rotation and a kill -9 mid-run, the cluster must keep answering (≥99%
// of logical requests succeed) and must not melt into recompute storms
// (cluster-wide compute count stays near the distinct-artifact baseline).
//
// Usage:
//
//	loadgen -targets url[,url...] [flags]
//
// Flags:
//
//	-targets urls     comma-separated base URLs of the nodes under load
//	                  (required)
//	-requests n       logical requests in the mixed phase (default 800)
//	-duration d       minimum mixed-phase duration; sampling continues
//	                  past -requests until it elapses (default 0)
//	-concurrency n    in-flight logical requests (default 16)
//	-sources n        distinct generated source programs; the distinct-
//	                  artifact universe is 3 cells per source (default 32)
//	-seed n           workload seed; same seed, same mix (default 1)
//	-warm n           warmup passes issuing every distinct cell once per
//	                  pass, rotating targets, before the mixed phase
//	                  (default 1; 0 = cold start)
//	-chaos-every n    attach a rotating graceful-degradation fault header
//	                  to every nth mixed request (0 = off; the targets
//	                  must run -allow-fault-headers)
//	-min-ok ratio     exit 1 if the logical-success ratio ends below this
//	                  (default 0 = report only)
//	-json             print the report as JSON on stdout (default: text)
//
// A logical request fails over across targets: a transport error or 5xx
// from one node sends the same request to the next, and only a request
// that exhausts every target (or draws a 4xx) counts as failed. That is
// the availability contract a load balancer in front of the cluster
// would provide, so it is what the gate measures.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gcsafety/internal/client"
	"gcsafety/internal/server"
)

// chaosRotation is the graceful-degradation fault mix: peer-link severs
// (the cluster must fall back to local computes, not fail) and handler
// latency. Deliberately no compute-path or handler error faults — those
// make 5xx the *correct* response, and this tool's gate is that 5xx never
// happens.
var chaosRotation = []string{
	"cluster.peer.get=error,msg=chaos-sever",
	"cluster.peer.put=error,msg=chaos-sever",
	"server.handler=sleep,ms=2",
	"cluster.peer.get=error,p=0.5;cluster.peer.put=error,p=0.5",
}

// reqT is one request template from the deterministic workload universe.
type reqT struct {
	path string
	body map[string]any
}

// universe builds the request templates for n sources. Each source
// contributes four templates (annotate, check, compile, run) and three
// distinct compute cells: its annotate options cell, the check cell
// (annotate with strict casts), and its compile cell (run reuses it).
func universe(n int) (templates []reqT, distinctCells int) {
	modes := []string{"safe", "checked", "temporal"}
	machines := []string{"ss10", "ss2", "p90"}
	for i := 0; i < n; i++ {
		src := fmt.Sprintf(
			"int main() { int i; int s; s = 0; for (i = 0; i < %d; i++) { s = s + i; } return s %% 256; }",
			10+i)
		name := fmt.Sprintf("gen%d.c", i)
		annotate := modes[i%len(modes)]
		elide := i%2 == 1
		templates = append(templates,
			reqT{"/v1/annotate", map[string]any{"name": name, "source": src, "mode": annotate, "elide": elide}},
			reqT{"/v1/check", map[string]any{"name": name, "source": src}},
			reqT{"/v1/compile", map[string]any{
				"name": name, "source": src, "machine": machines[i%len(machines)],
				"annotate": annotate, "optimize": i%2 == 0, "elide": elide,
			}},
			reqT{"/v1/run", map[string]any{
				"name": name, "source": src, "machine": machines[i%len(machines)],
				"annotate": annotate, "optimize": i%2 == 0, "gc_every": 64, "elide": elide,
			}},
		)
	}
	return templates, 3 * n
}

// TargetReport is one node's scrape in the final report.
type TargetReport struct {
	Target      string `json:"target"`
	Compiles    uint64 `json:"compiles"`
	Annotations uint64 `json:"annotations"`
	Unreachable bool   `json:"unreachable,omitempty"`
}

// Report is the machine-readable outcome (stdout under -json).
type Report struct {
	Targets       []string `json:"targets"`
	WarmRequests  uint64   `json:"warm_requests"`
	MixedRequests uint64   `json:"mixed_requests"`
	Requests      uint64   `json:"requests"` // warm + mixed
	OK            uint64   `json:"ok"`
	HTTP4xx       uint64   `json:"http_4xx"`
	HTTP5xx       uint64   `json:"http_5xx"` // final status of failed logical requests
	TransportErrs uint64   `json:"transport_errors"`
	Failovers     uint64   `json:"failovers"`
	ChaosInjected uint64   `json:"chaos_injected"`
	OKRatio       float64  `json:"ok_ratio"`
	DistinctCells int      `json:"distinct_cells"`
	DurationMs    int64    `json:"duration_ms"`
	// Computes sums compiles+annotations across the reachable targets:
	// how many times the cluster really did the work. Compare against
	// DistinctCells (the perfect-dedup baseline). A node that died during
	// the run is reported unreachable with zero counts — the caller must
	// account for its computes from its own earlier scrape.
	Computes    uint64         `json:"computes"`
	PerTarget   []TargetReport `json:"per_target"`
	Unreachable int            `json:"unreachable"`
}

// loader runs the workload: one client (retries, backoff, per-target
// breaker) per node, shared counters.
type loader struct {
	targets []string
	clients []*client.Client

	ok, c4xx, c5xx, transport, failovers, chaos atomic.Uint64
}

func newLoader(targets []string) *loader {
	l := &loader{targets: targets}
	for i, t := range targets {
		l.clients = append(l.clients, client.New(t, client.Config{
			MaxAttempts:      2,
			BaseBackoff:      20 * time.Millisecond,
			MaxBackoff:       200 * time.Millisecond,
			HTTPClient:       &http.Client{Timeout: 10 * time.Second},
			BreakerThreshold: 4,
			BreakerCooldown:  500 * time.Millisecond,
			JitterSeed:       uint64(i + 1),
		}))
	}
	return l
}

// doLogical runs one logical request: try the start target, fail over on
// transport errors and 5xx, stop on success or 4xx. Reports success.
func (l *loader) doLogical(ctx context.Context, t reqT, start int, chaosSpec string) bool {
	var hdr map[string]string
	if chaosSpec != "" {
		hdr = map[string]string{"X-Fault-Inject": chaosSpec}
		l.chaos.Add(1)
	}
	lastStatus := 0
	for j := 0; j < len(l.clients); j++ {
		cl := l.clients[(start+j)%len(l.clients)]
		status, err := cl.PostJSON(ctx, t.path, hdr, t.body, nil)
		if err == nil {
			l.ok.Add(1)
			return true
		}
		if status >= 400 && status < 500 {
			l.c4xx.Add(1)
			return false
		}
		lastStatus = status
		if j < len(l.clients)-1 {
			l.failovers.Add(1)
		}
	}
	if lastStatus >= 500 {
		l.c5xx.Add(1)
	} else {
		l.transport.Add(1)
	}
	return false
}

func main() {
	var (
		targetsFlag = flag.String("targets", "", "comma-separated base URLs (required)")
		requests    = flag.Int("requests", 800, "logical requests in the mixed phase")
		duration    = flag.Duration("duration", 0, "minimum mixed-phase duration")
		concurrency = flag.Int("concurrency", 16, "in-flight logical requests")
		sources     = flag.Int("sources", 32, "distinct generated source programs")
		seed        = flag.Int64("seed", 1, "workload seed")
		warm        = flag.Int("warm", 1, "warmup passes over every distinct cell")
		chaosEvery  = flag.Int("chaos-every", 0, "fault header on every nth mixed request (0 = off)")
		minOK       = flag.Float64("min-ok", 0, "exit 1 if the success ratio ends below this")
		asJSON      = flag.Bool("json", false, "print the report as JSON")
	)
	flag.Parse()
	targets := splitList(*targetsFlag)
	if len(targets) == 0 || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: loadgen -targets url[,url...] [flags]")
		os.Exit(2)
	}

	templates, distinct := universe(*sources)
	l := newLoader(targets)
	ctx := context.Background()
	startAt := time.Now()
	var warmN, mixedN uint64

	// Warm phase: every template once per pass, each pass shifting which
	// node fields which request, so artifacts spread across member caches
	// (the redundancy that keeps a later kill -9 from forcing recomputes).
	if *warm > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: warm phase: %d templates x %d passes over %d targets\n",
			len(templates), *warm, len(targets))
		var wg sync.WaitGroup
		sem := make(chan struct{}, *concurrency)
		for pass := 0; pass < *warm; pass++ {
			for i, t := range templates {
				wg.Add(1)
				sem <- struct{}{}
				warmN++
				go func(t reqT, start int) {
					defer wg.Done()
					defer func() { <-sem }()
					l.doLogical(ctx, t, start, "")
				}(t, (i+pass)%len(targets))
			}
		}
		wg.Wait()
	}

	// Mixed phase: uniform sampling from the template universe, target
	// round-robin by request index, optional chaos header rotation. Runs
	// until both the request budget and the minimum duration are spent.
	fmt.Fprintf(os.Stderr, "loadgen: mixed phase: %d+ requests, chaos-every=%d\n", *requests, *chaosEvery)
	rng := rand.New(rand.NewSource(*seed))
	var wg sync.WaitGroup
	sem := make(chan struct{}, *concurrency)
	mixedStart := time.Now()
	for i := 0; int(mixedN) < *requests || time.Since(mixedStart) < *duration; i++ {
		t := templates[rng.Intn(len(templates))]
		spec := ""
		if *chaosEvery > 0 && i%*chaosEvery == *chaosEvery-1 {
			spec = chaosRotation[(i / *chaosEvery)%len(chaosRotation)]
		}
		wg.Add(1)
		sem <- struct{}{}
		mixedN++
		go func(t reqT, start int, spec string) {
			defer wg.Done()
			defer func() { <-sem }()
			l.doLogical(ctx, t, start, spec)
		}(t, i%len(targets), spec)
	}
	wg.Wait()

	rep := Report{
		Targets:       targets,
		WarmRequests:  warmN,
		MixedRequests: mixedN,
		Requests:      warmN + mixedN,
		OK:            l.ok.Load(),
		HTTP4xx:       l.c4xx.Load(),
		HTTP5xx:       l.c5xx.Load(),
		TransportErrs: l.transport.Load(),
		Failovers:     l.failovers.Load(),
		ChaosInjected: l.chaos.Load(),
		DistinctCells: distinct,
		DurationMs:    time.Since(startAt).Milliseconds(),
	}
	if rep.Requests > 0 {
		rep.OKRatio = float64(rep.OK) / float64(rep.Requests)
	}
	for i, target := range targets {
		var snap server.Snapshot
		tr := TargetReport{Target: target}
		if _, err := l.clients[i].GetJSON(ctx, "/metrics", &snap); err != nil {
			tr.Unreachable = true
			rep.Unreachable++
		} else {
			tr.Compiles, tr.Annotations = snap.Compiles, snap.Annotations
			rep.Computes += snap.Compiles + snap.Annotations
		}
		rep.PerTarget = append(rep.PerTarget, tr)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rep)
	} else {
		fmt.Printf("loadgen: %d requests (%d warm, %d mixed): %d ok (%.2f%%), %d 4xx, %d 5xx, %d transport, %d failovers\n",
			rep.Requests, rep.WarmRequests, rep.MixedRequests, rep.OK, rep.OKRatio*100,
			rep.HTTP4xx, rep.HTTP5xx, rep.TransportErrs, rep.Failovers)
		fmt.Printf("loadgen: computes %d across %d reachable nodes (distinct cells %d)\n",
			rep.Computes, len(targets)-rep.Unreachable, rep.DistinctCells)
	}
	if *minOK > 0 && rep.OKRatio < *minOK {
		fmt.Fprintf(os.Stderr, "loadgen: FAIL: ok ratio %.4f below -min-ok %.4f\n", rep.OKRatio, *minOK)
		os.Exit(1)
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
