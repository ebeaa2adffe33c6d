package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gcsafety"
	"gcsafety/internal/fuzz"
	"gcsafety/internal/gcsafe"
	"gcsafety/internal/interp"
	"gcsafety/internal/machine"
	"gcsafety/internal/pipeline"
	"gcsafety/internal/server"
)

// The daemon-mix request mix, in percent of requests: cached runs of a
// small pool of repeated programs, runs of fresh programs (compile and
// cache writes), and annotate-only checks of fresh programs.
const (
	hitPct   = 70
	freshPct = 20
	poolSize = 16
	clients  = 2
	// replayedRequests is how many requests the traced run replays.
	replayedRequests = 40
)

type reqKind int

const (
	kindHit reqKind = iota
	kindFresh
	kindCheck
)

var kindNames = [...]string{"hit", "fresh", "check"}

// mixRequest is request j of the seeded sequence.
type mixRequest struct {
	kind reqKind
	prog *fuzz.Program
}

// requestAt draws request j: the kind and the program come from a hash of
// the seed and j, so the sequence is fixed whatever the timing. Fresh
// programs are numbered after the pool, so no two requests of a run share
// a fresh program.
func requestAt(seed int64, j int64, pool []*fuzz.Program) mixRequest {
	h := splitmix(uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(j))
	u := h % 100
	switch {
	case u < hitPct:
		return mixRequest{kind: kindHit, prog: pool[(h/100)%poolSize]}
	case u < hitPct+freshPct:
		return mixRequest{kind: kindFresh}
	}
	return mixRequest{kind: kindCheck}
}

// program fills in a fresh request's program (kept out of the timed
// request: the generator is the client's work, not the daemon's).
func (m *mixRequest) program(seed, j int64) {
	if m.prog == nil {
		m.prog = gcsafety.GenerateProgram(programSeed(seed, poolSize+int(j)), genSteps)
	}
}

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func (m mixRequest) path() string {
	if m.kind == kindCheck {
		return "/v1/check"
	}
	return "/v1/run"
}

func (m mixRequest) body() []byte {
	var v any = server.CheckRequest{Name: "gen.c", Source: m.prog.Source}
	if m.kind != kindCheck {
		v = server.RunRequest{CompileRequest: server.CompileRequest{
			Name: "gen.c", Source: m.prog.Source, Annotate: "safe", Optimize: true,
		}}
	}
	b, _ := json.Marshal(v) // plain structs of strings and scalars always marshal
	return b
}

// verify checks a response against the generator's reference model: a
// run prints the model's output without a fault, and a check of a
// generated program (which converts no integer to a pointer) is clean.
func (m mixRequest) verify(status int, body []byte) (*server.RunResponse, string) {
	if status != http.StatusOK {
		return nil, fmt.Sprintf("%s: HTTP %d: %s", m.path(), status, bytes.TrimSpace(body))
	}
	if m.kind == kindCheck {
		var c server.CheckResponse
		if err := json.Unmarshal(body, &c); err != nil {
			return nil, fmt.Sprintf("check: %v", err)
		}
		if !c.Clean || len(c.Warnings) > 0 {
			return nil, fmt.Sprintf("check %s: %d warnings on a clean program", m.prog.Label, len(c.Warnings))
		}
		return nil, ""
	}
	var rr server.RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		return nil, fmt.Sprintf("run: %v", err)
	}
	if rr.Fault != "" || rr.Output != m.prog.Want {
		return nil, fmt.Sprintf("run %s: output differs from the model (fault %q)", m.prog.Label, rr.Fault)
	}
	return &rr, ""
}

// daemonConfig is the daemon's configuration: the defaults, with an
// artifact cache small enough that the stream of fresh programs fills it
// within the first seconds, so the timed window sees the cache in its
// steady state (evicting) rather than growing through the run.
var daemonConfig = server.Config{CacheBytes: 16 << 20}

// daemon is an in-process gcsafed on a loopback listener.
type daemon struct {
	srv    *server.Server
	http   *http.Server
	url    string
	served chan error
}

func startDaemon() (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{srv: server.New(daemonConfig), url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	d.http = &http.Server{Handler: d.srv.Handler()}
	go func() { d.served <- d.http.Serve(ln) }()
	return d, nil
}

// stop closes the listener and every connection and waits for Serve to
// return.
func (d *daemon) stop() {
	d.http.Close()
	<-d.served
}

// client is one closed-loop client with one keep-alive connection.
type client struct{ hc *http.Client }

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}}
}

func (c *client) post(url string, body []byte) (int, []byte, error) {
	resp, err := c.hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// warmPool runs every pool program once, so the mix's cached runs hit.
func warmPool(c *client, url string, pool []*fuzz.Program) error {
	for _, p := range pool {
		m := mixRequest{kind: kindHit, prog: p}
		status, body, err := c.post(url+m.path(), m.body())
		if err != nil {
			return err
		}
		if _, pr := m.verify(status, body); pr != "" {
			return errors.New(pr)
		}
	}
	return nil
}

// daemonMix drives an in-process daemon with two closed-loop clients, each
// sending its next request when the previous reply has arrived, as the
// daemon's callers (fuzz campaigns, load generators, CI) do. One operation
// is one request.
func daemonMix(opt options) (*report, error) {
	r := &report{}
	pool := make([]*fuzz.Program, poolSize)
	for i := range pool {
		pool[i] = gcsafety.GenerateProgram(programSeed(opt.seed, i), genSteps)
	}
	// Set-up stops the previous set-up's daemon, starts one and warms its
	// pool; the last one serves the timed window.
	var d *daemon
	setup, err := opt.setUp(func() error {
		if d != nil {
			d.stop()
		}
		var err error
		if d, err = startDaemon(); err != nil {
			return err
		}
		c := newClient()
		defer c.close()
		if err := warmPool(c, d.url, pool); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		return nil
	})
	if d != nil {
		defer d.stop()
	}
	if err != nil {
		return nil, err
	}

	type sample struct {
		kind reqKind
		ms   float64
		done time.Duration // completion, since the window opened
	}
	cache0, stages0 := d.srv.CacheStats(), d.srv.PipelineStats()
	var next atomic.Int64
	results := make([][]sample, clients)
	problems := make([][]string, clients)
	win := openWindow()
	deadline := win.start.Add(time.Duration(opt.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.close()
			for time.Now().Before(deadline) {
				j := next.Add(1) - 1
				m := requestAt(opt.seed, j, pool)
				m.program(opt.seed, j)
				body := m.body()
				t0 := time.Now()
				status, resp, err := c.post(d.url+m.path(), body)
				ms := float64(time.Since(t0)) / 1e6
				results[ci] = append(results[ci], sample{m.kind, ms, time.Since(win.start)})
				pr := ""
				if err != nil {
					pr = err.Error()
				} else {
					_, pr = m.verify(status, resp)
				}
				if pr != "" {
					problems[ci] = append(problems[ci], pr)
				}
			}
		}()
	}
	wg.Wait()
	win.close()
	cache1, stages1 := d.srv.CacheStats(), d.srv.PipelineStats()

	var all, runs, checks, hits, fresh []float64
	var done []time.Duration
	for _, rs := range results {
		for _, s := range rs {
			all = append(all, s.ms)
			done = append(done, s.done)
			switch s.kind {
			case kindHit:
				hits = append(hits, s.ms)
				runs = append(runs, s.ms)
			case kindFresh:
				fresh = append(fresh, s.ms)
				runs = append(runs, s.ms)
			case kindCheck:
				checks = append(checks, s.ms)
			}
		}
	}
	r.attempted = len(all)
	for _, ps := range problems {
		for _, p := range ps {
			r.fail("%s", p)
		}
	}

	sim, simLayer, err := simulated(r)
	if err != nil {
		return nil, err
	}
	ops := summarise(all)
	r.setE2E(setup, win, ops, done, sim)
	run := summarise(runs)
	r.human = append(r.human, metric{"run_rps", float64(len(runs)) / win.elapsed.Seconds(), "1/s"})
	r.human = append(r.human, metric{"run_p50_ms", run.p50, "ms"}, metric{"run_tail_ms", run.tail, "ms"})
	r.human = append(r.human, run.tailNote("run")...)
	r.human = append(r.human,
		metric{"check_p50_ms", summarise(checks).p50, "ms"},
		metric{"hit_p50_ms", summarise(hits).p50, "ms"},
		metric{"fresh_p50_ms", summarise(fresh).p50, "ms"},
	)
	var shed float64
	if snap, err := metricsSnapshot(d.url); err != nil {
		r.fail("/metrics: %v", err)
	} else {
		shed = float64(snap.Shed)
	}
	var stageHits, stageCalls float64
	for i := range stages1 {
		stageHits += float64(stages1[i].Hits - stages0[i].Hits)
		stageCalls += float64(stages1[i].Calls - stages0[i].Calls)
	}
	hitsN := float64(cache1.Hits - cache0.Hits)
	r.layer = append(r.layer,
		metric{"artifact.hit_frac", hitsN / (hitsN + float64(cache1.Misses-cache0.Misses)), "1"},
		metric{"pipeline.stage_hit_frac", stageHits / stageCalls, "1"},
		metric{"server.shed", shed, "count"},
		metric{"host.gc_cpu_frac", win.gcCPUFrac(), "1"},
	)
	r.layer = append(r.layer, simLayer...)
	if !opt.trace {
		return r, nil
	}
	overhead, err := httpOverhead(d, pool)
	if err != nil {
		return nil, err
	}
	r.layer = append(r.layer, metric{"server.http_overhead_ms", overhead, "ms"})
	p := pool[0]
	cold, warm, _, err := pipelineProbe("gen.c", p.Source, []pipeline.Options{
		{Annotate: true, Optimize: true, Machine: machine.SPARCstation10()},
	})
	if err != nil {
		return nil, err
	}
	r.layer = append(r.layer, metric{"pipeline.build_cold_ms", cold, "ms"}, metric{"pipeline.build_warm_ms", warm, "ms"})
	// Replay a seeded sample of the positions the window reached.
	rng := rand.New(rand.NewSource(opt.seed))
	var js []int64
	for _, j := range rng.Perm(len(all))[:min(replayedRequests, len(all))] {
		js = append(js, int64(j))
	}
	sort.Slice(js, func(a, b int) bool { return js[a] < js[b] })
	layer, spans, err := replayTraced("daemon-mix", func(tr *tracer) (*chain, int, error) {
		return replayRequests(tr, opt.seed, pool, js)
	})
	if err != nil {
		return nil, err
	}
	r.layer = append(r.layer, layer...)
	r.spans = spans
	return r, nil
}

func metricsSnapshot(url string) (*server.Snapshot, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var s server.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil, err
	}
	return &s, nil
}

// serve sends one request straight to the daemon's handler, without the
// HTTP hop.
func serve(h http.Handler, m mixRequest) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, m.path(), bytes.NewReader(m.body())))
	return rec.Code, rec.Body.Bytes()
}

// httpOverhead is the loopback HTTP hop's share of a cached run: the
// median latency through a client less the median time in the handler,
// over the same requests, alternated.
func httpOverhead(d *daemon, pool []*fuzz.Program) (float64, error) {
	c := newClient()
	defer c.close()
	var viaHTTP, direct []float64
	for i := 0; i < 4*poolSize; i++ {
		m := mixRequest{kind: kindHit, prog: pool[i%poolSize]}
		t0 := time.Now()
		status, body, err := c.post(d.url+m.path(), m.body())
		viaHTTP = append(viaHTTP, float64(time.Since(t0))/1e6)
		if err != nil {
			return 0, err
		}
		if _, pr := m.verify(status, body); pr != "" {
			return 0, errors.New(pr)
		}
		t0 = time.Now()
		status, body = serve(d.srv.Handler(), m)
		direct = append(direct, float64(time.Since(t0))/1e6)
		if _, pr := m.verify(status, body); pr != "" {
			return 0, errors.New(pr)
		}
	}
	return summarise(viaHTTP).p50 - summarise(direct).p50, nil
}

// replayRequests replays the sampled requests on a fresh daemon with a
// warm pool: each through the daemon's handler under a server.handler
// span, and each as the direct calls the daemon makes for it — the
// annotator alone for a check, the whole build for a fresh run, and run
// setup and execution for a cached one — checked against the handler's
// reply.
func replayRequests(tr *tracer, seed int64, pool []*fuzz.Program, js []int64) (*chain, int, error) {
	srv := server.New(daemonConfig)
	h := srv.Handler()
	c := newChain(nil)
	ss10 := machine.SPARCstation10()
	safeO := buildSpec{annotate: true, optimize: true, cfg: ss10}
	for _, p := range pool {
		m := mixRequest{kind: kindHit, prog: p}
		if _, pr := m.verify(serve(h, m)); pr != "" {
			return nil, 0, errors.New(pr)
		}
		if _, err := c.build("gen.c", p.Source, safeO); err != nil {
			return nil, 0, err
		}
	}
	c.tr = tr
	c.work = work{}
	for _, j := range js {
		m := requestAt(seed, j, pool)
		if tr != nil {
			tr.op = int(j)
		}
		if m.prog == nil {
			tr.do("fuzz.generate", func() { m.program(seed, j) })
		}
		var status int
		var body []byte
		tr.do("server.handler", func() { status, body = serve(h, m) })
		rr, pr := m.verify(status, body)
		if pr != "" {
			return nil, 0, errors.New(pr)
		}
		var err error
		tr.operation(int(j), func() {
			if m.kind == kindCheck {
				var res *gcsafe.Result
				_, res, err = c.annotate("gen.c", m.prog.Source, gcsafe.Options{StrictCastWarnings: true})
				if err == nil && len(res.Warnings) > 0 {
					err = fmt.Errorf("replay check %s: %d warnings", m.prog.Label, len(res.Warnings))
				}
				return
			}
			var prog *machine.Program
			if prog, err = c.build("gen.c", m.prog.Source, safeO); err != nil {
				return
			}
			res, runErr := c.exec(context.Background(), prog, interp.Options{Config: ss10, MaxInstrs: srv.EffectiveConfig().MaxSteps})
			if d := sameRun(res, runErr, rr.Instrs, rr.Cycles, rr.Output, rr.Fault); d != "" {
				err = fmt.Errorf("replay %s %s: %s", kindNames[m.kind], m.prog.Label, d)
			}
		})
		if err != nil {
			return nil, 0, err
		}
	}
	return c, len(js), nil
}
