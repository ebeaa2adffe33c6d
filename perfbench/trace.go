package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"gcsafety/internal/artifact"
	"gcsafety/internal/cc/ast"
	"gcsafety/internal/cc/lexer"
	"gcsafety/internal/cc/parser"
	"gcsafety/internal/codegen"
	"gcsafety/internal/gcsafe"
	"gcsafety/internal/interp"
	"gcsafety/internal/liveness"
	"gcsafety/internal/machine"
	"gcsafety/internal/peephole"
	"gcsafety/internal/pipeline"
)

// span is one traced call into a layer. Spans are kept in memory and
// written out when the run ends.
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	Parent  int    `json:"parent"` // index of the enclosing span, -1 at the root
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer records spans from the benchmark's own files, around its calls
// into each layer's exported functions. A nil *tracer records nothing, so
// the same replay code runs traced and untraced.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
	op    int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// do runs f inside a span named name.
func (t *tracer) do(name string, f func()) {
	if t == nil {
		f()
		return
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, StartNs: int64(time.Since(t.epoch))})
	t.open = append(t.open, id)
	f()
	t.spans[id].EndNs = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// opSpan is the root span of one replayed operation; its self time is the
// part of the operation no layer span covers.
const opSpan = "op"

// operation runs f as operation id under a root span.
func (t *tracer) operation(id int, f func()) {
	if t != nil {
		t.op = id
	}
	t.do(opSpan, f)
}

// selfTimes sums, per span name, each span's duration less the part its
// child spans cover, in milliseconds.
func selfTimes(spans []span) map[string]float64 {
	self := map[string]float64{}
	for _, s := range spans {
		self[s.Name] += float64(s.EndNs-s.StartNs) / 1e6
		if s.Parent >= 0 {
			self[spans[s.Parent].Name] -= float64(s.EndNs-s.StartNs) / 1e6
		}
	}
	return self
}

// rootTotal sums the durations of the root spans named name, in ms.
func rootTotal(spans []span, name string) float64 {
	total := 0.0
	for _, s := range spans {
		if s.Parent < 0 && s.Name == name {
			total += float64(s.EndNs-s.StartNs) / 1e6
		}
	}
	return total
}

// layerSpans are the spans the breakdown reports, one per layer entry
// point; opSpan's self time is the unattributed remainder.
var layerSpans = []string{
	"fuzz.generate", "cc.lex", "cc.parse", "liveness.analyze", "ast.clone",
	"gcsafe.annotate", "codegen.gen", "codegen.backend", "peephole.optimize",
	"engine.setup", "interp.exec", "heapdump.retained", "server.handler",
}

// breakdown turns the replay's spans into per-layer metrics: each layer's
// self time per operation, the unattributed remainder, and the shares of
// operation time of run setup and execution. It also prints the table.
func breakdown(workload string, spans []span, ops int) []metric {
	self := selfTimes(spans)
	opMs := rootTotal(spans, opSpan)
	per := func(v float64) float64 { return v / float64(max(ops, 1)) }
	var out []metric
	for _, name := range layerSpans {
		out = append(out, metric{name + "_ms", per(self[name]), "ms"})
	}
	out = append(out,
		metric{"trace.unattributed_ms", per(self[opSpan]), "ms"},
		metric{"trace.op_ms", per(opMs), "ms"},
		metric{"engine.setup_frac", self["engine.setup"] / opMs, "1"},
		metric{"interp.exec_frac", self["interp.exec"] / opMs, "1"},
	)
	beside := map[string]bool{}
	for _, s := range spans {
		if s.Parent < 0 && s.Name != opSpan {
			beside[s.Name] = true
		}
	}
	rows := append([]string{opSpan}, layerSpans...)
	sort.SliceStable(rows, func(i, j int) bool { return self[rows[i]] > self[rows[j]] })
	fmt.Printf("traced breakdown (%s, %d replayed operations, self time per operation):\n", workload, ops)
	for _, name := range rows {
		switch {
		case self[name] == 0:
		case beside[name]:
			fmt.Printf("  %-20s %10.3f ms  (beside the operation)\n", name, per(self[name]))
		case name == opSpan:
			fmt.Printf("  %-20s %10.3f ms  %5.1f%%\n", "(unattributed)", per(self[name]), 100*self[name]/opMs)
		default:
			fmt.Printf("  %-20s %10.3f ms  %5.1f%%\n", name, per(self[name]), 100*self[name]/opMs)
		}
	}
	return out
}

// buildSpec is one build through the layers: which annotator options, if
// any, the compiler pipeline, the postprocessor and the machine.
type buildSpec struct {
	annotate bool
	opts     gcsafe.Options
	optimize bool
	post     bool
	cfg      machine.Config
}

type annKey struct {
	src      string
	annotate bool
	opts     gcsafe.Options
}

type progKey struct {
	ann      annKey
	optimize bool
	post     bool
	machine  string
}

// chain replays builds and runs as direct calls into each layer, with a
// span around every call. It keeps each stage's product the way the
// stage-graph pipeline shares it between treatments — one front end per
// source, one annotation per option set, one program per compile — so a
// replayed operation does the work its untraced counterpart does.
type chain struct {
	tr     *tracer
	fronts map[string]*ast.File
	anns   map[annKey]*ast.File
	progs  map[progKey]*machine.Program
	facts  map[string]*liveness.Facts
	work
}

// work counts what a chain did, for the per-layer metrics.
type work struct {
	tokens, inserted, considered, elided, staticInstrs, rewrites int
	runs, instrs, cycles, collections, objects                   uint64
	execNs                                                       int64
}

func newChain(tr *tracer) *chain {
	return &chain{
		tr:     tr,
		fronts: map[string]*ast.File{},
		anns:   map[annKey]*ast.File{},
		progs:  map[progKey]*machine.Program{},
		facts:  map[string]*liveness.Facts{},
	}
}

// forget drops the memoised stage products (a new operation starts cold).
func (c *chain) forget() {
	c.fronts = map[string]*ast.File{}
	c.anns = map[annKey]*ast.File{}
	c.progs = map[progKey]*machine.Program{}
	c.facts = map[string]*liveness.Facts{}
}

// frontEnd lexes and parses src. The Typecheck stage has no exported entry
// point and is left out.
func (c *chain) frontEnd(name, src string) (*ast.File, error) {
	if f, ok := c.fronts[src]; ok {
		return f, nil
	}
	var scan *lexer.Scan
	c.tr.do("cc.lex", func() { scan = lexer.ScanAll(src) })
	c.tokens += len(scan.Tokens)
	var f *ast.File
	var err error
	c.tr.do("cc.parse", func() { f, err = parser.ParseTokens(name, src, scan.Replay()) })
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	c.fronts[src] = f
	return f, nil
}

// annotate runs the annotator on a clone of the parsed file, consulting
// the liveness facts when the options ask for elision.
func (c *chain) annotate(name, src string, opts gcsafe.Options) (*ast.File, *gcsafe.Result, error) {
	f, err := c.frontEnd(name, src)
	if err != nil {
		return nil, nil, err
	}
	var facts *liveness.Facts
	if opts.Elide {
		if facts = c.facts[src]; facts == nil {
			c.tr.do("liveness.analyze", func() { facts = liveness.Analyze(f) })
			c.facts[src] = facts
		}
	}
	var clone *ast.File
	var res *gcsafe.Result
	c.tr.do("gcsafe.annotate", func() {
		c.tr.do("ast.clone", func() { clone = f.Clone() })
		res, err = gcsafe.AnnotateWithFacts(clone, opts, facts)
	})
	if err != nil {
		return nil, nil, fmt.Errorf("annotate: %w", err)
	}
	c.inserted += res.Inserted
	c.considered += res.Considered
	c.elided += res.Elided
	return clone, res, nil
}

// build compiles src under b, reusing every stage product an earlier
// build of the same operation made.
func (c *chain) build(name, src string, b buildSpec) (*machine.Program, error) {
	ak := annKey{src: src, annotate: b.annotate}
	if b.annotate {
		ak.opts = b.opts
	}
	pk := progKey{ann: ak, optimize: b.optimize, machine: b.cfg.Name}
	prog, ok := c.progs[pk]
	if !ok {
		file, ok := c.anns[ak]
		if !ok {
			var err error
			if b.annotate {
				file, _, err = c.annotate(name, src, b.opts)
			} else {
				file, err = c.frontEnd(name, src)
			}
			if err != nil {
				return nil, err
			}
			c.anns[ak] = file
		}
		var ir *codegen.IR
		var err error
		c.tr.do("codegen.gen", func() {
			ir, err = codegen.Gen(file, codegen.Options{Optimize: b.optimize, Machine: b.cfg})
		})
		if err != nil {
			return nil, fmt.Errorf("codegen: %w", err)
		}
		c.tr.do("codegen.backend", func() { prog = codegen.Backend(ir) })
		c.staticInstrs += prog.Size()
		c.progs[pk] = prog
	}
	if !b.post {
		return prog, nil
	}
	pk.post = true
	if q, ok := c.progs[pk]; ok {
		return q, nil
	}
	var q *machine.Program
	c.tr.do("peephole.optimize", func() {
		q = prog.Clone()
		st := peephole.Optimize(q, b.cfg)
		c.rewrites += st.Fused + st.CopiesGone + st.Retargeted
	})
	c.progs[pk] = q
	return q, nil
}

// exec sets up a simulated machine for prog and runs it.
func (c *chain) exec(ctx context.Context, prog *machine.Program, opts interp.Options) (*interp.Result, error) {
	var m *interp.Machine
	c.tr.do("engine.setup", func() { m = interp.New(prog, opts) })
	var res *interp.Result
	var err error
	t0 := time.Now()
	c.tr.do("interp.exec", func() { res, err = m.RunContext(ctx) })
	c.execNs += int64(time.Since(t0))
	c.runs++
	if res != nil {
		c.instrs += res.Instrs
		c.cycles += res.Cycles
		c.collections += res.GCStats.Collections
		c.objects += res.GCStats.ObjectsAlloced
	}
	return res, err
}

// counts reports the chain's work counts per operation.
func (c *chain) counts(ops int) []metric {
	per := func(v float64) float64 { return v / float64(max(ops, 1)) }
	elidedFrac := 0.0
	if c.considered > 0 {
		elidedFrac = float64(c.elided) / float64(c.considered)
	}
	mcps := 0.0
	if c.execNs > 0 {
		mcps = float64(c.cycles) / (float64(c.execNs) / 1e9) / 1e6
	}
	return []metric{
		{"cc.tokens", per(float64(c.tokens)), "count"},
		{"liveness.elided_frac", elidedFrac, "1"},
		{"gcsafe.inserted", per(float64(c.inserted)), "count"},
		{"codegen.static_instrs", per(float64(c.staticInstrs)), "count"},
		{"peephole.rewrites", per(float64(c.rewrites)), "count"},
		{"engine.runs", per(float64(c.runs)), "count"},
		{"interp.mcycles_per_s", mcps, "Mcycles/s"},
		{"sim.instrs", per(float64(c.instrs)), "count"},
		{"gc.collections", per(float64(c.collections)), "count"},
		{"gc.objects_allocated", per(float64(c.objects)), "count"},
	}
}

// sameRun reports how a replayed run differs from the untraced result of
// the same operation, or "" when Instrs, Cycles, output and fault agree.
func sameRun(res *interp.Result, err error, instrs, cycles uint64, output, fault string) string {
	var gi, gc uint64
	var gout, gfault string
	if res != nil {
		gi, gc, gout = res.Instrs, res.Cycles, res.Output
	}
	if err != nil {
		gfault = err.Error()
	}
	switch {
	case gi != instrs:
		return fmt.Sprintf("instrs %d, untraced %d", gi, instrs)
	case gc != cycles:
		return fmt.Sprintf("cycles %d, untraced %d", gc, cycles)
	case gout != output:
		return "output differs from the untraced run"
	case gfault != fault:
		return fmt.Sprintf("fault %q, untraced %q", gfault, fault)
	}
	return ""
}

// pipelineProbe builds opts[0] on a fresh stage-graph pipeline twice —
// cold, then fully cached — and then every other option set, reporting
// both build times and the share of stage calls served from the cache.
func pipelineProbe(name, src string, opts []pipeline.Options) (coldMs, warmMs, hitFrac float64, err error) {
	runner := pipeline.NewRunner(artifact.New(0))
	ctx := context.Background()
	for i, o := range opts {
		t0 := time.Now()
		if _, err := runner.Build(ctx, name, src, o); err != nil {
			return 0, 0, 0, fmt.Errorf("pipeline probe: %w", err)
		}
		if i == 0 {
			coldMs = float64(time.Since(t0)) / 1e6
			t0 = time.Now()
			if _, err := runner.Build(ctx, name, src, o); err != nil {
				return 0, 0, 0, fmt.Errorf("pipeline probe: %w", err)
			}
			warmMs = float64(time.Since(t0)) / 1e6
		}
	}
	var hits, calls float64
	for _, st := range runner.Stats() {
		hits += float64(st.Hits)
		calls += float64(st.Calls)
	}
	return coldMs, warmMs, hits / calls, nil
}

// replayTraced replays the workload's sample untraced, traced, and
// untraced again, and returns the per-layer metrics of the traced replay,
// with its difference from the mean of the two untraced replays (which
// brackets it, so warm-up and drift cancel) as the tracing overhead.
func replayTraced(workload string, replay func(*tracer) (*chain, int, error)) ([]metric, []span, error) {
	untraced := func() (time.Duration, error) {
		t0 := time.Now()
		_, _, err := replay(nil)
		return time.Since(t0), err
	}
	before, err := untraced()
	if err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	t0 := time.Now()
	c, ops, err := replay(tr)
	if err != nil {
		return nil, nil, err
	}
	traced := time.Since(t0)
	after, err := untraced()
	if err != nil {
		return nil, nil, err
	}
	layer := breakdown(workload, tr.spans, ops)
	layer = append(layer, c.counts(ops)...)
	layer = append(layer,
		metric{"trace.overhead_ms", float64(traced-(before+after)/2) / 1e6 / float64(ops), "ms"},
		metric{"trace.spans", float64(len(tr.spans)) / float64(ops), "count"},
	)
	return layer, tr.spans, nil
}
