package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"gcsafety/internal/artifact"
	"gcsafety/internal/cc/parser"
	"gcsafety/internal/codegen"
	"gcsafety/internal/faultinject"
	"gcsafety/internal/gcsafe"
	"gcsafety/internal/machine"
	"gcsafety/internal/peephole"
	"gcsafety/internal/workloads"
)

// treatments is the canonical cell set of the paper's tables, spelled as
// pipeline options.
func treatments() map[string]Options {
	return map[string]Options{
		"-O":           {Optimize: true},
		"-O, safe":     {Optimize: true, Annotate: true},
		"-g":           {},
		"-g, checked":  {Annotate: true, AnnotateOptions: gcsafe.Options{Mode: gcsafe.ModeChecked}},
		"-O, safe+pp":  {Optimize: true, Annotate: true, Post: true},
		"-g, safe+pp":  {Annotate: true, Post: true},
		"-O, opt1-off": {Optimize: true, Annotate: true, AnnotateOptions: gcsafe.Options{NoCopySuppression: true}},
	}
}

// directBuild is the pre-pipeline monolithic build path, inlined here as
// the behavioral oracle: the stage graph must be byte-identical to it.
func directBuild(t *testing.T, name, src string, o Options) (*machine.Program, *gcsafe.Result, *peephole.Stats) {
	t.Helper()
	file, err := parser.Parse(name, src)
	if err != nil {
		t.Fatalf("direct parse: %v", err)
	}
	var ares *gcsafe.Result
	if o.Annotate {
		ares, err = gcsafe.Annotate(file, o.AnnotateOptions)
		if err != nil {
			t.Fatalf("direct annotate: %v", err)
		}
	}
	prog, err := codegen.Compile(file, codegen.Options{Optimize: o.Optimize, Machine: o.Machine})
	if err != nil {
		t.Fatalf("direct compile: %v", err)
	}
	var pst *peephole.Stats
	if o.Post {
		st := peephole.Optimize(prog, o.Machine)
		pst = &st
	}
	return prog, ares, pst
}

// TestPipelineMatchesDirectBuild pins the refactor's central contract:
// for every workload and treatment, the staged build produces exactly the
// listing, annotation output and peephole stats of the old monolithic
// path.
func TestPipelineMatchesDirectBuild(t *testing.T) {
	ws := workloads.All()
	if testing.Short() {
		ws = ws[:2]
	}
	for _, cfg := range machine.Configs() {
		for tname, o := range treatments() {
			o.Machine = cfg
			r := NewRunner(artifact.New(0))
			for _, w := range ws {
				res, err := r.Build(context.Background(), w.Name+".c", w.Source, o)
				if err != nil {
					t.Fatalf("%s [%s/%s]: %v", w.Name, cfg.Name, tname, err)
				}
				prog, ares, pst := directBuild(t, w.Name+".c", w.Source, o)
				if got, want := res.Prog.Listing(), prog.Listing(); got != want {
					t.Errorf("%s [%s/%s]: listing diverges from direct build", w.Name, cfg.Name, tname)
				}
				if o.Annotate {
					if res.Annotate == nil {
						t.Fatalf("%s: no annotate result", w.Name)
					}
					if res.Annotate.Output != ares.Output {
						t.Errorf("%s [%s/%s]: annotated source diverges", w.Name, cfg.Name, tname)
					}
					if res.Annotate.Inserted != ares.Inserted || res.Annotate.Suppressed != ares.Suppressed {
						t.Errorf("%s [%s/%s]: annotate counters diverge", w.Name, cfg.Name, tname)
					}
				} else if res.Annotate != nil {
					t.Errorf("%s: unexpected annotate result", w.Name)
				}
				if o.Post {
					if res.Peephole == nil || *res.Peephole != *pst {
						t.Errorf("%s [%s/%s]: peephole stats diverge: %+v vs %+v", w.Name, cfg.Name, tname, res.Peephole, pst)
					}
				}
			}
		}
		if testing.Short() {
			break
		}
	}
}

// TestFrontEndSharedAcrossTreatments is the cache-sharing contract: one
// workload built under every treatment and machine lexes, parses and
// typechecks exactly once.
func TestFrontEndSharedAcrossTreatments(t *testing.T) {
	r := NewRunner(artifact.New(0))
	w := workloads.All()[0]
	n := 0
	for _, cfg := range machine.Configs() {
		for _, o := range treatments() {
			o.Machine = cfg
			if _, err := r.Build(context.Background(), w.Name+".c", w.Source, o); err != nil {
				t.Fatal(err)
			}
			n++
		}
	}
	for _, st := range []Stage{StageLex, StageParse, StageTypecheck} {
		s := r.StageStats(st)
		if s.Misses != 1 {
			t.Errorf("%s: %d misses over %d builds, want 1", st, s.Misses, n)
		}
		if s.Calls != uint64(n) {
			t.Errorf("%s: %d calls, want %d", st, s.Calls, n)
		}
	}
	// Safe and checked treatments annotate differently; opt1-off is a third
	// configuration. Three annotate misses, not one per build.
	if s := r.StageStats(StageAnnotate); s.Misses != 3 {
		t.Errorf("annotate: %d misses, want 3", s.Misses)
	}
}

// TestWarmBuildAllHits is the pipeline-smoke invariant: the second build
// of the same cell reports a cache hit at every stage.
func TestWarmBuildAllHits(t *testing.T) {
	r := NewRunner(artifact.New(0))
	w := workloads.All()[0]
	o := Options{Optimize: true, Annotate: true, Post: true, Machine: machine.SPARCstation10()}
	first, err := r.Build(context.Background(), w.Name+".c", w.Source, o)
	if err != nil {
		t.Fatal(err)
	}
	if first.Report.AllHits() {
		t.Fatal("cold build reported all stages as cache hits")
	}
	second, err := r.Build(context.Background(), w.Name+".c", w.Source, o)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Report.AllHits() {
		t.Fatalf("warm build missed a stage: %+v", second.Report.Stages)
	}
	if len(second.Report.Stages) != 7 {
		t.Fatalf("expected all 7 stages in the report, got %d: %+v",
			len(second.Report.Stages), second.Report.Stages)
	}
	if second.Prog != first.Prog {
		t.Error("warm build did not share the cached program")
	}
}

// TestVersionBumpInvalidatesStage proves the invalidation rule: bumping
// one stage's version recomputes that stage and everything downstream,
// while upstream artifacts stay warm.
func TestVersionBumpInvalidatesStage(t *testing.T) {
	r := NewRunner(artifact.New(0))
	w := workloads.All()[0]
	o := Options{Optimize: true, Machine: machine.SPARCstation10()}
	if _, err := r.Build(context.Background(), w.Name+".c", w.Source, o); err != nil {
		t.Fatal(err)
	}
	restore := SetVersionForTest(StageCodegen, "v1-test-bump")
	defer restore()
	res, err := r.Build(context.Background(), w.Name+".c", w.Source, o)
	if err != nil {
		t.Fatal(err)
	}
	byStage := map[string]StageReport{}
	for _, s := range res.Report.Stages {
		byStage[s.Stage] = s
	}
	for _, warm := range []Stage{StageLex, StageParse, StageTypecheck} {
		if !byStage[string(warm)].CacheHit {
			t.Errorf("%s recomputed after a codegen version bump", warm)
		}
	}
	for _, cold := range []Stage{StageCodegen, StageOptimize} {
		if byStage[string(cold)].CacheHit {
			t.Errorf("%s served from cache across its version bump", cold)
		}
	}
}

// TestStageFaultInjection drives every stage's fault point: the build
// must fail with the injected error attributed to that stage, the error
// must not be cached, and a fault-free retry must succeed.
func TestStageFaultInjection(t *testing.T) {
	w := workloads.All()[0]
	for _, st := range Stages() {
		// Elide makes the optional Liveness stage run, so every fault point
		// in Stages() is reachable from one configuration.
		o := Options{Optimize: true, Annotate: true, Post: true, Machine: machine.SPARCstation10()}
		o.AnnotateOptions.Elide = true
		r := NewRunner(artifact.New(0))
		faults, err := faultinject.Parse(st.FaultPoint()+"=error", 1)
		if err != nil {
			t.Fatal(err)
		}
		ctx := faultinject.WithContext(context.Background(), faults)
		_, err = r.Build(ctx, w.Name+".c", w.Source, o)
		if err == nil {
			t.Fatalf("%s: build survived an injected fault", st)
		}
		if !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("%s: error %v is not ErrInjected", st, err)
		}
		var se *StageError
		if !errors.As(err, &se) || se.Stage != st {
			t.Fatalf("%s: fault attributed to %v", st, err)
		}
		if s := r.StageStats(st); s.Errors == 0 {
			t.Errorf("%s: error not counted", st)
		}
		// Errors are never cached: the same runner must build cleanly once
		// the faults are gone.
		if _, err := r.Build(context.Background(), w.Name+".c", w.Source, o); err != nil {
			t.Fatalf("%s: retry after fault failed: %v", st, err)
		}
	}
}

// TestContextCancellation: a canceled context aborts at the first stage
// boundary with the context's error visible through the StageError.
func TestContextCancellation(t *testing.T) {
	r := NewRunner(artifact.New(0))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w := workloads.All()[0]
	_, err := r.Build(ctx, w.Name+".c", w.Source, Options{Machine: machine.SPARCstation10()})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestParseErrorsMatchLegacyPath: errors surfaced by the staged front end
// are the parser's own, byte for byte, under the "parse" stage label.
func TestParseErrorsMatchLegacyPath(t *testing.T) {
	const bad = "int main( { return 0; }"
	_, direct := parser.Parse("bad.c", bad)
	if direct == nil {
		t.Fatal("expected a parse error")
	}
	r := NewRunner(artifact.New(0))
	_, err := r.Build(context.Background(), "bad.c", bad, Options{Machine: machine.SPARCstation10()})
	var se *StageError
	if !errors.As(err, &se) || se.Stage != StageParse {
		t.Fatalf("got %v, want a parse StageError", err)
	}
	if se.Err.Error() != direct.Error() {
		t.Fatalf("staged parse error %q != direct %q", se.Err, direct)
	}
}

// TestConcurrentBuildsSingleflight: a stampede of identical builds
// computes each stage once.
func TestConcurrentBuildsSingleflight(t *testing.T) {
	r := NewRunner(artifact.New(0))
	w := workloads.All()[0]
	o := Options{Optimize: true, Annotate: true, Machine: machine.SPARCstation10()}
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = r.Build(context.Background(), w.Name+".c", w.Source, o)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, st := range []Stage{StageLex, StageParse, StageTypecheck, StageAnnotate, StageCodegen, StageOptimize} {
		if s := r.StageStats(st); s.Misses != 1 {
			t.Errorf("%s: %d misses under stampede, want 1", st, s.Misses)
		}
	}
}

// TestWireRoundTrip: the persistable stage artifacts survive an
// encode/decode cycle through the codec registry.
func TestWireRoundTrip(t *testing.T) {
	reg := artifact.NewCodecRegistry()
	RegisterWire(reg)
	codec := reg.DiskCodec()

	r := NewRunner(artifact.New(0))
	w := workloads.All()[0]
	res, err := r.Build(context.Background(), w.Name+".c", w.Source,
		Options{Optimize: true, Annotate: true, Post: true, Machine: machine.SPARCstation10()})
	if err != nil {
		t.Fatal(err)
	}
	kind, data, ok := codec.Encode("k", res.Prog)
	if !ok || kind != kindProg {
		t.Fatalf("program did not encode (ok=%v kind=%q)", ok, kind)
	}
	v, size, err := codec.Decode(kind, data)
	if err != nil {
		t.Fatal(err)
	}
	back := v.(*machine.Program)
	if back.Listing() != res.Prog.Listing() {
		t.Error("program listing changed across the wire")
	}
	if size != progAccountedSize(res.Prog) {
		t.Errorf("accounted size %d != %d", size, progAccountedSize(res.Prog))
	}
	pp := &postprocessed{prog: res.Prog, stats: peephole.Stats{Fused: 1, InstrsAfter: res.Prog.Size()}}
	kind, data, ok = codec.Encode("k2", pp)
	if !ok || kind != kindPost {
		t.Fatalf("postprocessed did not encode (ok=%v kind=%q)", ok, kind)
	}
	v, _, err = codec.Decode(kind, data)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.(*postprocessed); got.stats != pp.stats || got.prog.Listing() != pp.prog.Listing() {
		t.Error("postprocessed artifact changed across the wire")
	}
	// Unclaimed values stay memory-only.
	if _, _, ok := codec.Encode("k3", 42); ok {
		t.Error("registry claimed an unknown artifact type")
	}
}

// TestStatsShape: every stage appears in Stats() in dependency order with
// consistent counters.
func TestStatsShape(t *testing.T) {
	r := NewRunner(artifact.New(0))
	w := workloads.All()[0]
	if _, err := r.Build(context.Background(), w.Name+".c", w.Source,
		Options{Optimize: true, Machine: machine.SPARCstation10()}); err != nil {
		t.Fatal(err)
	}
	stats := r.Stats()
	if len(stats) != len(Stages()) {
		t.Fatalf("got %d stage stats, want %d", len(stats), len(Stages()))
	}
	for i, st := range Stages() {
		s := stats[i]
		if s.Stage != string(st) {
			t.Fatalf("stats[%d] = %s, want %s", i, s.Stage, st)
		}
		if s.Calls != s.Hits+s.Misses+s.Errors {
			t.Errorf("%s: calls %d != hits %d + misses %d + errors %d", s.Stage, s.Calls, s.Hits, s.Misses, s.Errors)
		}
	}
	// An unannotated, unpostprocessed build runs 5 of the 7 stages.
	ran := 0
	for _, s := range stats {
		if s.Calls > 0 {
			ran++
		}
	}
	if ran != 5 {
		t.Errorf("%d stages ran, want 5", ran)
	}
}

// TestPipelineSmokeWarmBuild is the `make check` pipeline-smoke step:
// build one workload twice and fail unless the second build is served
// entirely from the stage cache.
func TestPipelineSmokeWarmBuild(t *testing.T) {
	r := NewRunner(artifact.New(0))
	w := workloads.All()[0]
	o := Options{Optimize: true, Annotate: true, Post: true, Machine: machine.SPARCstation10()}
	if _, err := r.Build(context.Background(), w.Name+".c", w.Source, o); err != nil {
		t.Fatal(err)
	}
	res, err := r.Build(context.Background(), w.Name+".c", w.Source, o)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, s := range res.Report.Stages {
		if s.CacheHit {
			hits++
		}
	}
	if pctHit := fmt.Sprintf("%d/%d", hits, len(res.Report.Stages)); !res.Report.AllHits() {
		t.Fatalf("warm build stage-cache hits %s, want 100%%: %+v", pctHit, res.Report.Stages)
	}
}
