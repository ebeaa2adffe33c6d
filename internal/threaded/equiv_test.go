// Package threaded_test holds the execution core's reuse-equivalence tests.
// The package path once held a second, closure-threaded execution engine;
// the engine is gone and the tests that compared it with the interpreter
// now compare the one execution core with itself across the same grids.
package threaded_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"gcsafety"
	"gcsafety/internal/engine"
	"gcsafety/internal/interp"
	"gcsafety/internal/machine"
	"gcsafety/internal/workloads"
)

// The reuse contract: a compiled program is an immutable artifact that the
// pipeline's caches hand to every later run, so running it must not change
// it. For any program, any machine configuration and any execution regime,
// a second run of the same cached *machine.Program — through the interp
// facade under a live, cancellable context, the daemon's entry path — must
// produce results bit-identical to the first run on a fresh engine.Core:
// output bytes, exit code, instruction and cycle counts, GC statistics,
// and, on failing runs, the same fault at the same pc with the same
// message. These tests drive the contract over the benchmark suite and the
// full hazard catalogue under both benign and adversarial collection
// schedules.

type buildTreatment struct {
	name string
	pipe gcsafety.Pipeline
}

var buildTreatments = []buildTreatment{
	{"debug", gcsafety.Pipeline{}},
	{"opt", gcsafety.Pipeline{Optimize: true}},
	{"opt-safe", gcsafety.Pipeline{Optimize: true, Annotate: true, AnnotateOptions: gcsafety.Safe()}},
	{"opt-safe-post", gcsafety.Pipeline{Optimize: true, Annotate: true, AnnotateOptions: gcsafety.Safe(), Postprocess: true}},
	{"checked", gcsafety.Pipeline{Annotate: true, AnnotateOptions: gcsafety.Checked()}},
}

func compile(t *testing.T, w workloads.Workload, tr buildTreatment) *machine.Program {
	t.Helper()
	prog, _, err := gcsafety.Build(w.Name+".c", w.Source, tr.pipe)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return prog
}

// assertEngineEquivalence runs prog twice — first directly on a fresh
// engine.Core, then through interp.RunContext under a cancellable context —
// and fails unless every observable is identical.
func assertEngineEquivalence(t *testing.T, prog *machine.Program, opts engine.Options) {
	t.Helper()
	want, wantErr := engine.NewCore(prog, opts).Run()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, gotErr := interp.RunContext(ctx, prog, opts)
	if (wantErr == nil) != (gotErr == nil) ||
		(wantErr != nil && wantErr.Error() != gotErr.Error()) {
		t.Fatalf("runs disagree on outcome:\n  first:  %v\n  second: %v", wantErr, gotErr)
	}
	if want.Output != got.Output || want.ExitCode != got.ExitCode {
		t.Errorf("output diverges:\n  first:  %q exit %d\n  second: %q exit %d",
			want.Output, want.ExitCode, got.Output, got.ExitCode)
	}
	if want.Instrs != got.Instrs || want.Cycles != got.Cycles {
		t.Errorf("accounting diverges: first instrs=%d cycles=%d, second instrs=%d cycles=%d",
			want.Instrs, want.Cycles, got.Instrs, got.Cycles)
	}
	if !reflect.DeepEqual(want.GCStats, got.GCStats) {
		t.Errorf("GC statistics diverge:\n  first:  %+v\n  second: %+v", want.GCStats, got.GCStats)
	}
	ws, gs := want.Snapshot, got.Snapshot
	if (ws == nil) != (gs == nil) {
		t.Fatalf("snapshot presence diverges: first %v, second %v", ws != nil, gs != nil)
	}
	if ws != nil && (ws.Trigger != gs.Trigger || ws.Reason != gs.Reason || ws.FaultAddr != gs.FaultAddr) {
		t.Errorf("snapshot classification diverges:\n  first:  trigger=%q addr=%#x reason=%q\n  second: trigger=%q addr=%#x reason=%q",
			ws.Trigger, ws.FaultAddr, ws.Reason, gs.Trigger, gs.FaultAddr, gs.Reason)
	}
}

// execRegime is one execution configuration the equivalence grid covers.
type execRegime struct {
	name string
	opts engine.Options
}

func execRegimes(w workloads.Workload) []execRegime {
	base := engine.Options{Config: machine.SPARCstation10(), Input: w.Input}
	validated := base
	validated.Validate = true
	async := validated
	async.GCEveryInstrs = 997
	adversarial := validated
	adversarial.CollectAtEveryAlloc = true
	temporal := base
	temporal.Temporal = true
	temporal.HeapProfile = true
	regimes := []execRegime{
		{"benign", base},
		{"validated", validated},
		{"async", async},
		{"adversarial", adversarial},
		{"temporal", temporal},
	}
	if w.Threads > 1 {
		mt := validated
		mt.Threads = w.Threads
		mt.CollectAtSwitch = true
		regimes = append(regimes, execRegime{"mt-adversarial", mt})
	}
	return regimes
}

// TestEngineEquivalenceHazards drives every hazard workload through the
// treatment × regime grid: both runs must agree on every violation
// classification (message for message, fault address for fault address)
// as well as on every clean run.
func TestEngineEquivalenceHazards(t *testing.T) {
	for _, w := range workloads.Hazards() {
		for _, tr := range buildTreatments {
			prog := compile(t, w, tr)
			for _, re := range execRegimes(w) {
				t.Run(fmt.Sprintf("%s/%s/%s", w.Name, tr.name, re.name), func(t *testing.T) {
					assertEngineEquivalence(t, prog, re.opts)
				})
			}
		}
	}
}

// TestEngineEquivalenceWorkloads covers the Zorn benchmark suite under the
// benign and asynchronous-validated regimes (the adversarial schedules are
// covered per-hazard above; the full suite under collect-at-every-alloc is
// minutes of wall clock).
func TestEngineEquivalenceWorkloads(t *testing.T) {
	for _, w := range workloads.All() {
		for _, tr := range []buildTreatment{buildTreatments[1], buildTreatments[3]} { // opt, opt-safe-post
			prog := compile(t, w, tr)
			for _, re := range execRegimes(w)[:3] { // benign, validated, async
				t.Run(fmt.Sprintf("%s/%s/%s", w.Name, tr.name, re.name), func(t *testing.T) {
					assertEngineEquivalence(t, prog, re.opts)
				})
			}
		}
	}
}
