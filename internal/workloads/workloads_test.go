package workloads

import (
	"errors"
	"testing"

	"gcsafety/internal/cc/parser"
	"gcsafety/internal/codegen"
	"gcsafety/internal/gcsafe"
	"gcsafety/internal/interp"
	"gcsafety/internal/machine"
	"gcsafety/internal/peephole"
)

type buildMode struct {
	name        string
	annotate    bool
	mode        gcsafe.Mode
	optimize    bool
	postprocess bool
}

var modes = []buildMode{
	{name: "-O"},
	{name: "-O safe", annotate: true, optimize: true},
	{name: "-g"},
	{name: "-g checked", annotate: true, mode: gcsafe.ModeChecked},
	{name: "-O safe +post", annotate: true, optimize: true, postprocess: true},
}

func init() {
	modes[0].optimize = true
}

// buildWorkload compiles w under bm for the SPARCstation 10.
func buildWorkload(t *testing.T, w Workload, bm buildMode) *machine.Program {
	t.Helper()
	file, err := parser.Parse(w.Name+".c", w.Source)
	if err != nil {
		t.Fatalf("%s: parse: %v", w.Name, err)
	}
	if bm.annotate {
		if _, err := gcsafe.Annotate(file, gcsafe.Options{Mode: bm.mode}); err != nil {
			t.Fatalf("%s: annotate: %v", w.Name, err)
		}
	}
	cfg := machine.SPARCstation10()
	prog, err := codegen.Compile(file, codegen.Options{Optimize: bm.optimize, Machine: cfg})
	if err != nil {
		t.Fatalf("%s: compile: %v", w.Name, err)
	}
	if bm.postprocess {
		peephole.Optimize(prog, cfg)
	}
	return prog
}

func runWorkload(t *testing.T, w Workload, bm buildMode) (*interp.Result, error) {
	t.Helper()
	return interp.Run(buildWorkload(t, w, bm), interp.Options{
		Config:   machine.SPARCstation10(),
		Input:    w.Input,
		Validate: true,
	})
}

func TestWorkloadsAllModes(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			ref, err := runWorkload(t, w, buildMode{name: "-g reference"})
			if err != nil {
				t.Fatalf("reference run failed: %v\noutput: %q", err, ref.Output)
			}
			if ref.Output == "" {
				t.Fatal("reference produced no output")
			}
			t.Logf("reference output (%d cycles, %d allocs):\n%s",
				ref.Cycles, ref.GCStats.ObjectsAlloced, ref.Output)
			if ref.Output != w.Want {
				t.Errorf("reference output does not match the pinned golden.\ngot:  %q\nwant: %q", ref.Output, w.Want)
			}
			for _, bm := range modes {
				bm := bm
				t.Run(bm.name, func(t *testing.T) {
					res, err := runWorkload(t, w, bm)
					isChecked := bm.mode == gcsafe.ModeChecked && bm.annotate
					if isChecked && w.CheckedFails {
						var ce *interp.CheckError
						if err == nil {
							t.Fatalf("checked build was expected to detect the pointer bug (paper's gawk footnote); output %q", res.Output)
						}
						if !errors.As(err, &ce) {
							t.Fatalf("checked build failed with a non-check error: %v", err)
						}
						return
					}
					if err != nil {
						t.Fatalf("run failed: %v\noutput: %q", err, res.Output)
					}
					if res.Output != ref.Output {
						t.Errorf("output differs from reference.\ngot:  %q\nwant: %q", res.Output, ref.Output)
					}
				})
			}
		})
	}
}

func TestWorkloadsAreAllocationIntensive(t *testing.T) {
	// The paper: "All of these programs are very pointer and allocation
	// intensive."
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			res, err := runWorkload(t, w, buildMode{name: "-O", optimize: true})
			if err != nil {
				t.Fatalf("run failed: %v", err)
			}
			if res.GCStats.ObjectsAlloced < 500 {
				t.Errorf("only %d allocations; not allocation-intensive", res.GCStats.ObjectsAlloced)
			}
		})
	}
}

func TestWorkloadsSurviveCollection(t *testing.T) {
	// Force frequent collections and re-check outputs.
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			file, err := parser.Parse(w.Name+".c", w.Source)
			if err != nil {
				t.Fatal(err)
			}
			cfg := machine.SPARCstation10()
			prog, err := codegen.Compile(file, codegen.Options{Optimize: false, Machine: cfg})
			if err != nil {
				t.Fatal(err)
			}
			res, err := interp.Run(prog, interp.Options{
				Config: cfg, Input: w.Input, Validate: true, TriggerBytes: 16 << 10,
			})
			if err != nil {
				t.Fatalf("run failed: %v", err)
			}
			if res.GCStats.Collections == 0 {
				t.Error("no collections happened; the test proves nothing")
			}
			ref, err := runWorkload(t, w, buildMode{name: "-g"})
			if err != nil {
				t.Fatal(err)
			}
			if res.Output != ref.Output {
				t.Errorf("output changed under frequent collection")
			}
		})
	}
}

func TestWorkloadMetadata(t *testing.T) {
	names := map[string]bool{}
	for _, w := range All() {
		if names[w.Name] {
			t.Errorf("duplicate workload %s", w.Name)
		}
		names[w.Name] = true
		if w.Lines < 50 {
			t.Errorf("%s: implausibly small source (%d lines)", w.Name, w.Lines)
		}
		if _, ok := ByName(w.Name); !ok {
			t.Errorf("ByName(%s) failed", w.Name)
		}
	}
	if _, ok := ByName("nonesuch"); ok {
		t.Error("ByName accepted an unknown name")
	}
}

// TestWorkloadsSafeUnderAsyncGC runs the annotated optimized build of every
// workload with collections firing asynchronously between instructions —
// the regime the paper's safety argument must survive on real programs.
func TestWorkloadsSafeUnderAsyncGC(t *testing.T) {
	if testing.Short() {
		t.Skip("async sweep is slow")
	}
	cfg := machine.SPARCstation10()
	optSafe := buildMode{annotate: true, optimize: true}
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			res, err := interp.Run(buildWorkload(t, w, optSafe), interp.Options{
				Config:        cfg,
				Input:         w.Input,
				Validate:      true,
				GCEveryInstrs: 4999, // prime cadence: sample many program points
			})
			if err != nil {
				t.Fatalf("faulted under async GC: %v", err)
			}
			if res.Output != w.Want {
				t.Fatalf("output changed under async GC")
			}
			if res.GCStats.Collections < 10 {
				t.Fatalf("only %d collections; regime not exercised", res.GCStats.Collections)
			}
		})
	}
	// DESIGN's GC trigger policy ablation: the same annotated cordtest
	// build under allocation-site-only collection and under an
	// asynchronous collector. Both regimes reproduce the golden output;
	// the asynchronous one collects more often.
	t.Run("TriggerPolicy", func(t *testing.T) {
		w, _ := ByName("cordtest")
		prog := buildWorkload(t, w, optSafe)
		run := func(every uint64) *interp.Result {
			res, err := interp.Run(prog, interp.Options{
				Config: cfg, Input: w.Input, Validate: true,
				TriggerBytes: 16 << 10, GCEveryInstrs: every,
			})
			if err != nil {
				t.Fatalf("GCEveryInstrs=%d: %v", every, err)
			}
			if res.Output != w.Want {
				t.Fatalf("GCEveryInstrs=%d: output changed", every)
			}
			return res
		}
		allocSite, async := run(0).GCStats.Collections, run(9973).GCStats.Collections
		t.Logf("collections: allocation-site %d, async %d", allocSite, async)
		if async <= allocSite {
			t.Fatalf("async regime collected %d times, allocation-site-only %d; want more", async, allocSite)
		}
	})
}
