package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"gcsafety"
	"gcsafety/internal/interp"
	"gcsafety/internal/workloads"
)

// The golden files are the promoted form of the hazard workloads: each
// testdata/<name>.c and .want pair must match internal/workloads'
// catalogue exactly, so the two never drift apart.
func TestGoldenFilesMatchWorkloadCatalogue(t *testing.T) {
	for _, w := range workloads.Hazards() {
		src, err := os.ReadFile(filepath.Join("testdata", w.Name+".c"))
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if string(src) != w.Source {
			t.Errorf("%s.c has drifted from workloads.Hazards(); regenerate it from the catalogue", w.Name)
		}
		want, err := os.ReadFile(filepath.Join("testdata", w.Name+".want"))
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if string(want) != w.Want {
			t.Errorf("%s.want has drifted from workloads.Hazards(): file %q, catalogue %q",
				w.Name, want, w.Want)
		}
	}
}

// TestHazardEngineEquivalence drives every golden hazard through the
// public API twice, under a benign and an adversarial collection schedule,
// in the safe and the temporal-checker builds. The second run is served
// entirely from the artifact cache and executes the very program the first
// run produced; the execution core must agree with itself exactly: same
// detection outcome (error for error, message for message, fault address
// for fault address) and the same simulated output, instruction and cycle
// counts on clean runs.
func TestHazardEngineEquivalence(t *testing.T) {
	for _, w := range workloads.Hazards() {
		src, err := os.ReadFile(filepath.Join("testdata", w.Name+".c"))
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		benign := interp.Options{Validate: true, GCEveryInstrs: 211, TriggerBytes: 8 << 10, HeapProfile: true}
		adversarial := interp.Options{Validate: true, CollectAtEveryAlloc: true, HeapProfile: true}
		if w.Threads > 1 {
			benign.Threads = w.Threads
			adversarial.Threads = w.Threads
			adversarial.CollectAtSwitch = true
		}
		temporal := func(e interp.Options) interp.Options { e.Temporal = true; return e }
		pipe := func(opts gcsafety.AnnotateOptions, exec interp.Options) gcsafety.Pipeline {
			return gcsafety.Pipeline{Optimize: true, Annotate: true, AnnotateOptions: opts, Exec: exec}
		}
		for _, c := range []struct {
			build, sched string
			pipe         gcsafety.Pipeline
		}{
			{"safe", "benign", pipe(gcsafety.Safe(), benign)},
			{"safe", "adversarial", pipe(gcsafety.Safe(), adversarial)},
			{"temporal", "benign", pipe(gcsafety.Temporal(), temporal(benign))},
			{"temporal", "adversarial", pipe(gcsafety.Temporal(), temporal(adversarial))},
		} {
			t.Run(w.Name+"/"+c.build+"/"+c.sched, func(t *testing.T) {
				want, wantErr := gcsafety.Run(w.Name+".c", string(src), c.pipe)
				got, gotErr := gcsafety.Run(w.Name+".c", string(src), c.pipe)
				if (wantErr == nil) != (gotErr == nil) ||
					(wantErr != nil && wantErr.Error() != gotErr.Error()) {
					t.Fatalf("runs disagree on classification:\n  first:  %v\n  second: %v", wantErr, gotErr)
				}
				if got.Report == nil || !got.Report.AllHits() {
					t.Errorf("second build was not served entirely from the artifact cache")
				}
				if want.Program != got.Program {
					t.Errorf("second run did not execute the cached program")
				}
				if want.Exec.Output != got.Exec.Output ||
					want.Exec.Instrs != got.Exec.Instrs ||
					want.Exec.Cycles != got.Exec.Cycles {
					t.Errorf("simulated results diverge:\n  first:  %q instrs=%d cycles=%d\n  second: %q instrs=%d cycles=%d",
						want.Exec.Output, want.Exec.Instrs, want.Exec.Cycles,
						got.Exec.Output, got.Exec.Instrs, got.Exec.Cycles)
				}
				ws, gs := want.Exec.Snapshot, got.Exec.Snapshot
				if (ws == nil) != (gs == nil) {
					t.Fatalf("snapshot presence diverges: first %v, second %v", ws != nil, gs != nil)
				}
				if ws != nil && (ws.Trigger != gs.Trigger || ws.FaultAddr != gs.FaultAddr) {
					t.Errorf("violation classification diverges:\n  first:  trigger=%q addr=%#x\n  second: trigger=%q addr=%#x",
						ws.Trigger, ws.FaultAddr, gs.Trigger, gs.FaultAddr)
				}
			})
		}
	}
}

// Smoke test: the example must show both temporal bugs detected, the safe
// builds reproducing the golden outputs, and no silent divergence anywhere.
func TestHazardsExampleSmoke(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "hazards")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cmd := exec.Command(bin)
	cmd.Dir = "." // golden files load relative to the example directory
	out, err = cmd.Output()
	if err != nil {
		t.Fatalf("hazards example: %v", err)
	}
	text := string(out)
	if strings.Count(text, "DETECTED") < 2 {
		t.Fatalf("example detected fewer than the two temporal bugs:\n%s", text)
	}
	if strings.Count(text, "ok, golden output") < 3 {
		t.Fatalf("safe builds did not all reproduce their golden outputs:\n%s", text)
	}
	if strings.Contains(text, "SILENT DIVERGENCE") {
		t.Fatalf("a build silently diverged:\n%s", text)
	}
}
