package bench

import (
	"testing"

	"gcsafety/internal/machine"
	"gcsafety/internal/pipeline"
	"gcsafety/internal/workloads"
)

// TestMeasureAllSharesFrontEnd is the stage-sharing acceptance bar for
// the pipeline refactor: the full table cell set — every workload under
// the four canonical treatments plus the postprocessor treatment, on all
// three machines, fanned out at parallelism 8 — must execute Lex, Parse
// and Typecheck exactly once per workload. Everything else is a stage
// cache hit (or singleflight wait) by construction.
func TestMeasureAllSharesFrontEnd(t *testing.T) {
	defer setParallelism(0)
	defer ResetCache()
	setParallelism(8)
	ResetCache()

	var reqs []CellRequest
	for _, cfg := range machine.Configs() {
		for _, w := range workloads.All() {
			for _, tr := range append(slowdownTreatments(w), OptSafePost) {
				reqs = append(reqs, CellRequest{Workload: w, Treatment: tr, Machine: cfg})
			}
		}
	}
	if _, err := MeasureAll(reqs); err != nil {
		t.Fatal(err)
	}
	want := uint64(len(workloads.All()))
	for _, st := range PipelineStats() {
		switch st.Stage {
		case "lex", "parse", "typecheck":
			if st.Misses != want {
				t.Errorf("%s: %d executions across %d cells, want one per workload (%d)",
					st.Stage, st.Misses, len(reqs), want)
			}
			if st.Errors != 0 {
				t.Errorf("%s: %d stage errors", st.Stage, st.Errors)
			}
		}
	}
}

// TestStageVersionBumpInvalidatesCells pins the invalidation rule that
// folds pipeline stage versions into bench cell keys: bumping any
// stage's version must recompute cells, not serve stale measurements.
func TestStageVersionBumpInvalidatesCells(t *testing.T) {
	defer ResetCache()
	ResetCache()

	w := workloads.All()[0]
	cfg := machine.SPARCstation10()
	first, err := Measure(w, Opt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Measure(w, Opt, cfg); err != nil {
		t.Fatal(err)
	}
	if n := CellCompiles(); n != 1 {
		t.Fatalf("warm re-measure compiled %d cells, want 1", n)
	}

	restore := pipeline.SetVersionForTest(pipeline.StageCodegen, "v1-cell-invalidation-test")
	defer restore()
	bumped, err := Measure(w, Opt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := CellCompiles(); n != 2 {
		t.Fatalf("measure after a stage version bump compiled %d cells total, want 2 (recompute)", n)
	}
	// The stage implementation did not actually change, so the recomputed
	// cell must agree with the original measurement.
	if bumped.Cycles != first.Cycles || bumped.Size != first.Size || bumped.Output != first.Output {
		t.Fatal("recomputed cell diverges from the original measurement")
	}
}
