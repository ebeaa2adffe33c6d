package bench

import (
	"sync"
	"testing"

	"gcsafety/internal/machine"
	"gcsafety/internal/workloads"
)

// buildTables renders the tables under test into one string. -short keeps
// the -race gate fast with a single machine's slowdown table and the hazard
// table; the full run adds every other table cmd/benchtables prints and
// one ablation.
func buildTables(t *testing.T) string {
	t.Helper()
	var out string
	add := func(tbl *Table, err error) {
		if err != nil {
			t.Fatal(err)
		}
		out += tbl.String()
	}
	add(SlowdownTable(machine.SPARCstation10()))
	// The hazard table exercises the temporal and concurrent-mutator
	// treatments; keeping it in the -short set means the -race gate proves
	// the concurrent cells are deterministic at every fan-out width.
	add(HazardTable(machine.SPARCstation10()))
	if !testing.Short() {
		add(SlowdownTable(machine.SPARCstation2()))
		add(SlowdownTable(machine.Pentium90()))
		add(CodeSizeTable(machine.SPARCstation10()))
		add(PostprocessorTable(machine.SPARCstation10()))
		add(ElisionTable(machine.SPARCstation10()))
		add(AblationCallVsAsm(machine.SPARCstation10()))
	}
	return out
}

// TestTablesParallelDeterministic is the acceptance bar for the parallel
// cell fan-out: tables built with parallel prefetch must be byte-identical
// to a sequential build, at any width. Run under -race (make race) this
// also shakes out data races in the fan-out itself.
func TestTablesParallelDeterministic(t *testing.T) {
	defer setParallelism(0)
	defer ResetCache()

	setParallelism(1)
	ResetCache()
	seq := buildTables(t)

	for _, width := range []int{2, 8} {
		setParallelism(width)
		ResetCache()
		if par := buildTables(t); par != seq {
			t.Fatalf("width-%d tables differ from sequential build:\n--- sequential ---\n%s\n--- parallel ---\n%s",
				width, seq, par)
		}
	}
}

// TestMeasureAllPositional pins MeasureAll's contract: out[i] answers
// reqs[i], and the results are the same *Measurement the sequential
// Measure path returns (shared cache entries, not copies).
func TestMeasureAllPositional(t *testing.T) {
	defer setParallelism(0)
	defer ResetCache()
	setParallelism(4)
	ResetCache()

	cfg := machine.SPARCstation10()
	all := workloads.All()
	reqs := make([]CellRequest, 0, 2*len(all))
	for _, w := range all {
		reqs = append(reqs,
			CellRequest{Workload: w, Treatment: Opt, Machine: cfg},
			CellRequest{Workload: w, Treatment: OptSafe, Machine: cfg})
	}
	out, err := MeasureAll(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(reqs) {
		t.Fatalf("got %d results for %d requests", len(out), len(reqs))
	}
	for i, req := range reqs {
		got, err := Measure(req.Workload, req.Treatment, req.Machine)
		if err != nil {
			t.Fatal(err)
		}
		if out[i] != got {
			t.Fatalf("result %d (%s/%s) is not the cached measurement", i, req.Workload.Name, req.Treatment.Name)
		}
	}
}

// TestMeasureStampede proves the singleflight guarantee under real
// concurrency: many goroutines measuring the same cold cell compile it
// exactly once.
func TestMeasureStampede(t *testing.T) {
	defer ResetCache()
	ResetCache()

	w, ok := workloads.ByName("cordtest")
	if !ok {
		t.Fatal("no cordtest workload")
	}
	cfg := machine.SPARCstation10()

	const callers = 8
	var wg sync.WaitGroup
	results := make([]*Measurement, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = Measure(w, OptSafe, cfg)
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different measurement instance", i)
		}
	}
	if n := CellCompiles(); n != 1 {
		t.Fatalf("%d concurrent Measure calls compiled the cell %d times, want 1", callers, n)
	}
	// The stampede coalesced above the cell cache, so the pipeline below it
	// saw one build: every stage executed at most once.
	for _, st := range PipelineStats() {
		if st.Misses > 1 {
			t.Fatalf("stage %s executed %d times under the stampede, want at most 1", st.Stage, st.Misses)
		}
	}
}
