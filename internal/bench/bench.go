// Package bench is the measurement harness for the evaluation: it builds
// each workload under the paper's compilation treatments, executes it on a
// machine model, and regenerates every table of the paper's Performance,
// Analysis and Postprocessor sections (see EXPERIMENTS.md for the
// paper-vs-measured record).
package bench

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"gcsafety/internal/artifact"
	"gcsafety/internal/gcsafe"
	"gcsafety/internal/heapdump"
	"gcsafety/internal/interp"
	"gcsafety/internal/machine"
	"gcsafety/internal/pipeline"
	"gcsafety/internal/workloads"
)

// Treatment is one compilation configuration measured in the paper.
type Treatment struct {
	Name     string
	Annotate bool
	Checked  bool
	Optimize bool
	Post     bool
	// Temporal selects the temporal annotation mode (free→GC_free plus
	// checked-mode pointer validation) and the interpreter's epoch checker.
	Temporal bool
	// Threads runs the cell on a concurrent-mutator simulation with this
	// many threads (0 or 1 = the single-thread interpreter).
	Threads int
	// SchedSeed selects the interleaving of a concurrent cell
	// (0 = the interpreter's fixed default schedule).
	SchedSeed uint64
	// Elide turns on the liveness-based elision analysis: KEEP_LIVE
	// annotations (and, in checked mode, provably in-bounds GC_same_obj
	// checks) that the pipeline's Liveness stage proves redundant are
	// dropped before codegen.
	Elide bool
	// Gcsafe overrides the default annotator options (ablations).
	Gcsafe *gcsafe.Options
}

// Canonical treatments, named as in the paper's tables.
var (
	Opt          = Treatment{Name: "-O", Optimize: true}
	OptSafe      = Treatment{Name: "-O, safe", Optimize: true, Annotate: true}
	Debug        = Treatment{Name: "-g"}
	DebugChecked = Treatment{Name: "-g, checked", Annotate: true, Checked: true}
	OptSafePost  = Treatment{Name: "-O, safe+post", Optimize: true, Annotate: true, Post: true}
)

// Treatments of the liveness-elision axis (the elision table).
var (
	// OptSafeElided is the safe production build with redundant KEEP_LIVE
	// annotations elided by the liveness analysis.
	OptSafeElided = Treatment{Name: "-O, safe-elided", Optimize: true, Annotate: true, Elide: true}
	// DebugCheckedElided is the checked debugging build with provably
	// in-bounds GC_same_obj checks elided; every check that can fire is
	// kept, so its detection power matches -g, checked exactly.
	DebugCheckedElided = Treatment{Name: "-g, checked-elided", Annotate: true, Checked: true, Elide: true}
)

// Treatments of the temporal/concurrency extension (the hazard table).
var (
	// OptTemporal is the temporal checker build: optimized, annotated in
	// temporal mode, executed with allocation-epoch checking on.
	OptTemporal = Treatment{Name: "-O, temporal", Optimize: true, Annotate: true, Temporal: true}
	// OptSafeConcurrent runs the safe production build on the
	// four-thread concurrent-mutator simulation at the default schedule.
	OptSafeConcurrent = Treatment{Name: "-O, safe, mt4", Optimize: true, Annotate: true, Threads: 4}
)

// Measurement is the result of one (workload, treatment, machine) cell.
type Measurement struct {
	Cycles      uint64
	Instrs      uint64
	Size        int // static instruction count of processed code
	Output      string
	CheckFailed bool // the pointer-arithmetic checker fired (gawk)
	Collections uint64
}

// cells is the harness's artifact cache. Every (workload, treatment,
// machine) cell is fully deterministic — same compile, same cycle counts —
// so the whole Measurement is content-addressed by the cell's inputs and
// computed once, no matter how many tables ask for it. Before this cache
// each table recompiled (and re-ran) its baseline and repeated cells from
// scratch; see EXPERIMENTS.md ("Artifact-cache speedup") for the measured
// effect. Unbounded: the cell space is the small finite treatment matrix.
var cells = artifact.New(0)

// pipe is the stage-graph pipeline behind every cell build. Cells cache
// whole Measurements; the pipeline underneath additionally shares the
// per-stage artifacts between cells, so the 3 tables x 4 treatments x 3
// machines of a full MeasureAll lex, parse and typecheck each workload
// exactly once.
var pipe = pipeline.NewRunner(artifact.New(0))

// cellCompiles counts the cells actually built and run (cache misses).
var cellCompiles atomic.Uint64

// CellCompiles reports how many cells have been measured for real since
// the last ResetCache (the rest were cache hits).
func CellCompiles() uint64 { return cellCompiles.Load() }

// CacheStats exposes the cell cache's counters.
func CacheStats() artifact.Stats { return cells.Stats() }

// PipelineStats exposes the per-stage counters of the pipeline under the
// cell cache (tests assert front-end sharing on these).
func PipelineStats() []pipeline.StageStat { return pipe.Stats() }

// ResetCache drops every cached cell and stage artifact (benchmarks that
// want to time the cold path).
func ResetCache() {
	cells = artifact.New(0)
	pipe = pipeline.NewRunner(artifact.New(0))
	cellCompiles.Store(0)
}

// options lowers the treatment to the pipeline and interpreter options
// of one cell: the single description that both keys and runs it.
func (tr Treatment) options(w workloads.Workload, cfg machine.Config) (pipeline.Options, interp.Options) {
	ann := gcsafe.Options{}
	if tr.Gcsafe != nil {
		ann = *tr.Gcsafe
	}
	if tr.Temporal {
		ann.Mode = gcsafe.ModeTemporal
	} else if tr.Checked {
		ann.Mode = gcsafe.ModeChecked
	}
	if tr.Elide {
		ann.Elide = true
	}
	build := pipeline.Options{
		Annotate:        tr.Annotate,
		AnnotateOptions: ann,
		Optimize:        tr.Optimize,
		Post:            tr.Post,
		Machine:         cfg,
	}
	run := interp.Options{
		Config:    cfg,
		Input:     w.Input,
		Temporal:  tr.Temporal,
		Threads:   tr.Threads,
		SchedSeed: tr.SchedSeed,
	}
	return build, run
}

// runKey is the pipeline's key for running w under the given options.
// The harness never arms faults, so every run is cacheable.
func runKey(w workloads.Workload, popts pipeline.Options, eopts interp.Options) artifact.Key {
	k, _ := pipeline.RunKey(pipeline.BuildKey(w.Name+".c", w.Source, popts), eopts)
	return k
}

// cellKey is a cell's cache identity: the pipeline's run key — which
// covers the workload's name, source and input, every treatment option
// that reaches the build or the run, the machine, and the version of
// every stage the build walks — plus the expected output the cell is
// checked against.
func cellKey(w workloads.Workload, tr Treatment, cfg machine.Config) artifact.Key {
	popts, eopts := tr.options(w, cfg)
	return artifact.NewKey("bench-cell").Str(string(runKey(w, popts, eopts))).Str(w.Want).Sum()
}

// Measure returns one cell's measurement, computing it at most once per
// distinct cell across all tables (and all concurrent callers). The
// returned Measurement is shared: callers must not mutate it.
func Measure(w workloads.Workload, tr Treatment, cfg machine.Config) (*Measurement, error) {
	v, _, err := cells.GetOrCompute(context.Background(), cellKey(w, tr, cfg), func() (any, int64, error) {
		cellCompiles.Add(1)
		m, err := measureCell(w, tr, cfg)
		if err != nil {
			return nil, 0, err
		}
		return m, int64(len(m.Output)) + 128, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*Measurement), nil
}

// measureCell builds one cell on the stage-graph pipeline and runs it.
// The compiled program is shared through the pipeline's artifact cache
// (the interpreter never mutates it), so cells differing only in input
// or expected output reuse the whole build.
func measureCell(w workloads.Workload, tr Treatment, cfg machine.Config) (*Measurement, error) {
	popts, eopts := tr.options(w, cfg)
	b, err := pipe.Build(context.Background(), w.Name+".c", w.Source, popts)
	if err != nil {
		var se *pipeline.StageError
		if errors.As(err, &se) {
			return nil, fmt.Errorf("%s: %s: %w", w.Name, se.Stage.Phase(), se.Err)
		}
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	prog := b.Prog
	m := &Measurement{Size: prog.Size()}
	res, err := interp.Run(prog, eopts)
	if err != nil {
		var ce *interp.CheckError
		if errors.As(err, &ce) {
			m.CheckFailed = true
			return m, nil
		}
		return nil, fmt.Errorf("%s [%s]: %w", w.Name, tr.Name, err)
	}
	m.Cycles = res.Cycles
	m.Instrs = res.Instrs
	m.Output = res.Output
	m.Collections = res.GCStats.Collections
	if w.Want != "" && res.Output != w.Want {
		return nil, fmt.Errorf("%s [%s]: wrong output", w.Name, tr.Name)
	}
	return m, nil
}

// MeasureRetained returns the total retained size of the live heap at the
// workload's exit — the sum over the dominator tree's root-dominated
// objects of an end-of-run heapdump snapshot — measured on the optimized
// baseline build (treatments change code, not the workload's data
// structures). It is a separate run from the timed cells: the
// allocation-site profiler costs a map insert per simulated allocation,
// and folding that into every measured cell would tax the whole table
// sweep for one column. The machine config prices cycles but does not
// change allocation semantics, so the exit heap is machine-invariant;
// it is measured once per workload, on the canonical SPARCstation 10.
func MeasureRetained(w workloads.Workload) (uint64, error) {
	popts, eopts := Opt.options(w, machine.SPARCstation10())
	eopts.HeapProfile = true
	k := artifact.NewKey("bench-retained").Str(string(runKey(w, popts, eopts))).Sum()
	v, _, err := cells.GetOrCompute(context.Background(), k, func() (any, int64, error) {
		b, err := pipe.Build(context.Background(), w.Name+".c", w.Source, popts)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", w.Name, err)
		}
		res, err := interp.Run(b.Prog, eopts)
		if err != nil {
			return nil, 0, fmt.Errorf("%s [retained]: %w", w.Name, err)
		}
		return retainedAtExit(res.Snapshot), 8, nil
	})
	if err != nil {
		return 0, err
	}
	return v.(uint64), nil
}

// retainedAtExit sums the retained sizes of the root-dominated objects of
// the end-of-run snapshot — the bytes the roots would lose if severed,
// i.e. the total reachable heap at exit.
func retainedAtExit(s *heapdump.Snapshot) uint64 {
	if s == nil {
		return 0
	}
	a := heapdump.Analyze(s)
	var sum uint64
	for i, idom := range a.Dom.Idom {
		if idom == a.Dom.Root {
			sum += a.Dom.Retained[i]
		}
	}
	return sum
}
