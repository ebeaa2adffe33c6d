package bench

import (
	"fmt"
	"math"
	"strings"

	"gcsafety/internal/gcsafe"
	"gcsafety/internal/heapdump"
	"gcsafety/internal/machine"
	"gcsafety/internal/workloads"
)

// Cell is one formatted table entry.
type Cell struct {
	Pct     float64 // slowdown or expansion percentage
	Fails   bool    // "<fails>" (gawk checked)
	Unavail bool    // "-" (cfrac -g)
	// IsBytes marks an absolute byte-count cell (the retained@exit
	// column): it renders Bytes as "1,234B" instead of a percentage.
	IsBytes bool
	Bytes   uint64
}

func (c Cell) String() string {
	switch {
	case c.IsBytes:
		return heapdump.Comma(c.Bytes) + "B"
	case c.Fails:
		return "<fails>"
	case c.Unavail:
		return "-"
	default:
		return fmt.Sprintf("%.0f%%", c.Pct)
	}
}

// Row is one workload's row in a table.
type Row struct {
	Workload string
	Cells    []Cell
}

// Table is one reproduced paper table.
type Table struct {
	Title   string
	Columns []string
	Rows    []Row
}

// String renders the table in the paper's layout.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", t.Title)
	fmt.Fprintf(&sb, "%-10s", "")
	for _, c := range t.Columns {
		fmt.Fprintf(&sb, "%-16s", c)
	}
	sb.WriteString("\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%-10s", r.Workload)
		for _, c := range r.Cells {
			fmt.Fprintf(&sb, "%-16s", c.String())
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// column is one treatment column of a table: each cell is the treatment's
// cost relative to the row's optimized (-O) baseline.
type column struct {
	label string
	tr    Treatment
	// size compares static code size instead of simulated cycles.
	size bool
	// derive, when set, replaces the row's workload with one derived from
	// it before measuring this column's cell.
	derive func(workloads.Workload) (workloads.Workload, error)
}

// table describes one reproduced table: every table is a value of this
// type, and build is the one function that measures and assembles it.
type table struct {
	title string
	rows  []workloads.Workload
	cols  []column
	// retained appends the retained@exit column (MeasureRetained).
	retained bool
}

// unavailable reports whether a cell reads "-": the workload has no debug
// build (the paper's cfrac footnote) and the treatment is a debug one.
func unavailable(w workloads.Workload, tr Treatment) bool {
	return w.DebugUnavailable && !tr.Optimize
}

// build measures every cell of the table in one parallel batch — each
// row's baseline followed by its available column cells — and assembles
// the rows from the positional results in the same order. Assembly order
// never depends on completion order, so the output is identical at every
// fan-out width.
func (s table) build(cfg machine.Config) (*Table, error) {
	t := &Table{Title: s.title}
	for _, c := range s.cols {
		t.Columns = append(t.Columns, c.label)
	}
	if s.retained {
		t.Columns = append(t.Columns, "retained@exit")
	}
	var reqs []CellRequest
	for _, w := range s.rows {
		reqs = append(reqs, CellRequest{Workload: w, Treatment: Opt, Machine: cfg})
		for _, c := range s.cols {
			if unavailable(w, c.tr) {
				continue
			}
			cw := w
			if c.derive != nil {
				var err error
				if cw, err = c.derive(w); err != nil {
					return nil, err
				}
			}
			reqs = append(reqs, CellRequest{Workload: cw, Treatment: c.tr, Machine: cfg})
		}
	}
	ms, err := MeasureAll(reqs)
	if err != nil {
		return nil, err
	}
	var retained []uint64
	if s.retained {
		if retained, err = measureRetainedAll(s.rows); err != nil {
			return nil, err
		}
	}
	next := 0
	for wi, w := range s.rows {
		base := ms[next]
		next++
		row := Row{Workload: w.Name}
		for _, c := range s.cols {
			if unavailable(w, c.tr) {
				row.Cells = append(row.Cells, Cell{Unavail: true})
				continue
			}
			m := ms[next]
			next++
			switch {
			case c.size:
				row.Cells = append(row.Cells, Cell{Pct: pct(uint64(m.Size), uint64(base.Size))})
			case m.CheckFailed:
				row.Cells = append(row.Cells, Cell{Fails: true})
			default:
				row.Cells = append(row.Cells, Cell{Pct: pct(m.Cycles, base.Cycles)})
			}
		}
		if s.retained {
			row.Cells = append(row.Cells, Cell{IsBytes: true, Bytes: retained[wi]})
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func pct(mode, base uint64) float64 {
	if base == 0 {
		return math.NaN()
	}
	return (float64(mode)/float64(base) - 1) * 100
}

// SlowdownTable reproduces the paper's per-machine running-time tables
// (SPARCstation 2, SPARC 10, Pentium 90): "slowdown percentages relative to
// the unpreprocessed optimized version" for GC-safe code, fully debuggable
// code, and debuggable code with pointer-arithmetic checks.
func SlowdownTable(cfg machine.Config) (*Table, error) {
	return table{
		title: cfg.Name + ":",
		rows:  workloads.All(),
		cols: []column{
			{label: "-O, safe", tr: OptSafe},
			{label: "-g", tr: Debug},
			{label: "-g, checked", tr: DebugChecked},
		},
		retained: true,
	}.build(cfg)
}

// CodeSizeTable reproduces the object-code expansion table: static
// instruction counts of the processed code only, "not the standard
// libraries", relative to the optimized build.
func CodeSizeTable(cfg machine.Config) (*Table, error) {
	return table{
		title: "Object code size expansion (" + cfg.Name + "):",
		rows:  workloads.All(),
		cols: []column{
			{label: "-O, safe", tr: OptSafe, size: true},
			{label: "-g", tr: Debug, size: true},
			{label: "-g, checked", tr: DebugChecked, size: true},
		},
	}.build(cfg)
}

// PostprocessorTable reproduces the final table: residual running-time and
// code-size degradation of safe code after the peephole postprocessor,
// relative to the fully optimized normally compiled code.
func PostprocessorTable(cfg machine.Config) (*Table, error) {
	return table{
		title: "After the postprocessor (" + cfg.Name + "):",
		rows:  workloads.All(),
		cols: []column{
			{label: "running time", tr: OptSafePost},
			{label: "code size", tr: OptSafePost, size: true},
		},
	}.build(cfg)
}

// ElisionTable measures the liveness-elision treatment columns against
// their classic twins: slowdowns relative to the unpreprocessed optimized
// build, with and without the Liveness stage's elision. A "<fails>" cell in
// a checked column is gawk's intentional out-of-object arithmetic being
// caught — it must appear in *both* checked columns, since elision only
// drops checks that provably cannot fire.
func ElisionTable(cfg machine.Config) (*Table, error) {
	return table{
		title: "Liveness-based elision (" + cfg.Name + "):",
		rows:  workloads.All(),
		cols: []column{
			{label: "-O, safe", tr: OptSafe},
			{label: "-O, safe-elided", tr: OptSafeElided},
			{label: "-g, checked", tr: DebugChecked},
			{label: "-g, checked-elided", tr: DebugCheckedElided},
		},
	}.build(cfg)
}

// HazardTable measures the temporal/concurrency hazard catalogue
// (internal/workloads.Hazards()) under the extension's treatment columns.
// A "<fails>" cell is the desired outcome: the temporal checker caught the
// workload's seeded use-after-free or double-free as a deterministic
// violation. The remaining cells are slowdowns relative to the optimized
// baseline, as in the paper's tables (the mt4 column's cost includes the
// worker threads the single-thread baseline never runs).
func HazardTable(cfg machine.Config) (*Table, error) {
	return table{
		title: "Temporal/concurrent hazard workloads (" + cfg.Name + "):",
		rows:  workloads.Hazards(),
		cols: []column{
			{label: "-O, safe", tr: OptSafe},
			{label: "-O, temporal", tr: OptTemporal},
			{label: "-O, safe, mt4", tr: OptSafeConcurrent},
		},
		retained: true,
	}.build(cfg)
}

// Ablation studies for the design choices DESIGN.md calls out. Each is a
// table whose columns are variants of the safe treatment.

// AblationCallVsAsm compares the paper's two KEEP_LIVE implementations:
// the opaque-external-function fallback ("terribly inefficient") versus the
// empty-asm pseudo-instruction. The call variant is produced by running the
// annotated *source text* back through the front end, so every KEEP_LIVE is
// a genuine function call.
func AblationCallVsAsm(cfg machine.Config) (*Table, error) {
	return table{
		title: "KEEP_LIVE implementation: empty asm vs. opaque call (" + cfg.Name + "):",
		rows:  workloads.All(),
		cols: []column{
			{label: "asm (safe)", tr: OptSafe},
			{label: "call", tr: Opt, derive: annotatedSource},
		},
	}.build(cfg)
}

// annotatedSource derives the call variant's workload: the annotated
// source, which the front end re-parses with KEEP_LIVE as a plain call.
func annotatedSource(w workloads.Workload) (workloads.Workload, error) {
	res, err := gcsafe.AnnotateSource(w.Name+".c", w.Source, gcsafe.Options{})
	if err != nil {
		return w, err
	}
	w.Source = res.Output
	w.Want = "" // output text identical, but skip double-checking
	return w, nil
}

// AblationCopySuppression measures the paper's optimization (1): with
// suppression disabled, every plain pointer copy also gets a KEEP_LIVE.
func AblationCopySuppression(cfg machine.Config) (*Table, error) {
	return ablation(cfg, "Optimization (1) copy suppression",
		"safe (opt1 on)", "safe (opt1 off)", "no-opt1", gcsafe.Options{NoCopySuppression: true})
}

// AblationIncDecExpansion measures the paper's optimization (2): with the
// specialized expansion disabled, pointer ++/-- forces the variable's
// address to be taken, pushing it out of registers.
func AblationIncDecExpansion(cfg machine.Config) (*Table, error) {
	return ablation(cfg, "Optimization (2) ++/-- expansion",
		"safe (opt2 on)", "safe (opt2 off)", "no-opt2", gcsafe.Options{NoIncDecExpansion: true})
}

// AblationBaseHeuristic measures the paper's optimization (3): replacing
// base pointers with slowly varying equivalents.
func AblationBaseHeuristic(cfg machine.Config) (*Table, error) {
	return ablation(cfg, "Optimization (3) base-pointer heuristic",
		"safe", "safe + heuristic", "heuristic", gcsafe.Options{BaseHeuristic: true})
}

// AblationCallSiteOnly measures the paper's optimization (4): "If we know
// that garbage collections can be triggered only at procedure calls, the
// number of KEEP_LIVE invocations could often be reduced dramatically."
// The reduced program is measured under the allocation-trigger regime it
// is safe for.
func AblationCallSiteOnly(cfg machine.Config) (*Table, error) {
	return ablation(cfg, "Optimization (4) call-site-only annotation",
		"safe (async)", "safe (call-site)", "call-site", gcsafe.Options{CallSiteOnly: true})
}

// ablation is an annotator ablation: the safe build with the default
// annotator options against the safe build with the variant options.
func ablation(cfg machine.Config, title, safeLabel, variantLabel, name string, variant gcsafe.Options) (*Table, error) {
	tr := OptSafe
	tr.Name = "-O, safe, " + name
	tr.Gcsafe = &variant
	return table{
		title: title + " (" + cfg.Name + "):",
		rows:  workloads.All(),
		cols: []column{
			{label: safeLabel, tr: OptSafe},
			{label: variantLabel, tr: tr},
		},
	}.build(cfg)
}
