package bench

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"gcsafety/internal/gcsafe"
	"gcsafety/internal/machine"
	"gcsafety/internal/workloads"
)

var updateCells = flag.Bool("update", false, "rewrite testdata/cells.golden from the current measurements")

const cellsGolden = "testdata/cells.golden"

// goldenCell is one pinned cell: a stable label, the request behind it,
// and whether the -short subset checks it.
type goldenCell struct {
	label string
	req   CellRequest
	short bool
}

// goldenCells lists, by hand, every cell `benchtables -ablations` measures:
// the slowdown cells on every machine (the code-size table reuses the
// SPARCstation 10 ones), the postprocessor, elision and hazard cells, and
// the ablation variants on the SPARCstation 10. The list is written out
// here rather than read off the tables so that the oracle does not depend
// on how the tables assemble themselves. The -short subset is the
// SPARCstation 10 slowdown table and the hazard table.
func goldenCells(t *testing.T) []goldenCell {
	t.Helper()
	var out []goldenCell
	add := func(w workloads.Workload, cfg machine.Config, short bool, label string, tr Treatment) {
		out = append(out, goldenCell{
			label: machine.ShortName(cfg) + "|" + w.Name + "|" + label,
			req:   CellRequest{Workload: w, Treatment: tr, Machine: cfg},
			short: short,
		})
	}
	ss10 := machine.SPARCstation10()
	for _, cfg := range machine.Configs() {
		short := cfg.Name == ss10.Name
		for _, w := range workloads.All() {
			add(w, cfg, short, "O", Opt)
			add(w, cfg, short, "O_safe", OptSafe)
			if !w.DebugUnavailable {
				add(w, cfg, short, "g", Debug)
				add(w, cfg, short, "g_checked", DebugChecked)
			}
		}
	}
	variant := func(o gcsafe.Options) Treatment {
		tr := OptSafe
		tr.Gcsafe = &o
		return tr
	}
	for _, w := range workloads.All() {
		add(w, ss10, false, "O_safe_post", OptSafePost)
		add(w, ss10, false, "O_safe-elided", OptSafeElided)
		if !w.DebugUnavailable {
			add(w, ss10, false, "g_checked-elided", DebugCheckedElided)
		}
		res, err := gcsafe.AnnotateSource(w.Name+".c", w.Source, gcsafe.Options{})
		if err != nil {
			t.Fatal(err)
		}
		call := w
		call.Source = res.Output
		call.Want = ""
		add(call, ss10, false, "O_call-keep-live", Opt)
		add(w, ss10, false, "O_safe_no-opt1", variant(gcsafe.Options{NoCopySuppression: true}))
		add(w, ss10, false, "O_safe_no-opt2", variant(gcsafe.Options{NoIncDecExpansion: true}))
		add(w, ss10, false, "O_safe_heuristic", variant(gcsafe.Options{BaseHeuristic: true}))
		add(w, ss10, false, "O_safe_call-site", variant(gcsafe.Options{CallSiteOnly: true}))
	}
	for _, w := range workloads.Hazards() {
		add(w, ss10, true, "O", Opt)
		add(w, ss10, true, "O_safe", OptSafe)
		add(w, ss10, true, "O_temporal", OptTemporal)
		add(w, ss10, true, "O_safe_mt4", OptSafeConcurrent)
	}
	return out
}

// goldenLine renders one measurement: every simulated figure of the
// cell, and a digest of its output.
func goldenLine(m *Measurement) string {
	return fmt.Sprintf("cycles=%d instrs=%d size=%d collections=%d check_failed=%t output=%x",
		m.Cycles, m.Instrs, m.Size, m.Collections, m.CheckFailed, sha256.Sum256([]byte(m.Output)))
}

// TestCellsGolden pins the simulated result of every table cell. A change
// to the compiler, the annotator, the cost model or the interpreter that
// moves any cell's cycles, instructions, size, collections, checker
// verdict or output fails here, naming the cell. Regenerate with
// `go test ./internal/bench -run TestCellsGolden -update` only when the
// change is meant to move the numbers.
func TestCellsGolden(t *testing.T) {
	cells := goldenCells(t)
	if testing.Short() && !*updateCells {
		var sub []goldenCell
		for _, c := range cells {
			if c.short {
				sub = append(sub, c)
			}
		}
		cells = sub
	}
	reqs := make([]CellRequest, len(cells))
	for i, c := range cells {
		reqs[i] = c.req
	}
	ms, err := MeasureAll(reqs)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]string, len(cells))
	for i, c := range cells {
		if _, dup := got[c.label]; dup {
			t.Fatalf("duplicate golden label %q", c.label)
		}
		got[c.label] = goldenLine(ms[i])
	}

	if *updateCells {
		lines := make([]string, 0, len(got))
		for label, line := range got {
			lines = append(lines, label+"\t"+line)
		}
		sort.Strings(lines)
		if err := os.MkdirAll(filepath.Dir(cellsGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cellsGolden, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	data, err := os.ReadFile(cellsGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		label, fields, ok := strings.Cut(line, "\t")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		want[label] = fields
	}
	for _, c := range cells {
		w, ok := want[c.label]
		if !ok {
			t.Errorf("%s: missing from %s", c.label, cellsGolden)
			continue
		}
		if got[c.label] != w {
			t.Errorf("%s:\n got  %s\n want %s", c.label, got[c.label], w)
		}
	}
	if !testing.Short() && len(want) != len(cells) {
		t.Errorf("%s has %d cells, the enumeration %d", cellsGolden, len(want), len(cells))
	}
}
