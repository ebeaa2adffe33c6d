package main

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"gcsafety/internal/bench"
	"gcsafety/internal/gcsafe"
	"gcsafety/internal/interp"
	"gcsafety/internal/machine"
	"gcsafety/internal/pipeline"
	"gcsafety/internal/workloads"
)

// tablesCold regenerates every table of the evaluation from an empty cell
// cache, over and over. EngineTable is left out: it is wall-clock and
// names engines. One operation is one sweep of 65 cells; a few large Zorn
// programs run for millions of simulated cycles, so execution dominates.
func tablesCold(opt options) (*report, error) {
	r := &report{}
	cells := sweepCells()
	// Set-up is one untimed sweep, checked like the timed ones: it faults
	// in the code and grows the heap, so the timed sweeps measure steady
	// state.
	setup, err := opt.setUp(func() error {
		tables, computed, err := sweep()
		if err != nil {
			return err
		}
		if p := checkSweep(tables, computed, cells); p != "" {
			return fmt.Errorf("set-up sweep: %s", p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var lat []float64
	var done []time.Duration
	var stageHits, stageCalls, cacheHits, cacheLookups float64
	win := openWindow()
	deadline := win.start.Add(time.Duration(opt.seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		r.attempted++
		t0 := time.Now()
		tables, computed, err := sweep()
		lat = append(lat, float64(time.Since(t0))/1e6)
		done = append(done, time.Since(win.start))
		if err != nil {
			r.fail("sweep: %v", err)
			continue
		}
		for _, st := range bench.PipelineStats() {
			stageHits += float64(st.Hits)
			stageCalls += float64(st.Calls)
		}
		cs := bench.CacheStats()
		cacheHits += float64(cs.Hits)
		cacheLookups += float64(cs.Hits + cs.Misses)
		if p := checkSweep(tables, computed, cells); p != "" {
			r.fail("%s", p)
		}
	}
	win.close()

	sim, simLayer, err := simulated(r)
	if err != nil {
		return nil, err
	}
	ops := summarise(lat)
	r.setE2E(setup, win, ops, done, sim)
	r.human = append(r.human, metric{"tables_s", ops.p50 / 1e3, "s"})
	r.layer = append(r.layer,
		metric{"bench.cells_computed", float64(len(cells)), "count"},
		metric{"pipeline.stage_hit_frac", stageHits / stageCalls, "1"},
		metric{"artifact.hit_frac", cacheHits / cacheLookups, "1"},
		metric{"host.gc_cpu_frac", win.gcCPUFrac(), "1"},
	)
	r.layer = append(r.layer, simLayer...)
	if !opt.trace {
		return r, nil
	}
	gs := workloads.Gs()
	cold, warm, _, err := pipelineProbe(gs.Name+".c", gs.Source, []pipeline.Options{
		{Annotate: true, Optimize: true, Machine: machine.SPARCstation10()},
	})
	if err != nil {
		return nil, err
	}
	r.layer = append(r.layer, metric{"pipeline.build_cold_ms", cold, "ms"}, metric{"pipeline.build_warm_ms", warm, "ms"})
	u, err := lastSweep(cells)
	if err != nil {
		return nil, err
	}
	layer, spans, err := replayTraced("tables-cold", func(tr *tracer) (*chain, int, error) {
		return replaySweep(tr, cells, u)
	})
	if err != nil {
		return nil, err
	}
	r.layer = append(r.layer, layer...)
	r.spans = spans
	return r, nil
}

// sweep regenerates the tables from an empty cache and reports how many
// cells it computed.
func sweep() ([]*bench.Table, uint64, error) {
	bench.ResetCache()
	var tables []*bench.Table
	for _, cfg := range machine.Configs() {
		t, err := bench.SlowdownTable(cfg)
		if err != nil {
			return nil, 0, err
		}
		tables = append(tables, t)
	}
	ss10 := machine.SPARCstation10()
	for _, f := range []func(machine.Config) (*bench.Table, error){
		bench.CodeSizeTable, bench.PostprocessorTable, bench.ElisionTable, bench.HazardTable,
	} {
		t, err := f(ss10)
		if err != nil {
			return nil, 0, err
		}
		tables = append(tables, t)
	}
	return tables, bench.CellCompiles(), nil
}

// sweepCells lists the distinct cells behind the swept tables: the
// slowdown tables on every machine, and the postprocessor, elision and
// hazard tables on the SPARCstation 10 (the code-size table reuses the
// SPARCstation 10 slowdown cells).
func sweepCells() []bench.CellRequest {
	var out []bench.CellRequest
	seen := map[string]bool{}
	add := func(w workloads.Workload, cfg machine.Config, trs ...bench.Treatment) {
		for _, tr := range trs {
			k := w.Name + "|" + tr.Name + "|" + cfg.Name
			if !seen[k] {
				seen[k] = true
				out = append(out, bench.CellRequest{Workload: w, Treatment: tr, Machine: cfg})
			}
		}
	}
	ss10 := machine.SPARCstation10()
	for _, cfg := range machine.Configs() {
		for _, w := range workloads.All() {
			add(w, cfg, bench.Opt, bench.OptSafe)
			if !w.DebugUnavailable {
				add(w, cfg, bench.Debug, bench.DebugChecked)
			}
		}
	}
	for _, w := range workloads.All() {
		add(w, ss10, bench.OptSafePost, bench.OptSafeElided)
		if !w.DebugUnavailable {
			add(w, ss10, bench.DebugCheckedElided)
		}
	}
	for _, w := range workloads.Hazards() {
		add(w, ss10, bench.Opt, bench.OptSafe, bench.OptTemporal, bench.OptSafeConcurrent)
	}
	return out
}

// checkSweep checks one sweep against hand-written references: the sweep
// computed every cell (it was cold), every cell reproduces its workload's
// expected output or fails exactly where the workload seeds a bug, and the
// rendered tables read "<fails>" in exactly those places — gawk's checked
// columns and the temporal column of each use-after-free or double-free
// hazard. It returns the first problem, or "".
func checkSweep(tables []*bench.Table, computed uint64, cells []bench.CellRequest) string {
	if computed != uint64(len(cells)) {
		return fmt.Sprintf("sweep computed %d cells, want all %d (not cold)", computed, len(cells))
	}
	for _, c := range cells {
		m, err := bench.Measure(c.Workload, c.Treatment, c.Machine)
		if err != nil {
			return err.Error()
		}
		if p := checkCell(c.Workload, c.Treatment, m); p != "" {
			return p
		}
	}
	flags := map[string]workloads.Workload{}
	for _, w := range append(workloads.All(), workloads.Hazards()...) {
		flags[w.Name] = w
	}
	for _, t := range tables {
		if strings.HasPrefix(t.Title, "Object code size") {
			continue // static sizes: a checked build has one even when its run fails
		}
		for _, row := range t.Rows {
			w := flags[row.Workload]
			for i, cell := range row.Cells {
				col := t.Columns[i]
				want := (w.CheckedFails && strings.Contains(col, "checked")) ||
					(w.TemporalFails && strings.Contains(col, "temporal"))
				if cell.Fails != want {
					return fmt.Sprintf("%s: %s [%s] reads %q", t.Title, row.Workload, col, cell.String())
				}
			}
		}
	}
	return ""
}

// untracedSweep is the untraced result of every replayed run: each
// cell's measurement and each workload's retained size.
type untracedSweep struct {
	cells    []*bench.Measurement
	ws       []workloads.Workload
	retained []uint64
}

func lastSweep(cells []bench.CellRequest) (*untracedSweep, error) {
	u := &untracedSweep{ws: append(workloads.All(), workloads.Hazards()...)}
	for _, c := range cells {
		m, err := bench.Measure(c.Workload, c.Treatment, c.Machine)
		if err != nil {
			return nil, err
		}
		u.cells = append(u.cells, m)
	}
	for _, w := range u.ws {
		v, err := bench.MeasureRetained(w)
		if err != nil {
			return nil, err
		}
		u.retained = append(u.retained, v)
	}
	return u, nil
}

// replaySweep replays one sweep's cells and the retained-size runs as
// direct calls into each layer, checking every run against the untraced
// result.
func replaySweep(tr *tracer, cells []bench.CellRequest, u *untracedSweep) (*chain, int, error) {
	want, ws, retained := u.cells, u.ws, u.retained
	c := newChain(tr)
	var err error
	tr.operation(0, func() {
		for i, cell := range cells {
			w, t := cell.Workload, cell.Treatment
			var prog *machine.Program
			prog, err = c.build(w.Name+".c", w.Source, cellBuild(t, cell.Machine))
			if err != nil {
				return
			}
			res, runErr := c.exec(context.Background(), prog, interp.Options{
				Config: cell.Machine, Input: w.Input, Temporal: t.Temporal, Threads: t.Threads, SchedSeed: t.SchedSeed,
			})
			m := want[i]
			var ce *interp.CheckError
			switch {
			case m.CheckFailed && !errors.As(runErr, &ce):
				err = fmt.Errorf("replay %s [%s]: checker did not fire (%v)", w.Name, t.Name, runErr)
			case !m.CheckFailed:
				if d := sameRun(res, runErr, m.Instrs, m.Cycles, m.Output, ""); d != "" {
					err = fmt.Errorf("replay %s [%s]: %s", w.Name, t.Name, d)
				}
			}
			if err != nil {
				return
			}
		}
		// The retained sizes are measured cold, as a sweep measures them.
		bench.ResetCache()
		for i, w := range ws {
			var v uint64
			tr.do("heapdump.retained", func() { v, err = bench.MeasureRetained(w) })
			if err == nil && v != retained[i] {
				err = fmt.Errorf("replay %s: retained %d bytes, untraced %d", w.Name, v, retained[i])
			}
			if err != nil {
				return
			}
		}
	})
	return c, 1, err
}

// cellBuild is the build a bench treatment makes, as the cell harness
// configures it.
func cellBuild(t bench.Treatment, cfg machine.Config) buildSpec {
	var o gcsafe.Options
	switch {
	case t.Temporal:
		o.Mode = gcsafe.ModeTemporal
	case t.Checked:
		o.Mode = gcsafe.ModeChecked
	}
	o.Elide = t.Elide
	return buildSpec{annotate: t.Annotate, opts: o, optimize: t.Optimize, post: t.Post, cfg: cfg}
}
