package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"gcsafety"
	"gcsafety/internal/fuzz"
	"gcsafety/internal/gcsafe"
	"gcsafety/internal/interp"
	"gcsafety/internal/pipeline"
)

// genSteps is the size of every generated program (operations in main).
const genSteps = 8

// replayedPrograms is how many of a matrix-sweep run's programs the traced
// run replays, drawn by seed from its first sampleWindow programs.
const (
	replayedPrograms = 3
	sampleWindow     = 10
)

// warmupPrograms is how many matrices one set-up runs, on programs of
// the fixed warmupSeed family, the same in every run.
const (
	warmupPrograms = 2
	warmupSeed     = -1
)

// programSeed is the generator seed of program i of a run: runs with
// different seeds draw disjoint programs.
func programSeed(seed int64, i int) int64 { return seed<<20 + int64(i) }

// matrixSweep runs the differential treatment matrix, with default
// options, over a seeded batch of generated programs. One operation is one
// program: 65 treatments (plus whatever comparison runs the matrix adds
// by default), each a build and a short run, so run setup, host GC and
// the shared front end dominate.
func matrixSweep(opt options) (*report, error) {
	r := &report{}
	// Set-up runs untimed matrices on the same fixed warm-up programs in
	// every run, whatever the seed, so it does the same work each time.
	setup, err := opt.setUp(func() error {
		for k := 0; k < warmupPrograms; k++ {
			p := gcsafety.GenerateProgram(programSeed(warmupSeed, k), genSteps)
			m, err := gcsafety.RunMatrix(p, gcsafety.MatrixOptions{})
			if err != nil {
				return fmt.Errorf("set-up matrix: %w", err)
			}
			if pr := checkMatrix(m); pr != "" {
				return fmt.Errorf("set-up matrix %s: %s", p.Label, pr)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	kept := map[int]*fuzz.MatrixResult{}
	next := 0
	var lat []float64
	var done []time.Duration
	treatments := 0
	win := openWindow()
	deadline := win.start.Add(time.Duration(opt.seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		r.attempted++
		p := gcsafety.GenerateProgram(programSeed(opt.seed, next), genSteps)
		t0 := time.Now()
		m, err := gcsafety.RunMatrix(p, gcsafety.MatrixOptions{})
		lat = append(lat, float64(time.Since(t0))/1e6)
		done = append(done, time.Since(win.start))
		if err != nil {
			r.fail("%s: %v", p.Label, err)
		} else if pr := checkMatrix(m); pr != "" {
			r.fail("%s: %s", p.Label, pr)
		} else if next < sampleWindow {
			kept[next] = m
		}
		if m != nil {
			treatments += len(m.Results)
		}
		next++
	}
	win.close()

	sim, simLayer, err := simulated(r)
	if err != nil {
		return nil, err
	}
	ops := summarise(lat)
	r.setE2E(setup, win, ops, done, sim)
	r.human = append(r.human, metric{"matrix_programs_per_s", float64(len(lat)) / win.elapsed.Seconds(), "1/s"})
	r.human = append(r.human, metric{"matrix_program_p50_ms", ops.p50, "ms"}, metric{"matrix_program_tail_ms", ops.tail, "ms"})
	r.layer = append(r.layer,
		metric{"fuzz.treatments", float64(treatments) / float64(max(len(lat), 1)), "count"},
		metric{"host.gc_cpu_frac", win.gcCPUFrac(), "1"},
	)
	r.layer = append(r.layer, simLayer...)
	if !opt.trace {
		return r, nil
	}
	if len(kept) == 0 {
		return nil, fmt.Errorf("no program ran in the window")
	}
	// Replay programs drawn by seed from those kept.
	rng := rand.New(rand.NewSource(opt.seed))
	order := sortedKeys(kept)
	sampled := map[int]*fuzz.MatrixResult{}
	for _, i := range rng.Perm(len(order))[:min(replayedPrograms, len(order))] {
		sampled[order[i]] = kept[order[i]]
	}
	// The stage-graph pipeline as the matrix uses it: one runner per
	// program, every treatment's build through it.
	probe := sampled[sortedKeys(sampled)[0]].Program
	var opts []pipeline.Options
	for _, t := range fuzz.Treatments(fuzz.MatrixOptions{}) {
		b := matrixBuild(t)
		opts = append(opts, pipeline.Options{Annotate: b.annotate, AnnotateOptions: b.opts, Optimize: b.optimize, Post: b.post, Machine: b.cfg})
	}
	cold, warm, hitFrac, err := pipelineProbe("fuzz.c", probe.Source, opts)
	if err != nil {
		return nil, err
	}
	r.layer = append(r.layer,
		metric{"pipeline.build_cold_ms", cold, "ms"},
		metric{"pipeline.build_warm_ms", warm, "ms"},
		metric{"pipeline.stage_hit_frac", hitFrac, "1"},
	)
	layer, spans, err := replayTraced("matrix-sweep", func(tr *tracer) (*chain, int, error) {
		return replayMatrix(tr, opt.seed, sampled)
	})
	if err != nil {
		return nil, err
	}
	r.layer = append(r.layer, layer...)
	r.spans = spans
	return r, nil
}

// checkMatrix checks one program's matrix against the generator's
// reference model: every treatment ran, no treatment that must agree with
// the model disagreed or missed a seeded temporal bug, and no comparison
// run diverged.
func checkMatrix(m *fuzz.MatrixResult) string {
	want := len(fuzz.Treatments(fuzz.MatrixOptions{}))
	switch {
	case len(m.Results) != want:
		return fmt.Sprintf("%d treatment results, want %d", len(m.Results), want)
	case len(m.Violations) > 0:
		return fmt.Sprintf("%d violations, first %s", len(m.Violations), m.Violations[0].Name())
	case len(m.EngineDivergences) > 0:
		return fmt.Sprintf("%d divergences, first %s", len(m.EngineDivergences), m.EngineDivergences[0])
	}
	return ""
}

// replayMatrix replays the sampled programs' matrices: the generator,
// then every treatment's build and run as direct calls, each run checked
// against the untraced matrix result.
func replayMatrix(tr *tracer, seed int64, kept map[int]*fuzz.MatrixResult) (*chain, int, error) {
	c := newChain(tr)
	ts := fuzz.Treatments(fuzz.MatrixOptions{})
	order := sortedKeys(kept)
	for _, i := range order {
		m := kept[i]
		if tr != nil {
			tr.op = i
		}
		var p *fuzz.Program
		tr.do("fuzz.generate", func() { p = gcsafety.GenerateProgram(programSeed(seed, i), genSteps) })
		if p.Source != m.Program.Source || p.Want != m.Program.Want {
			return nil, 0, fmt.Errorf("replay %s: the generator is not deterministic", p.Label)
		}
		c.forget()
		var err error
		tr.operation(i, func() {
			for k, t := range ts {
				b := matrixBuild(t)
				pr, berr := c.build("fuzz.c", p.Source, b)
				if berr != nil {
					err = berr
					return
				}
				res, runErr := c.exec(context.Background(), pr, matrixExec(t))
				want := m.Results[k]
				if d := sameRun(res, runErr, want.Instrs, want.Cycles, want.Output, errText(want.Err)); d != "" {
					err = fmt.Errorf("replay %s [%s]: %s", p.Label, t.Name(), d)
					return
				}
			}
		})
		if err != nil {
			return nil, 0, err
		}
	}
	return c, len(order), nil
}

func sortedKeys(kept map[int]*fuzz.MatrixResult) []int {
	var out []int
	for i := range kept {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// matrixBuild is the build a matrix treatment makes.
func matrixBuild(t fuzz.Treatment) buildSpec {
	var o gcsafe.Options
	switch t.Annotate {
	case fuzz.AnnotateChecked:
		o.Mode = gcsafe.ModeChecked
	case fuzz.AnnotateTemporal:
		o.Mode = gcsafe.ModeTemporal
	}
	o.Elide = t.Elide
	return buildSpec{annotate: t.Annotate != fuzz.AnnotateNone, opts: o, optimize: t.Optimize, post: t.Post, cfg: t.Machine}
}

// matrixExec is the execution regime a matrix treatment runs under: the
// benign schedule, or the adversarial one with a collection at every
// allocation and between every two instructions (at every context switch
// for concurrent treatments).
func matrixExec(t fuzz.Treatment) interp.Options {
	o := interp.Options{Config: t.Machine, Validate: true, Temporal: t.Annotate == fuzz.AnnotateTemporal}
	if t.Threads > 1 {
		o.Threads = t.Threads
		o.SchedSeed = t.SchedSeed
	}
	switch {
	case t.Adversarial && t.Threads > 1:
		o.CollectAtEveryAlloc = true
		o.CollectAtSwitch = true
	case t.Adversarial:
		o.GCEveryInstrs = 1
		o.CollectAtEveryAlloc = true
	default:
		o.GCEveryInstrs = 211
		o.TriggerBytes = 8 << 10
	}
	return o
}
