package pipeline

import (
	"context"

	"gcsafety/internal/cc/ast"
	"gcsafety/internal/cc/lexer"
	"gcsafety/internal/cc/parser"
	"gcsafety/internal/codegen"
	"gcsafety/internal/gcsafe"
	"gcsafety/internal/liveness"
	"gcsafety/internal/machine"
	"gcsafety/internal/peephole"
)

// Options configures one walk of the stage graph. Only the stages a
// field feeds see it in their content keys: annotation options stop
// influencing keys at the Annotate stage boundary, the machine enters at
// Codegen, so builds differing only in late options share every earlier
// artifact.
type Options struct {
	// Annotate enables the GC-safety preprocessor stage.
	Annotate bool
	// AnnotateOptions configures the stage when enabled.
	AnnotateOptions gcsafe.Options
	// Optimize selects the -O compiler pipeline (-g otherwise).
	Optimize bool
	// Post enables the peephole postprocessor stage.
	Post bool
	// Machine is the target configuration.
	Machine machine.Config
	// DisableReassociation / DisableLoadFolding mirror the codegen
	// ablation switches.
	DisableReassociation bool
	DisableLoadFolding   bool
}

// Result is one build's outputs. Everything in it may be shared with
// other builds through the artifact cache: callers must treat the
// program, the AST and the annotation result as immutable.
type Result struct {
	// Prog is the compiled (and, under Options.Post, postprocessed)
	// program.
	Prog *machine.Program
	// Annotate is the annotator's result (nil when annotation was
	// disabled).
	Annotate *gcsafe.Result
	// Peephole reports what the postprocessor changed (nil when
	// postprocessing was disabled).
	Peephole *peephole.Stats
	// File is the checked — and, when annotation ran, annotated — AST.
	File *ast.File
	// Report describes the walk: per-stage cache hits and durations.
	Report *BuildReport
}

// annotated is the Annotate stage's artifact: the mutated deep clone of
// the checked AST plus the annotator's diagnostics and rewritten source.
type annotated struct {
	file *ast.File
	res  *gcsafe.Result
}

// postprocessed is the Peephole stage's artifact.
type postprocessed struct {
	prog  *machine.Program
	stats peephole.Stats
}

// frontEnd runs the treatment-independent prefix of the graph — Lex,
// Parse, Typecheck — and returns the Typecheck artifact.
func (r *Runner) frontEnd(ctx context.Context, name, src string, k buildKeys, rep *BuildReport) (*checked, error) {
	v, err := r.run(ctx, StageLex, k.lex, rep, func() (any, int64, error) {
		s := lexer.ScanAll(src)
		return s, int64(len(s.Tokens))*48 + 64, nil
	})
	if err != nil {
		return nil, &StageError{Stage: StageLex, Err: err}
	}
	scan := v.(*lexer.Scan)

	v, err = r.run(ctx, StageParse, k.parse, rep, func() (any, int64, error) {
		f, err := parser.ParseTokens(name, src, scan.Replay())
		if err != nil {
			return nil, 0, err
		}
		return f, int64(len(src))*6 + 256, nil
	})
	if err != nil {
		return nil, &StageError{Stage: StageParse, Err: err}
	}
	file := v.(*ast.File)

	v, err = r.run(ctx, StageTypecheck, k.typecheck, rep, func() (any, int64, error) {
		ck, err := verify(file)
		if err != nil {
			return nil, 0, err
		}
		return ck, 128, nil
	})
	if err != nil {
		return nil, &StageError{Stage: StageTypecheck, Err: err}
	}
	return v.(*checked), nil
}

// liveness runs the Liveness stage on a checked front end: the elision
// facts the annotator consults under Options.Elide. The analysis only
// reads the shared AST, so no clone is needed; the facts artifact is
// itself immutable and position-keyed, so it applies equally to the
// Annotate stage's deep clone.
func (r *Runner) liveness(ctx context.Context, ck *checked, k buildKeys, rep *BuildReport) (*liveness.Facts, error) {
	v, err := r.run(ctx, StageLiveness, k.liveness, rep, func() (any, int64, error) {
		facts := liveness.Analyze(ck.file)
		return facts, int64(facts.Units())*96 + 256, nil
	})
	if err != nil {
		return nil, &StageError{Stage: StageLiveness, Err: err}
	}
	return v.(*liveness.Facts), nil
}

// annotate runs the Annotate stage on a checked front end. The compute
// deep-clones the shared AST before the annotator mutates it, so the
// Parse/Typecheck artifacts stay pristine for other treatments. Under
// opts.Elide the stage first walks through Liveness.
func (r *Runner) annotate(ctx context.Context, ck *checked, k buildKeys, opts gcsafe.Options, rep *BuildReport) (*annotated, error) {
	var facts *liveness.Facts
	if opts.Elide {
		f, err := r.liveness(ctx, ck, k, rep)
		if err != nil {
			return nil, err
		}
		facts = f
	}
	v, err := r.run(ctx, StageAnnotate, k.annotate, rep, func() (any, int64, error) {
		clone := ck.file.Clone()
		res, err := gcsafe.AnnotateWithFacts(clone, opts, facts)
		if err != nil {
			return nil, 0, err
		}
		if opts.Elide {
			r.elision.considered.Add(uint64(res.Considered))
			r.elision.elided.Add(uint64(res.Elided))
			r.elision.elidedLive.Add(uint64(res.ElidedLive))
			r.elision.elidedBounds.Add(uint64(res.ElidedBounds))
		}
		return &annotated{file: clone, res: res}, int64(len(res.Output))*8 + 512, nil
	})
	if err != nil {
		return nil, &StageError{Stage: StageAnnotate, Err: err}
	}
	a := v.(*annotated)
	if opts.Elide && rep != nil {
		st := ElisionStat{
			Considered:   uint64(a.res.Considered),
			Elided:       uint64(a.res.Elided),
			ElidedLive:   uint64(a.res.ElidedLive),
			ElidedBounds: uint64(a.res.ElidedBounds),
		}
		st.Kept = st.Considered - st.Elided
		rep.Elision = &st
	}
	return a, nil
}

// Annotate runs the graph up to and including the Annotate stage — the
// C-to-C preprocessor as a cached pipeline.
func (r *Runner) Annotate(ctx context.Context, name, src string, opts gcsafe.Options) (*gcsafe.Result, *BuildReport, error) {
	rep := &BuildReport{}
	k := stageKeys(name, src, Options{Annotate: true, AnnotateOptions: opts})
	ck, err := r.frontEnd(ctx, name, src, k, rep)
	if err != nil {
		return nil, rep, err
	}
	a, err := r.annotate(ctx, ck, k, opts, rep)
	if err != nil {
		return nil, rep, err
	}
	return a.res, rep, nil
}

// Build walks the full graph for one translation unit. Errors are
// *StageError values attributing the failure to a stage; they unwrap to
// the parser/annotator/codegen error (or to ctx.Err(), or to an injected
// fault) underneath.
func (r *Runner) Build(ctx context.Context, name, src string, opts Options) (*Result, error) {
	rep := &BuildReport{}
	res := &Result{Report: rep}
	k := stageKeys(name, src, opts)

	ck, err := r.frontEnd(ctx, name, src, k, rep)
	if err != nil {
		return nil, err
	}
	file := ck.file
	if opts.Annotate {
		a, err := r.annotate(ctx, ck, k, opts.AnnotateOptions, rep)
		if err != nil {
			return nil, err
		}
		file = a.file
		res.Annotate = a.res
	}
	res.File = file

	cgOpts := codegen.Options{
		Optimize:             opts.Optimize,
		Machine:              opts.Machine,
		DisableReassociation: opts.DisableReassociation,
		DisableLoadFolding:   opts.DisableLoadFolding,
	}
	v, err := r.run(ctx, StageCodegen, k.codegen, rep, func() (any, int64, error) {
		ir, err := codegen.Gen(file, cgOpts)
		if err != nil {
			return nil, 0, err
		}
		n := int64(len(ir.Data)) + 256
		for _, fn := range ir.Fns {
			n += int64(len(fn.Code)) * 40
		}
		return ir, n, nil
	})
	if err != nil {
		return nil, &StageError{Stage: StageCodegen, Err: err}
	}
	ir := v.(*codegen.IR)

	v, err = r.run(ctx, StageOptimize, k.optimize, rep, func() (any, int64, error) {
		prog := codegen.Backend(ir)
		return prog, int64(prog.Size())*40 + int64(len(prog.Data)) + 256, nil
	})
	if err != nil {
		return nil, &StageError{Stage: StageOptimize, Err: err}
	}
	res.Prog = v.(*machine.Program)

	if opts.Post {
		prog := res.Prog
		v, err = r.run(ctx, StagePeephole, k.peephole, rep, func() (any, int64, error) {
			q := prog.Clone()
			st := peephole.Optimize(q, opts.Machine)
			return &postprocessed{prog: q, stats: st}, int64(q.Size())*40 + int64(len(q.Data)) + 256, nil
		})
		if err != nil {
			return nil, &StageError{Stage: StagePeephole, Err: err}
		}
		p := v.(*postprocessed)
		res.Prog = p.prog
		st := p.stats
		res.Peephole = &st
	}
	return res, nil
}
