package pipeline

import (
	"gcsafety/internal/artifact"
	"gcsafety/internal/engine"
	"gcsafety/internal/gcsafe"
	"gcsafety/internal/machine"
)

// Key derivation. The pipeline is the one owner of cache-key policy:
// every stage key is derived here, and every other cache in the system —
// gcsafed's whole-product entries, the bench cell cache — files its
// product under a kind tag wrapped around BuildKey, AnnotateKey or
// RunKey, so no caller folds an option field into a key of its own.

// buildKeys are the content keys of one build's stages; a stage the
// build skips has the empty key. stageKeys derives them from the build's
// inputs alone, and Build and Annotate cache every stage under them, so
// BuildKey and AnnotateKey name exactly the artifacts the runner files.
type buildKeys struct {
	lex, parse, typecheck, liveness, annotate, codegen, optimize, peephole artifact.Key
}

func stageKeys(name, src string, opts Options) buildKeys {
	var k buildKeys
	k.lex = artifact.NewKey("pipeline." + string(StageLex)).Str(Version(StageLex)).Str(src).Sum()
	k.parse = stageKey(StageParse, k.lex).Str(name).Sum()
	k.typecheck = stageKey(StageTypecheck, k.parse).Sum()
	front := k.typecheck
	if opts.Annotate {
		// Under Elide the annotate key chains off the liveness key, so the
		// artifact depends on both stage versions.
		upstream := k.typecheck
		if opts.AnnotateOptions.Elide {
			k.liveness = stageKey(StageLiveness, k.typecheck).Sum()
			upstream = k.liveness
		}
		k.annotate = annotateFields(stageKey(StageAnnotate, upstream), opts.AnnotateOptions).Sum()
		front = k.annotate
	}
	k.codegen = machineFields(stageKey(StageCodegen, front).
		Bool(opts.Optimize).
		Bool(opts.DisableReassociation).
		Bool(opts.DisableLoadFolding), opts.Machine).Sum()
	k.optimize = stageKey(StageOptimize, k.codegen).Sum()
	if opts.Post {
		// The machine config feeding the postprocessor is already part of
		// the optimize key (via the codegen key), so the chain alone keys
		// this stage.
		k.peephole = stageKey(StagePeephole, k.optimize).Sum()
	}
	return k
}

// BuildKey returns the key under which Build(name, src, opts) files its
// last stage: Peephole under opts.Post, Optimize otherwise. The key
// chains the version of every stage the build walks and every option
// that stage consumes, so callers caching a whole build product under a
// key derived from it are invalidated exactly when the build is. No
// artifact is computed.
func BuildKey(name, src string, opts Options) artifact.Key {
	k := stageKeys(name, src, opts)
	if opts.Post {
		return k.peephole
	}
	return k.optimize
}

// AnnotateKey returns the Annotate stage key of Annotate(name, src, opts).
func AnnotateKey(name, src string, opts gcsafe.Options) artifact.Key {
	return stageKeys(name, src, Options{Annotate: true, AnnotateOptions: opts}).annotate
}

// RunKey folds every result-affecting engine option onto a build key:
// the key of one execution of the built program, which is deterministic
// in exactly these inputs. SchedSeed selects an interleaving, so it
// counts only on the concurrent path (Threads > 1). ok is false when the
// run must not be cached at all: with a fault set armed, the outcome
// depends on injected failures, not on the program.
func RunKey(build artifact.Key, o engine.Options) (key artifact.Key, ok bool) {
	if o.Faults != nil {
		return "", false
	}
	b := machineFields(artifact.NewKey("pipeline.run").Str(string(build)), o.Config).
		Uint(uint64(o.HeapBytes)).
		Uint(uint64(o.TriggerBytes)).
		Uint(o.GCEveryInstrs).
		Bool(o.CollectAtEveryAlloc).
		Bool(o.Validate).
		Uint(o.MaxInstrs).
		Bool(o.BaseOnlyHeap).
		Bool(o.Temporal).
		Int(int64(o.Threads)).
		Bool(o.CollectAtSwitch).
		Str(o.Input).
		Str(o.Entry).
		Bool(o.HeapProfile)
	if o.Threads > 1 {
		b = b.Uint(o.SchedSeed)
	}
	return b.Sum(), true
}

// stageKey starts the content key of one stage: the stage's own version
// chained onto the upstream artifact's key. Option fingerprints are
// appended by the caller.
func stageKey(s Stage, upstream artifact.Key) *artifact.KeyBuilder {
	return artifact.NewKey("pipeline." + string(s)).Str(Version(s)).Str(string(upstream))
}

// annotateFields folds every annotator option into a key. Elide is folded
// only when set, so the classic (unelided) treatments keep the keys they
// had before the elision axis existed.
func annotateFields(b *artifact.KeyBuilder, o gcsafe.Options) *artifact.KeyBuilder {
	b = b.Int(int64(o.Mode)).
		Bool(o.NoCopySuppression).
		Bool(o.NoIncDecExpansion).
		Bool(o.BaseHeuristic).
		Bool(o.CallSiteOnly).
		Bool(o.StrictCastWarnings).
		Int(int64(o.Style))
	if o.Elide {
		b = b.Bool(true)
	}
	return b
}

// machineFields folds the full machine configuration — not just its name
// — into a key, so ad-hoc configs with colliding names cannot share
// artifacts.
func machineFields(b *artifact.KeyBuilder, cfg machine.Config) *artifact.KeyBuilder {
	return b.Str(cfg.Name).
		Int(int64(cfg.NumRegs)).
		Bool(cfg.TwoOperand).
		Bool(cfg.LoadIndexed).
		Uint(cfg.Costs.ALU).Uint(cfg.Costs.Mul).Uint(cfg.Costs.Div).
		Uint(cfg.Costs.Load).Uint(cfg.Costs.Store).Uint(cfg.Costs.Branch).
		Uint(cfg.Costs.CallRet).Uint(cfg.Costs.SPAdjust)
}
