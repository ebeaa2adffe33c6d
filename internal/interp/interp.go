// Package interp executes compiled programs on the simulated machine,
// linking them against the conservative collector and the native runtime
// library (the unpreprocessed "standard C library" of the paper's
// methodology). It provides:
//
//   - deterministic cycle accounting under a machine cost model, the
//     basis for every performance table in EXPERIMENTS.md;
//   - conservative root scanning of the register file, the stack and the
//     static data segment;
//   - two collection-trigger regimes: allocation-triggered only (the
//     paper's "collections triggered only at procedure calls" discussion)
//     and asynchronous (a collection may fire between any two
//     instructions), which is the regime the safety argument must survive;
//   - an optional access validator that detects loads and stores to
//     reclaimed heap objects — the harness's premature-collection detector
//     (never part of the cost model).
//
// The machine state, dispatch loop, runtime library, checkers and scheduler
// live in internal/engine; this package is the face existing callers use,
// its types aliases of the engine's.
package interp

import (
	"context"

	"gcsafety/internal/engine"
	"gcsafety/internal/machine"
)

// ErrInstrLimit is the sentinel wrapped by the fault produced when a run
// exhausts Options.MaxInstrs. Callers distinguish a runaway program
// (errors.Is(err, ErrInstrLimit)) from a genuine memory fault.
var ErrInstrLimit = engine.ErrInstrLimit

// Options configures one execution.
type Options = engine.Options

// Result reports one execution.
type Result = engine.Result

// A FaultError reports a memory or checking fault with machine context.
type FaultError = engine.FaultError

// CheckError is the error produced when a GC_same_obj-style runtime check
// fails (the paper's pointer-arithmetic checker firing).
type CheckError = engine.CheckError

// TemporalError reports a temporal-safety check failure (see the engine's
// temporal shadow-tag checker).
type TemporalError = engine.TemporalError

// Machine is one prepared run of a program; its Run and RunContext
// execute the entry function.
type Machine = engine.Core

// New prepares a machine for the program.
func New(prog *machine.Program, opts Options) *Machine {
	return engine.NewCore(prog, opts)
}

// Run executes the program and returns the result.
func Run(prog *machine.Program, opts Options) (*Result, error) {
	return RunContext(context.Background(), prog, opts)
}

// RunContext executes the program under ctx: cancellation or deadline
// expiry aborts the run between two instructions with an error wrapping
// ctx.Err(). This is the entry point the gcsafed daemon uses to bound
// adversarial inputs.
func RunContext(ctx context.Context, prog *machine.Program, opts Options) (*Result, error) {
	return New(prog, opts).RunContext(ctx)
}
