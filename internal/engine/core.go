// Package engine is the execution core: it runs compiled programs against
// the conservative collector. It holds the machine state (registers, stack
// pointer, simulated memory), the native runtime library, the temporal
// shadow tags, the concurrent-mutator scheduler, the safe-point/snapshot
// handshake, allocation-site profiling and the one switch-dispatch loop
// (dispatch.go). Every simulated number a run produces — Instrs, Cycles,
// output, GC statistics and every checker outcome — is the reproduction's
// data and is bit-stable across refactors.
package engine

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"

	"gcsafety/internal/faultinject"
	"gcsafety/internal/gc"
	"gcsafety/internal/machine"
)

// Core is the state of one run: the simulated register file, stack and
// static segment, the collected heap, cycle/instruction accounting, the
// temporal shadow tags, the concurrent-mutator scheduler and the snapshot
// handshake.
type Core struct {
	prog *machine.Program
	// opts is the run configuration (read-only after NewCore).
	opts Options
	// ctx is the run's context, polled at the pollInterval stride.
	ctx context.Context
	cfg machine.Config
	// heap is the conservative collector.
	heap *gc.Heap
	// regs is the current thread's register file (re-aimed on context
	// switch in concurrent mode; slices are aliased, never copied, so the
	// collector always sees every thread's live registers).
	regs []uint32
	// sp is the current stack pointer.
	sp     uint32
	static []byte
	stack  []byte
	labels map[string]map[int32]int
	byID   map[int32]*machine.Func
	meta   map[*machine.Func]*funcMeta
	// costs caches Config.CostOf per opcode: one slice index in the hot
	// loop instead of a switch.
	costs [machine.NumOps]uint64
	out   strings.Builder
	in    int
	// cycles and instrs are the simulated accounting — the reproduction's
	// data. Both loops (dispatch.go, threads.go) charge them in the same
	// order: cycles before the temporal track, both before the opcode.
	cycles uint64
	instrs uint64
	rng    uint32
	// exited flips when the program calls exit(); the loops stop at the
	// next boundary.
	exited bool
	exit   int32
	// pendingRet carries the value of the most recent Ret to the caller's
	// result register.
	pendingRet uint32
	// sinceGC counts instructions since the last async collection.
	sinceGC uint64
	// argbuf backs runtimeCall's argument slice so runtime dispatch —
	// including every checked-mode GC_same_obj/GC_pre_incr call — stays
	// allocation-free on the host.
	argbuf [8]uint32
	// tt is the temporal-mode shadow-tag state; nil unless Options.Temporal
	// (the hot loop pays one nil check).
	tt *temporalState
	// stackLo/stackHi bound the current thread's stack segment for AdjSP;
	// they are the whole stack in single-thread mode.
	stackLo, stackHi uint32
	// Concurrent-mutator state (nil/zero in single-thread mode).
	threads  []*mthread
	cur      int
	schedRng uint64
	// prof is the allocation-site profile; nil unless Options.HeapProfile
	// (runtime-call dispatch pays one nil check).
	prof *allocProf
	// snapPending holds at most one cross-goroutine snapshot request,
	// served at the context-poll stride; snapDone flips once the run is
	// over, after which requesters capture on their own goroutine. See
	// snapshot.go for the handshake.
	snapPending atomic.Pointer[snapRequest]
	snapDone    atomic.Bool
}

// NewCore prepares the state for one run of prog.
func NewCore(prog *machine.Program, opts Options) *Core {
	if opts.HeapBytes == 0 {
		opts.HeapBytes = 16 << 20
	}
	if opts.TriggerBytes == 0 {
		opts.TriggerBytes = 128 << 10
	}
	if opts.CollectAtEveryAlloc {
		opts.TriggerBytes = 1
	}
	if opts.MaxInstrs == 0 {
		opts.MaxInstrs = 2_000_000_000
	}
	if opts.Entry == "" {
		opts.Entry = "main"
	}
	c := &Core{
		prog:   prog,
		opts:   opts,
		ctx:    context.Background(),
		cfg:    opts.Config,
		regs:   make([]uint32, opts.Config.NumRegs),
		sp:     machine.StackTop,
		static: append([]byte(nil), prog.Data...),
		stack:  make([]byte, machine.StackTop-machine.StackLimit),
		labels: map[string]map[int32]int{},
		byID:   map[int32]*machine.Func{},
		rng:    0x9E3779B9,

		stackLo: machine.StackLimit,
		stackHi: machine.StackTop,
	}
	if opts.Temporal {
		c.tt = newTemporalState(int(opts.Config.NumRegs))
	}
	if opts.HeapProfile {
		c.prof = newAllocProf()
	}
	hcfg := gc.Config{
		MaxBytes:             opts.HeapBytes,
		TriggerBytes:         opts.TriggerBytes,
		Poison:               true,
		BaseOnlyHeapPointers: opts.BaseOnlyHeap,
	}
	if opts.Faults != nil {
		hcfg.Inject = opts.Faults.Fire
	}
	c.heap = gc.NewHeap(hcfg)
	c.heap.SetRoots(gc.RootFunc(c.scanRoots))
	c.meta = make(map[*machine.Func]*funcMeta, len(prog.Funcs))
	for name, f := range prog.Funcs {
		lm := map[int32]int{}
		for pc, in := range f.Code {
			if in.Op == machine.Label {
				lm[in.Imm] = pc
			}
		}
		c.labels[name] = lm
		c.byID[f.ID] = f
	}
	// Second pass: resolve branch targets and direct-call targets now that
	// every label and function is known. An unknown label resolves to pc 0,
	// matching the zero value the label-map lookup used to produce.
	for _, f := range prog.Funcs {
		c.meta[f] = &funcMeta{
			Targets:    make([]int, len(f.Code)),
			Callees:    make([]*machine.Func, len(f.Code)),
			CalleeMeta: make([]*funcMeta, len(f.Code)),
		}
	}
	for _, f := range prog.Funcs {
		fm := c.meta[f]
		lm := c.labels[f.Name]
		for pc, in := range f.Code {
			switch in.Op {
			case machine.Jmp, machine.Bz, machine.Bnz:
				fm.Targets[pc] = lm[in.Imm]
			case machine.Call:
				if callee := prog.Funcs[in.Sym]; callee != nil {
					fm.Callees[pc] = callee
					fm.CalleeMeta[pc] = c.meta[callee]
				}
			}
		}
	}
	for op := 0; op < machine.NumOps; op++ {
		c.costs[op] = c.cfg.CostOf(machine.Op(op))
	}
	return c
}

// Run executes the entry function to completion.
func (c *Core) Run() (*Result, error) {
	return c.RunContext(context.Background())
}

// RunContext executes the entry function to completion or until ctx is
// done, whichever comes first: cancellation or deadline expiry aborts the
// run between two instructions with an error wrapping ctx.Err().
// Single-thread runs go through the dispatch loop (dispatch.go);
// concurrent runs (Threads > 1) through the quantum scheduler
// (threads.go). The error strings keep their historical "interp:" prefix:
// they are part of the observable surface tests and goldens assert on.
func (c *Core) RunContext(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	c.ctx = ctx
	defer c.finishSnapshots()
	entry, ok := c.prog.Funcs[c.opts.Entry]
	if !ok {
		return nil, fmt.Errorf("interp: no function %q", c.opts.Entry)
	}
	if err := ctx.Err(); err != nil {
		return c.result(), fmt.Errorf("interp: %w", err)
	}
	var runErr error
	if c.opts.Threads > 1 {
		runErr = c.runThreads(entry)
	} else {
		runErr = c.call(entry, machine.NoReg)
	}
	res := c.result()
	if c.opts.HeapProfile {
		trigger, addr := snapshotTrigger(runErr)
		reason := ""
		if runErr != nil {
			reason = runErr.Error()
		}
		if snap, err := c.CaptureSnapshot(trigger, reason, addr); err != nil {
			res.SnapshotErr = err.Error()
		} else {
			res.Snapshot = snap
		}
	}
	return res, runErr
}

// poll is the safe-point body of the dispatch loop: context cancellation,
// the interp.step fault point, and the cross-goroutine snapshot handshake,
// in that order. The loop calls it when its poll countdown reaches zero
// (every pollInterval instructions).
func (c *Core) poll() error {
	if err := c.ctx.Err(); err != nil {
		return err
	}
	// Fault injection shares the poll stride so an inert run pays nothing
	// beyond the existing branch.
	if f := c.opts.Faults; f != nil {
		if err := f.Fire(faultinject.PointInterpStep); err != nil {
			return err
		}
	}
	// Cross-goroutine snapshot requests are served here: the poll stride
	// is the run's safe point (mutator stopped).
	if c.snapPending.Load() != nil {
		c.serveSnapshot()
	}
	return nil
}

func (c *Core) result() *Result {
	return &Result{
		Output:   c.out.String(),
		ExitCode: c.exit,
		Cycles:   c.cycles,
		Instrs:   c.instrs,
		GCStats:  c.heap.Stats(),
	}
}

// scanRoots feeds the collector every word in the register file, the live
// stack, and the static data segment. In concurrent mode every live
// thread's register file and stack segment is a root set: a collection one
// thread triggers must see the pointers every other thread still holds.
func (c *Core) scanRoots(visit func(gc.Addr)) {
	if c.threads != nil {
		for i, t := range c.threads {
			if t.done {
				continue
			}
			sp := t.sp
			if i == c.cur {
				sp = c.sp // regs alias t.regs; only sp is cached in c
			}
			for _, r := range t.regs {
				visit(r)
			}
			for a := sp &^ 3; a < t.hi; a += 4 {
				w, err := c.read32raw(a)
				if err == nil {
					visit(w)
				}
			}
		}
	} else {
		for _, r := range c.regs {
			visit(r)
		}
		for a := c.sp &^ 3; a < machine.StackTop; a += 4 {
			w, err := c.read32raw(a)
			if err == nil {
				visit(w)
			}
		}
	}
	for off := 0; off+4 <= len(c.static); off += 4 {
		visit(uint32(c.static[off]) | uint32(c.static[off+1])<<8 |
			uint32(c.static[off+2])<<16 | uint32(c.static[off+3])<<24)
	}
}
