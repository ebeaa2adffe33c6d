package engine

import "gcsafety/internal/machine"

// frame is one activation record on a simulated call stack. The dispatch
// loop and the concurrent scheduler keep []frame stacks, and the cold-path
// step pushes plain frames for calls.
type frame struct {
	Fn      *machine.Func
	PC      int
	SavedSP uint32
	RetReg  machine.Reg
	// Meta caches the core's meta[Fn]; frames pushed by the cold path leave it nil
	// and the dispatch loop fills it in on first activation.
	Meta *funcMeta
}

// funcMeta is per-function metadata precomputed at core construction so
// the dispatch loop never consults a map per instruction: Targets holds
// the resolved destination pc for every Jmp/Bz/Bnz (aligned with Code),
// Callees the resolved *Func for every direct Call into program code (nil
// for runtime builtins, which dispatch by name), and CalleeMeta the
// callee's own funcMeta, so pushing a frame needs no map lookup either.
type funcMeta struct {
	Targets    []int
	Callees    []*machine.Func
	CalleeMeta []*funcMeta
}
