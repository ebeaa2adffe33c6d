package engine

import "gcsafety/internal/heapdump"

// Allocation-site profiling: when Options.HeapProfile is set, the machine
// records which call site produced every live object, so snapshots can
// answer "allocated at main:12 (malloc)". The design constraint is the
// dispatch loop: with profiling off, c.prof is nil and the hot path pays
// exactly one nil check on the (already cold relative to arithmetic)
// runtime-call dispatch — never per instruction. With profiling on,
// runtimeCall leaves the pending call site (function name + source line
// from machine.Instr.Line) in pendFn/pendLine just before dispatching,
// and the allocator cases consume it.

// siteKey interns allocation sites: one heapdump.Site per distinct
// (function, line, allocator) triple.
type siteKey struct {
	fn   string
	line int32
	kind string
}

// allocProf is the per-run allocation-site profile.
type allocProf struct {
	sites []heapdump.Site
	index map[siteKey]int32
	// objSite maps live object base -> site ID. Entries for freed objects
	// go stale harmlessly: recycling the base overwrites them, and
	// snapshots only consult bases that are live at capture time.
	objSite map[uint32]int32
	// pendFn/pendLine identify the call site of the runtime call currently
	// dispatching (set at the top of runtimeCall).
	pendFn   string
	pendLine int32
}

func newAllocProf() *allocProf {
	return &allocProf{
		index:   map[siteKey]int32{},
		objSite: map[uint32]int32{},
	}
}

// noteSite attributes the object at base to the pending call site through
// allocator kind ("malloc", "calloc", "realloc"). Only called on
// successful allocations with c.prof non-nil.
func (c *Core) noteSite(base uint32, kind string) {
	if base == 0 {
		return
	}
	p := c.prof
	k := siteKey{fn: p.pendFn, line: p.pendLine, kind: kind}
	id, ok := p.index[k]
	if !ok {
		id = int32(len(p.sites))
		p.sites = append(p.sites, heapdump.Site{ID: id, Func: k.fn, Line: k.line, Kind: kind})
		p.index[k] = id
	}
	s := &p.sites[id]
	s.Allocs++
	s.Bytes += uint64(c.heap.ObjectSize(base))
	p.objSite[base] = id
}
