package engine

import (
	"errors"
	"fmt"
	"runtime"

	"gcsafety/internal/faultinject"
	"gcsafety/internal/gc"
	"gcsafety/internal/heapdump"
	"gcsafety/internal/machine"
)

// Heap snapshots. CaptureSnapshot reads the machine and heap without
// mutating either (the introspection API in internal/gc never touches the
// page-header cache), so it is safe at any point where the mutator is not
// concurrently running. Two paths get there:
//
//   - the machine's own goroutine captures directly — at exit, on a
//     checker violation, or when it serves a cross-goroutine request at
//     the context-poll stride (the run's safe point);
//   - any other goroutine calls RequestSnapshot, which parks a request in
//     snapPending and waits for the dispatch loop to serve it. After the
//     run finishes (snapDone), requesters self-serve: the machine is
//     quiescent and captures are read-only, so concurrent post-run
//     captures cannot race.

type snapResult struct {
	snap *heapdump.Snapshot
	err  error
}

type snapRequest struct{ resp chan snapResult }

// CaptureSnapshot builds a heap snapshot of the machine's current state.
// It must only be called when the mutator is stopped (see the file
// comment); external callers use RequestSnapshot instead. The capture
// fires the "heapdump.capture" fault point first: an injected error loses
// the snapshot but never perturbs the run itself.
func (c *Core) CaptureSnapshot(trigger, reason string, faultAddr uint32) (*heapdump.Snapshot, error) {
	if f := c.opts.Faults; f != nil {
		if err := f.Fire(faultinject.PointHeapdump); err != nil {
			return nil, fmt.Errorf("heapdump capture: %w", err)
		}
	}
	var (
		sites  []heapdump.Site
		siteOf func(uint32) int32
	)
	if c.prof != nil {
		sites = append([]heapdump.Site(nil), c.prof.sites...)
		siteOf = func(base uint32) int32 {
			if id, ok := c.prof.objSite[base]; ok {
				return id
			}
			return -1
		}
	}
	snap := heapdump.Capture(c.heap, trigger, c.emitRoots, siteOf, sites)
	snap.Reason = reason
	snap.FaultAddr = faultAddr
	return snap, nil
}

// emitRoots walks exactly the root set scanRoots feeds the collector —
// every live thread's registers and stack words plus the static segment —
// but with provenance (kind, thread, slot) so snapshots can render
// "reg r3" or "static@0x2004".
func (c *Core) emitRoots(emit func(kind string, thread int, slot, word uint32)) {
	if c.threads != nil {
		for i, t := range c.threads {
			if t.done {
				continue
			}
			sp := t.sp
			if i == c.cur {
				sp = c.sp // regs alias t.regs; only sp is cached in c
			}
			for ri, r := range t.regs {
				emit(heapdump.RootReg, i, uint32(ri), r)
			}
			for a := sp &^ 3; a < t.hi; a += 4 {
				if w, err := c.read32raw(a); err == nil {
					emit(heapdump.RootStack, i, a, w)
				}
			}
		}
	} else {
		for ri, r := range c.regs {
			emit(heapdump.RootReg, 0, uint32(ri), r)
		}
		for a := c.sp &^ 3; a < machine.StackTop; a += 4 {
			if w, err := c.read32raw(a); err == nil {
				emit(heapdump.RootStack, 0, a, w)
			}
		}
	}
	for off := 0; off+4 <= len(c.static); off += 4 {
		w := uint32(c.static[off]) | uint32(c.static[off+1])<<8 |
			uint32(c.static[off+2])<<16 | uint32(c.static[off+3])<<24
		emit(heapdump.RootStatic, 0, machine.DataBase+uint32(off), w)
	}
}

// RequestSnapshot asks a (possibly running) machine for a heap snapshot
// and blocks until one is taken. While the program runs, the snapshot is
// captured by the run goroutine at its next safe point (the
// context-poll stride, every 1024 instructions), so the mutator is always
// stopped during capture; after the run, the requester captures on its own
// goroutine. This is the one Core method that may be called from another
// goroutine mid-run.
func (c *Core) RequestSnapshot() (*heapdump.Snapshot, error) {
	req := &snapRequest{resp: make(chan snapResult, 1)}
	for !c.snapPending.CompareAndSwap(nil, req) {
		runtime.Gosched() // another request holds the slot; wait our turn
	}
	if c.snapDone.Load() {
		// The dispatch loop has finished and will never poll again. If the
		// final drain did not already take our request, remove it and
		// self-serve: the machine is quiescent, captures are read-only.
		if c.snapPending.CompareAndSwap(req, nil) {
			return c.CaptureSnapshot(heapdump.TriggerRequest, "", 0)
		}
	}
	r := <-req.resp
	return r.snap, r.err
}

// serveSnapshot fulfills a pending cross-goroutine snapshot request, if
// any. Called only at safe points of the machine's own goroutine.
func (c *Core) serveSnapshot() {
	req := c.snapPending.Swap(nil)
	if req == nil {
		return
	}
	snap, err := c.CaptureSnapshot(heapdump.TriggerRequest, "", 0)
	req.resp <- snapResult{snap: snap, err: err}
}

// finishSnapshots marks the run over and drains any request that arrived
// before the flag was visible. The order matters: done is published
// first, so a requester that enqueues afterwards either finds its request
// taken by this drain or self-serves — it can never hang.
func (c *Core) finishSnapshots() {
	c.snapDone.Store(true)
	c.serveSnapshot()
}

// snapshotTrigger classifies a run outcome for snapshot labelling and digs
// out the faulting address when the error carries one.
func snapshotTrigger(err error) (trigger string, addr uint32) {
	if err == nil {
		return heapdump.TriggerExit, 0
	}
	var te *TemporalError
	if errors.As(err, &te) {
		return heapdump.TriggerViolation, te.Addr
	}
	var ge *gc.Error
	if errors.As(err, &ge) {
		return heapdump.TriggerViolation, ge.Addr
	}
	var ce *CheckError
	if errors.As(err, &ce) {
		return heapdump.TriggerViolation, 0
	}
	return heapdump.TriggerFault, 0
}
