package engine

import (
	"fmt"

	"gcsafety/internal/machine"
)

// call runs entry to completion (including nested calls) using an explicit
// frame stack, so a collection can fire between any two instructions.
//
// The loop is the interpreter's hottest code: the common opcodes (ALU,
// loads/stores, branches, call/ret) are dispatched inline here, with the
// program counter, code slice and per-function metadata (resolved branch
// targets and direct-call targets) held in locals for the duration of a
// frame activation; everything else falls back to the cold-path step.
// Per-instruction bookkeeping is kept to the instruction budget check, a
// poll countdown (replacing the old modulo), one table-indexed cycle
// charge, and — only when the asynchronous regime is armed — the GC tick.
// The cycle and instruction accounting, the poll schedule and the
// collection schedule are bit-identical to the pre-fast-path interpreter:
// those numbers are the reproduction's data.
func (c *Core) call(entry *machine.Func, retReg machine.Reg) error {
	stack := make([]frame, 1, 16)
	stack[0] = frame{Fn: entry, PC: 0, SavedSP: c.sp, RetReg: retReg}
	var (
		maxInstrs = c.opts.MaxInstrs
		gcEvery   = c.opts.GCEveryInstrs
		costs     = &c.costs
		// tt is nil outside temporal mode; holding it in a local keeps the
		// per-instruction shadow-tag branch off a field load.
		tt = c.tt
		// pollCd counts down to the next context poll so the hot loop pays
		// one decrement instead of a modulo. It reproduces the schedule
		// "poll when instrs%pollInterval == 0" exactly.
		pollCd = c.instrs % pollInterval
	)
	if pollCd != 0 {
		pollCd = pollInterval - pollCd
	}
	for len(stack) > 0 && !c.exited {
		fr := &stack[len(stack)-1]
		fn := fr.Fn
		code := fn.Code
		meta := fr.Meta
		if meta == nil {
			meta = c.meta[fn]
			fr.Meta = meta
		}
		pc := fr.PC
	activation:
		for {
			if pc >= len(code) {
				// fall off the end: return 0
				c.sp = fr.SavedSP
				c.setReg(fr.RetReg, 0)
				if tt != nil {
					tt.setTag(fr.RetReg, 0)
				}
				stack = stack[:len(stack)-1]
				break activation
			}
			in := &code[pc]
			if c.instrs >= maxInstrs {
				fr.PC = pc
				return &FaultError{Fn: fn.Name, PC: pc,
					Err: fmt.Errorf("%w (%d)", ErrInstrLimit, maxInstrs)}
			}
			if pollCd == 0 {
				if err := c.poll(); err != nil {
					fr.PC = pc
					return &FaultError{Fn: fn.Name, PC: pc, Err: err}
				}
				pollCd = pollInterval
			}
			pollCd--
			c.instrs++
			c.cycles += costs[in.Op]
			// Asynchronous collection regime: a GC may fire between any two
			// instructions.
			if gcEvery > 0 {
				c.sinceGC++
				if c.sinceGC >= gcEvery {
					c.sinceGC = 0
					c.heap.Collect()
				}
			}
			if tt != nil {
				if err := c.track(in); err != nil {
					fr.PC = pc
					return &FaultError{Fn: fn.Name, PC: pc, Err: err}
				}
			}
			pc++
			switch in.Op {
			case machine.Add:
				c.setReg(in.Rd, c.reg(in.Rs1)+c.src2(in))
			case machine.Sub:
				c.setReg(in.Rd, c.reg(in.Rs1)-c.src2(in))
			case machine.Mov:
				c.setReg(in.Rd, c.src2First(in))
			case machine.Ld:
				v, e := c.read32(c.reg(in.Rs1) + c.src2(in))
				if e != nil {
					fr.PC = pc
					return &FaultError{Fn: fn.Name, PC: pc - 1, Err: e}
				}
				c.setReg(in.Rd, v)
			case machine.St:
				if e := c.write32(c.reg(in.Rs1)+c.src2(in), c.reg(in.Rd)); e != nil {
					fr.PC = pc
					return &FaultError{Fn: fn.Name, PC: pc - 1, Err: e}
				}
			case machine.LdSP:
				v, e := c.read32(c.sp + uint32(in.Imm))
				if e != nil {
					fr.PC = pc
					return &FaultError{Fn: fn.Name, PC: pc - 1, Err: e}
				}
				c.setReg(in.Rd, v)
			case machine.StSP, machine.Arg:
				if e := c.write32(c.sp+uint32(in.Imm), c.reg(in.Rd)); e != nil {
					fr.PC = pc
					return &FaultError{Fn: fn.Name, PC: pc - 1, Err: e}
				}
			case machine.LeaSP:
				c.setReg(in.Rd, c.sp+uint32(in.Imm))
			case machine.Jmp:
				pc = meta.Targets[pc-1]
			case machine.Bz:
				if c.reg(in.Rs1) == 0 {
					pc = meta.Targets[pc-1]
				}
			case machine.Bnz:
				if c.reg(in.Rs1) != 0 {
					pc = meta.Targets[pc-1]
				}
			case machine.CmpEq:
				c.setReg(in.Rd, b2u(c.reg(in.Rs1) == c.src2(in)))
			case machine.CmpNe:
				c.setReg(in.Rd, b2u(c.reg(in.Rs1) != c.src2(in)))
			case machine.CmpLt:
				c.setReg(in.Rd, b2u(int32(c.reg(in.Rs1)) < int32(c.src2(in))))
			case machine.CmpLe:
				c.setReg(in.Rd, b2u(int32(c.reg(in.Rs1)) <= int32(c.src2(in))))
			case machine.CmpGt:
				c.setReg(in.Rd, b2u(int32(c.reg(in.Rs1)) > int32(c.src2(in))))
			case machine.CmpGe:
				c.setReg(in.Rd, b2u(int32(c.reg(in.Rs1)) >= int32(c.src2(in))))
			case machine.CmpLtu:
				c.setReg(in.Rd, b2u(c.reg(in.Rs1) < c.src2(in)))
			case machine.CmpLeu:
				c.setReg(in.Rd, b2u(c.reg(in.Rs1) <= c.src2(in)))
			case machine.CmpGtu:
				c.setReg(in.Rd, b2u(c.reg(in.Rs1) > c.src2(in)))
			case machine.CmpGeu:
				c.setReg(in.Rd, b2u(c.reg(in.Rs1) >= c.src2(in)))
			case machine.Nop, machine.Label:
			case machine.KeepLive:
				// The empty asm: value flows through unchanged; the base
				// operand is merely kept live by its presence here.
				c.setReg(in.Rd, c.reg(in.Rs1))
			case machine.AdjSP:
				ns := c.sp + uint32(in.Imm)
				if ns < c.stackLo || ns > c.stackHi {
					fr.PC = pc
					return &FaultError{Fn: fn.Name, PC: pc - 1,
						Err: fmt.Errorf("stack overflow (sp=%#x)", ns)}
				}
				c.sp = ns
			case machine.Ret:
				if in.Rs1 != machine.NoReg {
					c.pendingRet = c.reg(in.Rs1)
				} else {
					c.pendingRet = 0
				}
				c.sp = fr.SavedSP
				c.setReg(fr.RetReg, c.pendingRet)
				if tt != nil {
					tt.setTag(fr.RetReg, tt.retTag)
				}
				stack = stack[:len(stack)-1]
				break activation
			case machine.Call:
				if callee := meta.Callees[pc-1]; callee != nil {
					fr.PC = pc
					stack = append(stack, frame{Fn: callee, PC: 0, SavedSP: c.sp,
						RetReg: in.Rd, Meta: meta.CalleeMeta[pc-1]})
					break activation
				}
				v, err := c.runtimeCall(fn.Name, in)
				if err != nil {
					fr.PC = pc
					return &FaultError{Fn: fn.Name, PC: pc - 1, Err: err}
				}
				c.setReg(in.Rd, v)
				if tt != nil {
					tt.setTag(in.Rd, tt.retTag)
				}
				if c.exited {
					fr.PC = pc
					break activation
				}
			default:
				fr.PC = pc
				ret, push, err := c.step(fr, in)
				if err != nil {
					return &FaultError{Fn: fn.Name, PC: pc - 1, Err: err}
				}
				if push != nil {
					stack = append(stack, *push)
					break activation
				}
				if ret {
					c.sp = fr.SavedSP
					c.setReg(fr.RetReg, c.pendingRet)
					if tt != nil {
						tt.setTag(fr.RetReg, tt.retTag)
					}
					stack = stack[:len(stack)-1]
					break activation
				}
				if c.exited {
					break activation
				}
				pc = fr.PC // step may have redirected control flow
			}
		}
	}
	return nil
}
