package engine

import (
	"fmt"

	"gcsafety/internal/machine"
)

// Reg reads a register (NoReg and out-of-range read as 0).
func (c *Core) reg(r machine.Reg) uint32 {
	if r == machine.NoReg || int(r) >= len(c.regs) {
		return 0
	}
	return c.regs[r]
}

// SetReg writes a register (NoReg and out-of-range writes are dropped).
func (c *Core) setReg(r machine.Reg, v uint32) {
	if r == machine.NoReg || int(r) >= len(c.regs) {
		return
	}
	c.regs[r] = v
}

// Src2 resolves the second operand (register or immediate).
func (c *Core) src2(in *machine.Instr) uint32 {
	if in.HasImm {
		return uint32(in.Imm)
	}
	return c.reg(in.Rs2)
}

// Src2First resolves Mov's operand (immediate, else the FIRST source
// register — Mov's source is Rs1, not Rs2).
func (c *Core) src2First(in *machine.Instr) uint32 {
	if in.HasImm {
		return uint32(in.Imm)
	}
	return c.reg(in.Rs1)
}

// step executes one cold-path instruction (anything the dispatch loop
// does not dispatch inline, and every instruction of a concurrent run). It
// returns ret=true when the current frame finished, or a new frame to push
// for calls.
func (c *Core) step(fr *frame, in *machine.Instr) (ret bool, push *frame, err error) {
	switch in.Op {
	case machine.Nop, machine.Label:
	case machine.KeepLive:
		// The empty asm: value flows through unchanged; the base operand is
		// merely kept live by its presence here.
		c.setReg(in.Rd, c.reg(in.Rs1))
	case machine.Mov:
		c.setReg(in.Rd, c.src2First(in))
	case machine.Add:
		c.setReg(in.Rd, c.reg(in.Rs1)+c.src2(in))
	case machine.Sub:
		c.setReg(in.Rd, c.reg(in.Rs1)-c.src2(in))
	case machine.Mul:
		c.setReg(in.Rd, c.reg(in.Rs1)*c.src2(in))
	case machine.Div:
		d := int32(c.src2(in))
		if d == 0 {
			return false, nil, fmt.Errorf("division by zero")
		}
		c.setReg(in.Rd, uint32(int32(c.reg(in.Rs1))/d))
	case machine.Divu:
		d := c.src2(in)
		if d == 0 {
			return false, nil, fmt.Errorf("division by zero")
		}
		c.setReg(in.Rd, c.reg(in.Rs1)/d)
	case machine.Rem:
		d := int32(c.src2(in))
		if d == 0 {
			return false, nil, fmt.Errorf("division by zero")
		}
		c.setReg(in.Rd, uint32(int32(c.reg(in.Rs1))%d))
	case machine.Remu:
		d := c.src2(in)
		if d == 0 {
			return false, nil, fmt.Errorf("division by zero")
		}
		c.setReg(in.Rd, c.reg(in.Rs1)%d)
	case machine.And:
		c.setReg(in.Rd, c.reg(in.Rs1)&c.src2(in))
	case machine.Or:
		c.setReg(in.Rd, c.reg(in.Rs1)|c.src2(in))
	case machine.Xor:
		c.setReg(in.Rd, c.reg(in.Rs1)^c.src2(in))
	case machine.Shl:
		c.setReg(in.Rd, c.reg(in.Rs1)<<(c.src2(in)&31))
	case machine.Shr:
		c.setReg(in.Rd, uint32(int32(c.reg(in.Rs1))>>(c.src2(in)&31)))
	case machine.Shru:
		c.setReg(in.Rd, c.reg(in.Rs1)>>(c.src2(in)&31))
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
	case machine.Ld:
		v, e := c.read32(c.reg(in.Rs1) + c.src2(in))
		if e != nil {
			return false, nil, e
		}
		c.setReg(in.Rd, v)
	case machine.LdB:
		b, e := c.read8(c.reg(in.Rs1) + c.src2(in))
		if e != nil {
			return false, nil, e
		}
		c.setReg(in.Rd, uint32(int32(int8(b))))
	case machine.LdBu:
		b, e := c.read8(c.reg(in.Rs1) + c.src2(in))
		if e != nil {
			return false, nil, e
		}
		c.setReg(in.Rd, uint32(b))
	case machine.LdH:
		h, e := c.read16(c.reg(in.Rs1) + c.src2(in))
		if e != nil {
			return false, nil, e
		}
		c.setReg(in.Rd, uint32(int32(int16(h))))
	case machine.LdHu:
		h, e := c.read16(c.reg(in.Rs1) + c.src2(in))
		if e != nil {
			return false, nil, e
		}
		c.setReg(in.Rd, uint32(h))
	case machine.St:
		if e := c.write32(c.reg(in.Rs1)+c.src2(in), c.reg(in.Rd)); e != nil {
			return false, nil, e
		}
	case machine.StB:
		if e := c.write8(c.reg(in.Rs1)+c.src2(in), byte(c.reg(in.Rd))); e != nil {
			return false, nil, e
		}
	case machine.StH:
		if e := c.write16(c.reg(in.Rs1)+c.src2(in), uint16(c.reg(in.Rd))); e != nil {
			return false, nil, e
		}
	case machine.Jmp:
		fr.PC = c.labels[fr.Fn.Name][in.Imm]
	case machine.Bz:
		if c.reg(in.Rs1) == 0 {
			fr.PC = c.labels[fr.Fn.Name][in.Imm]
		}
	case machine.Bnz:
		if c.reg(in.Rs1) != 0 {
			fr.PC = c.labels[fr.Fn.Name][in.Imm]
		}
	case machine.AdjSP:
		ns := c.sp + uint32(in.Imm)
		if ns < c.stackLo || ns > c.stackHi {
			return false, nil, fmt.Errorf("stack overflow (sp=%#x)", ns)
		}
		c.sp = ns
	case machine.LeaSP:
		c.setReg(in.Rd, c.sp+uint32(in.Imm))
	case machine.LdSP:
		v, e := c.read32(c.sp + uint32(in.Imm))
		if e != nil {
			return false, nil, e
		}
		c.setReg(in.Rd, v)
	case machine.StSP, machine.Arg:
		if e := c.write32(c.sp+uint32(in.Imm), c.reg(in.Rd)); e != nil {
			return false, nil, e
		}
	case machine.Call:
		return c.doCall(fr.Fn.Name, in)
	case machine.CallR:
		id := int32(c.reg(in.Rs1))
		f, ok := c.byID[id]
		if !ok {
			return false, nil, fmt.Errorf("indirect call to invalid function id %d", id)
		}
		return false, &frame{Fn: f, PC: 0, SavedSP: c.sp, RetReg: in.Rd}, nil
	case machine.Ret:
		if in.Rs1 != machine.NoReg {
			c.pendingRet = c.reg(in.Rs1)
		} else {
			c.pendingRet = 0
		}
		return true, nil, nil
	default:
		return false, nil, fmt.Errorf("unimplemented opcode %v", in.Op)
	}
	return false, nil, nil
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// doCall dispatches a direct call: user function or runtime builtin.
func (c *Core) doCall(fnName string, in *machine.Instr) (bool, *frame, error) {
	rd := in.Rd
	if f, ok := c.prog.Funcs[in.Sym]; ok {
		return false, &frame{Fn: f, PC: 0, SavedSP: c.sp, RetReg: rd}, nil
	}
	v, err := c.runtimeCall(fnName, in)
	if err != nil {
		return false, nil, err
	}
	c.setReg(rd, v)
	if c.tt != nil {
		c.tt.setTag(rd, c.tt.retTag)
	}
	return false, nil, nil
}
