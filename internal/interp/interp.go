// Package interp executes IR programs directly. The interpreter serves
// three roles in the reproduction:
//
//   - it collects the block and edge execution profile that drives the
//     promotion algorithm's profitability decisions (standing in for the
//     paper's profile feedback runs);
//   - it measures the dynamic cost of memory operations — the
//     frequency-weighted operation counts reported in the paper's
//     Table 2;
//   - it provides semantic ground truth: a transformed program must
//     print the same output and leave the same global memory image as
//     the original, which the test suites check relentlessly.
//
// Memory is a flat int64 arena: address 0 is the null guard, globals
// occupy a fixed prefix, and stack slots are bump-allocated per call
// frame. Pointers are ordinary int64 addresses into the arena.
//
// There are exactly two execution paths with the same observable
// behavior. The production engine compiles each function once into
// linear bytecode (bytecode.go) and runs it on a dense dispatch loop
// (bcexec.go), with opcode counts and the block/edge profile kept in
// dense counters and flushed once per run. Options.Legacy selects the
// reference interpreter in this file: a small tree-walker over the IR
// with map-based accounting, kept as the executable specification that
// the differential tests, the paranoid pipeline check and the
// semantics oracle compare the engine against.
package interp

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/ir"
	"repro/internal/profile"
)

// ErrStepLimit and ErrTimeout classify the two resource-bound failures
// a run can hit. They are wrapped (not returned bare) so messages keep
// their detail; match with errors.Is. The promotion service uses them
// to map an exhausted request to a timeout response instead of a
// generic server error.
var (
	// ErrStepLimit means the run executed more than Options.MaxSteps
	// instructions.
	ErrStepLimit = errors.New("interp: step limit exceeded")
	// ErrTimeout means the run exceeded Options.Timeout of wall-clock
	// time.
	ErrTimeout = errors.New("interp: wall-clock timeout exceeded")
)

// Options configures a run.
type Options struct {
	// MaxSteps bounds the number of executed instructions (0 means the
	// default of 200 million).
	MaxSteps int64
	// MaxDepth bounds call nesting (0 means 4096).
	MaxDepth int
	// MaxOutput bounds the number of printed values retained (0 means
	// one million; execution continues but further output is dropped).
	MaxOutput int
	// Timeout bounds the wall-clock duration of the run (0 means no
	// limit). The clock is checked every few thousand steps, so the
	// overrun is bounded and the common case costs nothing.
	Timeout time.Duration
	// CollectProfile enables block/edge profile recording.
	CollectProfile bool
	// Legacy selects the reference interpreter: a tree-walker over the
	// IR with map lookups per executed block for profile collection, a
	// map increment per instruction for opcode counts, and fresh
	// register/slot allocations per call. It is the executable
	// specification the bytecode engine is held to; results are
	// identical. The default (false) runs the bytecode engine.
	Legacy bool
}

// Result is the outcome of a run.
type Result struct {
	// Output holds the values printed by the program, in order.
	Output []int64
	// ReturnValue is main's return value (0 for void main).
	ReturnValue int64
	// OpCounts counts executed instructions by opcode.
	OpCounts map[ir.Op]int64
	// Globals is the final memory image of every global, by name.
	Globals map[string][]int64
	// Profile holds measured block/edge frequencies when requested.
	Profile *profile.Profile
	// Steps is the total number of instructions executed.
	Steps int64
}

// DynLoads returns the number of executed singleton (scalar) loads, the
// paper's dynamic load cost.
func (r *Result) DynLoads() int64 { return r.OpCounts[ir.OpLoad] }

// DynStores returns the number of executed singleton stores.
func (r *Result) DynStores() int64 { return r.OpCounts[ir.OpStore] }

// DynMemOps returns loads plus stores.
func (r *Result) DynMemOps() int64 { return r.DynLoads() + r.DynStores() }

// Run executes prog starting at main.
func Run(prog *ir.Program, opts Options) (*Result, error) {
	if opts.MaxSteps == 0 {
		opts.MaxSteps = 200_000_000
	}
	if opts.MaxDepth == 0 {
		opts.MaxDepth = 4096
	}
	if opts.MaxOutput == 0 {
		opts.MaxOutput = 1_000_000
	}
	main := prog.Func("main")
	if main == nil {
		return nil, fmt.Errorf("interp: program has no main")
	}

	m := &machine{
		prog:   prog,
		opts:   opts,
		result: &Result{OpCounts: make(map[ir.Op]int64)},
	}
	if opts.Timeout > 0 {
		m.deadline = time.Now().Add(opts.Timeout)
	}
	if opts.CollectProfile {
		m.result.Profile = profile.NewProfile()
	}
	m.layoutGlobals()

	args := make([]int64, len(main.Params))
	var ret int64
	var err error
	if opts.Legacy {
		ret, err = m.call(main, args, 0)
	} else {
		m.codes = make([]mcodeEntry, 0, len(prog.Funcs))
		ret, err = m.callBC(main, args, 0)
	}
	if err != nil {
		return nil, err
	}
	if !opts.Legacy {
		m.flushCounts()
	}
	m.result.ReturnValue = ret
	m.result.Globals = make(map[string][]int64, len(prog.Globals))
	for _, g := range prog.Globals {
		base := m.globalBase[g]
		img := make([]int64, g.Size)
		copy(img, m.mem[base:base+int64(g.Size)])
		m.result.Globals[g.Name] = img
	}
	return m.result, nil
}

type machine struct {
	prog   *ir.Program
	opts   Options
	result *Result

	mem        []int64
	globalBase map[*ir.Global]int64
	sp         int64     // next free stack address
	deadline   time.Time // wall-clock bound; zero means none

	// Engine state (unused by the reference interpreter): a
	// stack-disciplined buffer for call arguments, this run's
	// compiled-code table (which also holds the dense counters flushed
	// into the Result once per run), and the register-frame arena
	// (frames are stack-disciplined slices of regArena; see execBC).
	argStack []int64
	codes    []mcodeEntry
	regArena []int64
	regTop   int
}

// timeoutCheckInterval is how many steps pass between wall-clock
// checks: frequent enough that overruns stay in the low milliseconds,
// rare enough that time.Now stays off the hot path.
const timeoutCheckInterval = 1 << 14

// checkDeadline enforces the wall-clock bound; called every
// timeoutCheckInterval steps.
func (m *machine) checkDeadline() error {
	if !m.deadline.IsZero() && time.Now().After(m.deadline) {
		return fmt.Errorf("%w: %v after %d steps", ErrTimeout, m.opts.Timeout, m.result.Steps)
	}
	return nil
}

func (m *machine) layoutGlobals() {
	m.globalBase = make(map[*ir.Global]int64, len(m.prog.Globals))
	addr := int64(1) // 0 is the null guard
	for _, g := range m.prog.Globals {
		m.globalBase[g] = addr
		addr += int64(g.Size)
	}
	m.mem = make([]int64, addr)
	for _, g := range m.prog.Globals {
		base := m.globalBase[g]
		for i, v := range g.Init {
			if i < g.Size {
				m.mem[base+int64(i)] = v
			}
		}
	}
	m.sp = addr
}

// ensure grows the arena so addresses [0, n) exist.
func (m *machine) ensure(n int64) {
	for int64(len(m.mem)) < n {
		m.mem = append(m.mem, make([]int64, n-int64(len(m.mem)))...)
	}
}

// addrOf resolves a memory location to an arena address, finding slots
// through the activation's slot map.
func (m *machine) addrOf(loc ir.MemLoc, slotBase map[*ir.Slot]int64) (int64, error) {
	switch loc.Kind {
	case ir.LocGlobal:
		return m.globalBase[loc.Global] + int64(loc.Offset), nil
	case ir.LocSlot:
		base, ok := slotBase[loc.Slot]
		if !ok {
			return 0, fmt.Errorf("interp: slot %s not allocated", loc.Slot.Name)
		}
		return base + int64(loc.Offset), nil
	}
	return 0, fmt.Errorf("interp: address of %v", loc)
}

func (m *machine) loadMem(addr int64, what, fn string) (int64, error) {
	if addr <= 0 || addr >= int64(len(m.mem)) {
		return 0, fmt.Errorf("interp: %s: invalid address %d in %s", what, addr, fn)
	}
	return m.mem[addr], nil
}

func (m *machine) storeMem(addr, v int64, what, fn string) error {
	if addr <= 0 || addr >= int64(len(m.mem)) {
		return fmt.Errorf("interp: %s: invalid address %d in %s", what, addr, fn)
	}
	m.mem[addr] = v
	return nil
}

// eval resolves a value operand against the register frame.
func eval(regs []int64, v ir.Value) int64 {
	if v.IsConst() {
		return v.Const()
	}
	return regs[v.Reg()]
}

// call is the reference interpreter's activation: it walks f's blocks
// instruction by instruction, allocating registers and slots afresh and
// updating the Result's maps directly.
func (m *machine) call(f *ir.Function, args []int64, depth int) (int64, error) {
	if depth > m.opts.MaxDepth {
		return 0, fmt.Errorf("interp: call depth exceeds %d in %s", m.opts.MaxDepth, f.Name)
	}

	regs := make([]int64, f.NumRegs)
	for i, p := range f.Params {
		if i < len(args) {
			regs[p] = args[i]
		}
	}

	// Allocate and zero stack slots for this activation.
	savedSP := m.sp
	slotBase := make(map[*ir.Slot]int64, len(f.Slots))
	for _, s := range f.Slots {
		slotBase[s] = m.sp
		m.ensure(m.sp + int64(s.Size))
		for i := int64(0); i < int64(s.Size); i++ {
			m.mem[m.sp+i] = 0
		}
		m.sp += int64(s.Size)
	}
	defer func() { m.sp = savedSP }()

	var fp *profile.FuncProfile
	if m.result.Profile != nil {
		fp = m.result.Profile.ForFunc(f.Name)
	}

	blk := f.Entry()
	var prev *ir.Block
	var phiDsts []ir.RegID
	var phiVals []int64
	for {
		if fp != nil {
			fp.AddBlock(blk, 1)
			if prev != nil {
				fp.AddEdge(prev, blk, 1)
			}
		}

		// Phi prefix: evaluate register phis in parallel using the
		// incoming edge. (Interpreting SSA form directly is supported
		// for tests; memory phis are no-ops at runtime.)
		idx := 0
		phiDsts, phiVals = phiDsts[:0], phiVals[:0]
		for idx < len(blk.Instrs) && blk.Instrs[idx].Op.IsPhi() {
			in := blk.Instrs[idx]
			m.result.Steps++
			m.result.OpCounts[in.Op]++
			if in.Op == ir.OpPhi {
				pi := blk.PredIndex(prev)
				if pi < 0 {
					return 0, fmt.Errorf("interp: phi in %v entered from non-predecessor", blk)
				}
				phiDsts = append(phiDsts, in.Dst)
				phiVals = append(phiVals, eval(regs, in.Args[pi]))
			}
			idx++
		}
		for i, d := range phiDsts {
			regs[d] = phiVals[i]
		}

		for ; idx < len(blk.Instrs); idx++ {
			in := blk.Instrs[idx]
			m.result.Steps++
			if m.result.Steps > m.opts.MaxSteps {
				return 0, fmt.Errorf("%w: limit %d", ErrStepLimit, m.opts.MaxSteps)
			}
			if m.result.Steps%timeoutCheckInterval == 0 {
				if err := m.checkDeadline(); err != nil {
					return 0, err
				}
			}
			m.result.OpCounts[in.Op]++

			switch in.Op {
			case ir.OpCopy:
				regs[in.Dst] = eval(regs, in.Args[0])
			case ir.OpAdd:
				regs[in.Dst] = eval(regs, in.Args[0]) + eval(regs, in.Args[1])
			case ir.OpSub:
				regs[in.Dst] = eval(regs, in.Args[0]) - eval(regs, in.Args[1])
			case ir.OpMul:
				regs[in.Dst] = eval(regs, in.Args[0]) * eval(regs, in.Args[1])
			case ir.OpDiv:
				d := eval(regs, in.Args[1])
				if d == 0 {
					return 0, fmt.Errorf("interp: division by zero in %s", f.Name)
				}
				regs[in.Dst] = eval(regs, in.Args[0]) / d
			case ir.OpRem:
				d := eval(regs, in.Args[1])
				if d == 0 {
					return 0, fmt.Errorf("interp: modulo by zero in %s", f.Name)
				}
				regs[in.Dst] = eval(regs, in.Args[0]) % d
			case ir.OpAnd:
				regs[in.Dst] = eval(regs, in.Args[0]) & eval(regs, in.Args[1])
			case ir.OpOr:
				regs[in.Dst] = eval(regs, in.Args[0]) | eval(regs, in.Args[1])
			case ir.OpXor:
				regs[in.Dst] = eval(regs, in.Args[0]) ^ eval(regs, in.Args[1])
			case ir.OpShl:
				regs[in.Dst] = eval(regs, in.Args[0]) << (uint64(eval(regs, in.Args[1])) & 63)
			case ir.OpShr:
				regs[in.Dst] = eval(regs, in.Args[0]) >> (uint64(eval(regs, in.Args[1])) & 63)
			case ir.OpNeg:
				regs[in.Dst] = -eval(regs, in.Args[0])
			case ir.OpNot:
				regs[in.Dst] = ^eval(regs, in.Args[0])
			case ir.OpEq:
				regs[in.Dst] = b2i(eval(regs, in.Args[0]) == eval(regs, in.Args[1]))
			case ir.OpNe:
				regs[in.Dst] = b2i(eval(regs, in.Args[0]) != eval(regs, in.Args[1]))
			case ir.OpLt:
				regs[in.Dst] = b2i(eval(regs, in.Args[0]) < eval(regs, in.Args[1]))
			case ir.OpLe:
				regs[in.Dst] = b2i(eval(regs, in.Args[0]) <= eval(regs, in.Args[1]))
			case ir.OpGt:
				regs[in.Dst] = b2i(eval(regs, in.Args[0]) > eval(regs, in.Args[1]))
			case ir.OpGe:
				regs[in.Dst] = b2i(eval(regs, in.Args[0]) >= eval(regs, in.Args[1]))

			case ir.OpLoad:
				addr, err := m.addrOf(in.Loc, slotBase)
				if err != nil {
					return 0, err
				}
				v, err := m.loadMem(addr, "load", f.Name)
				if err != nil {
					return 0, err
				}
				regs[in.Dst] = v
			case ir.OpStore:
				addr, err := m.addrOf(in.Loc, slotBase)
				if err != nil {
					return 0, err
				}
				if err := m.storeMem(addr, eval(regs, in.Args[0]), "store", f.Name); err != nil {
					return 0, err
				}
			case ir.OpAddr:
				addr, err := m.addrOf(in.Loc, slotBase)
				if err != nil {
					return 0, err
				}
				regs[in.Dst] = addr
			case ir.OpLoadPtr:
				v, err := m.loadMem(eval(regs, in.Args[0]), "pointer load", f.Name)
				if err != nil {
					return 0, err
				}
				regs[in.Dst] = v
			case ir.OpStorePtr:
				if err := m.storeMem(eval(regs, in.Args[0]), eval(regs, in.Args[1]), "pointer store", f.Name); err != nil {
					return 0, err
				}
			case ir.OpLoadIdx:
				i := eval(regs, in.Args[0])
				if i < 0 || i >= int64(in.Loc.Size()) {
					return 0, fmt.Errorf("interp: index %d out of range for %s[%d] in %s",
						i, in.Loc.Object(), in.Loc.Size(), f.Name)
				}
				addr, err := m.addrOf(in.Loc, slotBase)
				if err != nil {
					return 0, err
				}
				v, err := m.loadMem(addr+i, "indexed load", f.Name)
				if err != nil {
					return 0, err
				}
				regs[in.Dst] = v
			case ir.OpStoreIdx:
				i := eval(regs, in.Args[0])
				if i < 0 || i >= int64(in.Loc.Size()) {
					return 0, fmt.Errorf("interp: index %d out of range for %s[%d] in %s",
						i, in.Loc.Object(), in.Loc.Size(), f.Name)
				}
				addr, err := m.addrOf(in.Loc, slotBase)
				if err != nil {
					return 0, err
				}
				if err := m.storeMem(addr+i, eval(regs, in.Args[1]), "indexed store", f.Name); err != nil {
					return 0, err
				}

			case ir.OpCall:
				callee := m.prog.Func(in.Callee)
				if callee == nil {
					return 0, fmt.Errorf("interp: call to unknown function %s", in.Callee)
				}
				cargs := make([]int64, len(in.Args))
				for i, a := range in.Args {
					cargs[i] = eval(regs, a)
				}
				rv, err := m.call(callee, cargs, depth+1)
				if err != nil {
					return 0, err
				}
				if in.HasDst() {
					regs[in.Dst] = rv
				}
			case ir.OpPrint:
				if len(m.result.Output) < m.opts.MaxOutput {
					m.result.Output = append(m.result.Output, eval(regs, in.Args[0]))
				}
			case ir.OpDummyLoad:
				// Promotion bookkeeping only; no runtime effect.
			case ir.OpMemPhi:
				// Memory SSA bookkeeping only; no runtime effect.

			case ir.OpJmp:
				prev, blk = blk, blk.Succs[0]
			case ir.OpBr:
				si := 1
				if eval(regs, in.Args[0]) != 0 {
					si = 0
				}
				prev, blk = blk, blk.Succs[si]
			case ir.OpRet:
				if len(in.Args) > 0 {
					return eval(regs, in.Args[0]), nil
				}
				return 0, nil
			default:
				return 0, fmt.Errorf("interp: unhandled opcode %s", in.Op)
			}
			if in.Op.IsTerminator() {
				break
			}
		}
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
