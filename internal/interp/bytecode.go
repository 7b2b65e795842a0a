// Bytecode compilation for the production engine. The compiler flattens
// a function into a linear array of register-numbered instructions with
// the blocks' phi prefixes lowered to per-edge copy sequences, constants
// materialized into a pool appended to the register frame (so operand
// resolution is one indexed load, never a const/register branch), and
// the two most common adjacent pairs fused into single superinstructions
// (scalar load + arithmetic consumer, comparison + conditional branch).
// Memory addressing is resolved at compile time: global cells become
// absolute arena addresses, slot cells become frame-relative offsets via
// FrameLayout, so the executor's load/store is pointer arithmetic plus a
// bounds check.
//
// Compiled code is immutable. Each run compiles every function it calls
// once, on the first call, and keeps the code for the rest of the run
// (bcexec.go, codeFor); no code outlives its run.
package interp

import (
	"fmt"

	"repro/internal/ir"
)

// bcOp enumerates bytecode opcodes. The base set mirrors ir.Op one to
// one; the fused opcodes execute an adjacent pair in one dispatch while
// preserving the pair's observable accounting (both steps, both opcode
// counts, both destination writes, original fault ordering).
type bcOp uint8

const (
	bcInvalid bcOp = iota

	// dst = a op b (operands are frame indexes: registers or pool
	// constants).
	bcAdd
	bcSub
	bcMul
	bcDiv
	bcRem
	bcAnd
	bcOr
	bcXor
	bcShl
	bcShr
	bcEq
	bcNe
	bcLt
	bcLe
	bcGt
	bcGe

	bcNeg  // dst = -a
	bcNot  // dst = ^a
	bcCopy // dst = a

	bcLoad     // dst = mem[addr]
	bcStore    // mem[addr] = a
	bcAddr     // dst = addr
	bcLoadPtr  // dst = mem[regs[a]]
	bcStorePtr // mem[regs[a]] = b
	bcLoadIdx  // dst = mem[addr + a], bounds-checked against size
	bcStoreIdx // mem[addr + a] = b, bounds-checked against size

	bcCall  // dst = callee(args...)
	bcPrint // print a
	bcNop   // dummyload / body memphi: counted, no effect

	bcJmp     // take edges[aux]
	bcBr      // a != 0 ? edges[aux] : edges[aux2]
	bcRet     // return a
	bcRetVoid // return 0

	// bcTrap raises a precomputed error (unallocated slot, phi outside
	// the block prefix, unterminated block): malformed-IR paths that the
	// reference interpreter detects instruction by instruction and the
	// compiler detects once, up front.
	bcTrap

	// Fused load + arithmetic: dst2 = mem[addr]; dst = a op b. The load
	// destination is always written, so fusion needs no liveness
	// analysis, and faulting ops (div/rem) are never fused.
	bcLoadAdd
	bcLoadSub
	bcLoadMul
	bcLoadAnd
	bcLoadOr
	bcLoadXor
	bcLoadShl
	bcLoadShr

	// Fused comparison + branch: dst = a cmp b; branch on it. The
	// comparison destination is always written.
	bcEqBr
	bcNeBr
	bcLtBr
	bcLeBr
	bcGtBr
	bcGeBr

	// Fused arithmetic + statically addressed store: dst = a op b;
	// mem[addr] = frame[dst2]. Only stores whose cell is resolved at
	// compile time (scalar, or constant in-bounds index) fuse, so the
	// second half cannot fault before its own step is charged.
	bcAddSt
	bcSubSt
	bcMulSt
	bcAndSt
	bcOrSt
	bcXorSt
	bcShlSt
	bcShrSt
)

// bcInstr is one bytecode instruction, kept to hot fields only (48
// bytes, so instructions pack tightly into cache lines). Operand
// fields a, b are frame indexes (register number, or numRegs+k for
// constant pool entry k); dst and dst2 are register numbers, except
// that a fused store reads its stored value through dst2. Cold
// payloads — call argument lists, callee names, trap errors, and the
// IR instructions behind indexed-op error messages — live in side
// tables on bcCode, referenced by index.
type bcInstr struct {
	addr int64 // LocGlobal: absolute arena address; LocSlot: frame-relative
	size int64 // object cell count for indexed bounds checks
	dst  int32
	dst2 int32 // fused load destination; fused store value
	a    int32 // operand; argPool offset (Call)
	b    int32 // operand; argument count (Call)
	aux  int32 // edge index (Jmp, Br taken, fused-cmp Br taken); link slot (Call); trap index (Trap); src index (LoadIdx, StoreIdx)
	aux2 int32 // edge index (Br not taken)
	op   bcOp
	rel  bool // addr is frame-relative (slot cell)
}

// bcMove is one lowered phi move: frame[dst] = frame[src]. Sequences
// are pre-sequentialized, so execution is a plain ordered loop.
type bcMove struct {
	dst int32
	src int32
}

// bcEdge is one lowered CFG edge: where to resume, which counters to
// bump, how many phi-prefix steps the target charges, and the move
// sequence implementing the target's phi row for this predecessor.
type bcEdge struct {
	target   int32 // pc of the target block's first post-phi instruction
	blockID  int32 // target block, for the execution counter
	fromID   int32 // source block, for the edge profile counter
	succIdx  int32
	phiSteps int64
	copies   []bcMove
	trap     error // register phi entered from a non-predecessor
}

// opCount is one entry of a block's static opcode tally.
type opCount struct {
	op ir.Op
	n  int64
}

// bcCode is a compiled function. It is immutable after compilation.
type bcCode struct {
	fname string
	ins   []bcInstr
	edges []bcEdge

	consts   []int64 // constant pool, copied into each frame's tail
	numRegs  int32
	frameLen int32 // numRegs + len(consts) + 1 scratch slot

	nCalls int // call sites, numbering each bcCall's link slot

	// Cold side tables, indexed from bcInstr as documented there.
	argPool   []int32     // call arguments as frame indexes
	callNames []string    // callee name per call site
	traps     []error     // bcTrap payloads
	srcs      []*ir.Instr // indexed-op IR instructions, for error text
	frameSize int64       // memory-slot frame size (FrameLayout)

	entryPC       int32
	entryID       int32
	entryPhiSteps int64
	entryTrap     error // register phi in the entry block

	// blockOps[id] tallies every instruction of block id (phi prefix
	// included). A block entered on the successful path always runs to
	// its terminator, so opcode counts are exactly the per-block entry
	// counters times these static tallies, reconstructed once per run.
	blockOps [][]opCount
}

// compiler carries one compilation's state.
type compiler struct {
	f    *ir.Function
	code *bcCode

	constIdx map[int64]int32
	pcOf     []int32 // post-phi pc per BlockID
}

// emitTrap emits a bcTrap carrying err via the trap side table.
func (c *compiler) emitTrap(err error) {
	c.emit(bcInstr{op: bcTrap, aux: int32(len(c.code.traps))})
	c.code.traps = append(c.code.traps, err)
}

// srcIdx interns an IR instruction into the cold source table and
// returns its index.
func (c *compiler) srcIdx(in *ir.Instr) int32 {
	c.code.srcs = append(c.code.srcs, in)
	return int32(len(c.code.srcs) - 1)
}

// compileBytecode flattens f. Compilation never fails: malformed IR
// compiles to bcTrap instructions that reproduce the reference
// interpreter's errors at the same execution points.
func compileBytecode(f *ir.Function, globalBase map[*ir.Global]int64) *bcCode {
	_, fsize := f.FrameLayout()
	// Size the instruction, edge and tally arrays up front: fusion and
	// phi lowering only shrink the instruction stream, and a block's
	// tally has at most one entry per instruction, so one allocation
	// each serves the whole function (compilation is paid on every
	// cold run).
	nInstrs, nEdges := 0, 0
	for _, b := range f.Blocks {
		nInstrs += len(b.Instrs)
		nEdges += len(b.Succs)
	}
	c := &compiler{
		f: f,
		code: &bcCode{
			fname:     f.Name,
			ins:       make([]bcInstr, 0, nInstrs),
			edges:     make([]bcEdge, 0, nEdges),
			numRegs:   int32(f.NumRegs),
			frameSize: fsize,
			blockOps:  make([][]opCount, f.BlockIDBound()),
		},
		constIdx: make(map[int64]int32),
		pcOf:     make([]int32, f.BlockIDBound()),
	}

	// Pass 1: emit every block body (post-phi prefix) and record the
	// blocks' entry pcs, phi step counts, and static opcode tallies.
	// Edge indexes are assigned per block in f.Blocks order, successor
	// order within a block, matching the append order of pass 2.
	phiSteps := make([]int64, f.BlockIDBound())
	edgeBase := int32(0)
	// ops is the per-block opcode tally, reused (and cleared while it is
	// read out) across blocks; reading it in opcode order keeps the
	// tally order deterministic. Every block's tally is a subslice of
	// tallies, whose capacity never needs to grow.
	var ops [ir.NumOps]int64
	tallies := make([]opCount, 0, nInstrs)
	for _, b := range f.Blocks {
		idx := 0
		for idx < len(b.Instrs) && b.Instrs[idx].Op.IsPhi() {
			ops[b.Instrs[idx].Op]++
			phiSteps[b.ID]++
			idx++
		}
		c.pcOf[b.ID] = int32(len(c.code.ins))
		for i := idx; i < len(b.Instrs); i++ {
			ops[b.Instrs[i].Op]++
		}
		c.emitBody(b, idx, edgeBase, globalBase)
		if b.Term() == nil {
			// The reference interpreter spins forever re-entering an
			// unterminated block; the verifier rejects such IR before it
			// ever runs. Trap deterministically instead.
			c.emitTrap(fmt.Errorf("interp: block %v has no terminator in %s", b, f.Name))
		}
		start := len(tallies)
		for op, n := range ops {
			if n != 0 {
				tallies = append(tallies, opCount{op: ir.Op(op), n: n})
				ops[op] = 0
			}
		}
		c.code.blockOps[b.ID] = tallies[start:len(tallies):len(tallies)]
		edgeBase += int32(len(b.Succs))
	}

	// Pass 2: lower every CFG edge's phi row to a copy sequence now that
	// all targets have pcs.
	for _, b := range f.Blocks {
		for si, s := range b.Succs {
			c.code.edges = append(c.code.edges, c.lowerEdge(b, s, si, phiSteps))
		}
	}

	entry := f.Entry()
	c.code.entryPC = c.pcOf[entry.ID]
	c.code.entryID = int32(entry.ID)
	c.code.entryPhiSteps = phiSteps[entry.ID]
	for _, in := range entry.Phis() {
		if in.Op == ir.OpPhi {
			c.code.entryTrap = fmt.Errorf("interp: phi in %v entered from non-predecessor", entry)
			break
		}
	}

	// The constant pool is final only now (edge lowering interns phi
	// constants), so the scratch slot index is final only now: patch the
	// sentinel in every copy sequence.
	c.code.frameLen = c.code.numRegs + int32(len(c.code.consts)) + 1
	scratch := c.code.frameLen - 1
	for i := range c.code.edges {
		cps := c.code.edges[i].copies
		for j := range cps {
			if cps[j].dst == scratchSentinel {
				cps[j].dst = scratch
			}
			if cps[j].src == scratchSentinel {
				cps[j].src = scratch
			}
		}
	}
	return c.code
}

func (c *compiler) emit(in bcInstr) {
	c.code.ins = append(c.code.ins, in)
}

// valIdx returns the frame index of a value operand, interning
// constants into the pool.
func (c *compiler) valIdx(v ir.Value) int32 {
	if !v.IsConst() {
		return int32(v.Reg())
	}
	k := v.Const()
	if i, ok := c.constIdx[k]; ok {
		return i
	}
	i := c.code.numRegs + int32(len(c.code.consts))
	c.code.consts = append(c.code.consts, k)
	c.constIdx[k] = i
	return i
}

// scratchSentinel marks the phi-cycle scratch slot in copy sequences
// while the constant pool (and so the final frame length) is still
// growing; compileBytecode patches it to frameLen-1 once the pool is
// final. Frames always reserve that one trailing slot.
const scratchSentinel = int32(-2)

// resolveAddr compiles a memory location. ok=false means the location
// cannot be resolved (unallocated slot) and the caller must trap with
// err.
func (c *compiler) resolveAddr(loc ir.MemLoc, globalBase map[*ir.Global]int64, offs []int64) (addr int64, rel bool, err error) {
	switch loc.Kind {
	case ir.LocGlobal:
		// A global missing from the program maps to base 0, making the
		// final address fail the executor's bounds check exactly like
		// the reference interpreter's zero map lookup.
		return globalBase[loc.Global] + int64(loc.Offset), false, nil
	case ir.LocSlot:
		if loc.Slot.Index >= len(offs) {
			return 0, false, fmt.Errorf("interp: slot %s not allocated", loc.Slot.Name)
		}
		return offs[loc.Slot.Index] + int64(loc.Offset), true, nil
	}
	return 0, false, fmt.Errorf("interp: address of %v", loc)
}

// fusedStoreOp maps a fusible arithmetic producer to its store-fused
// form, or bcInvalid. Div and Rem are excluded: they fault between the
// pair's two steps.
func fusedStoreOp(op ir.Op) bcOp {
	switch op {
	case ir.OpAdd:
		return bcAddSt
	case ir.OpSub:
		return bcSubSt
	case ir.OpMul:
		return bcMulSt
	case ir.OpAnd:
		return bcAndSt
	case ir.OpOr:
		return bcOrSt
	case ir.OpXor:
		return bcXorSt
	case ir.OpShl:
		return bcShlSt
	case ir.OpShr:
		return bcShrSt
	}
	return bcInvalid
}

// staticStore reports whether a store's cell is fully resolved at
// compile time — a scalar store, or an indexed store with a constant
// in-bounds index — returning the resolved address and the stored
// value's frame index.
func (c *compiler) staticStore(in *ir.Instr, globalBase map[*ir.Global]int64, offs []int64) (addr int64, rel bool, val int32, ok bool) {
	switch in.Op {
	case ir.OpStore:
		a, r, err := c.resolveAddr(in.Loc, globalBase, offs)
		if err != nil {
			return 0, false, 0, false
		}
		return a, r, c.valIdx(in.Args[0]), true
	case ir.OpStoreIdx:
		ix := in.Args[0]
		if !ix.IsConst() || ix.Const() < 0 || ix.Const() >= int64(in.Loc.Size()) {
			return 0, false, 0, false
		}
		a, r, err := c.resolveAddr(in.Loc, globalBase, offs)
		if err != nil {
			return 0, false, 0, false
		}
		return a + ix.Const(), r, c.valIdx(in.Args[1]), true
	}
	return 0, false, 0, false
}

// binOpOf maps a binary/compare ir.Op to its bytecode opcode, or
// bcInvalid.
func binOpOf(op ir.Op) bcOp {
	switch op {
	case ir.OpAdd:
		return bcAdd
	case ir.OpSub:
		return bcSub
	case ir.OpMul:
		return bcMul
	case ir.OpDiv:
		return bcDiv
	case ir.OpRem:
		return bcRem
	case ir.OpAnd:
		return bcAnd
	case ir.OpOr:
		return bcOr
	case ir.OpXor:
		return bcXor
	case ir.OpShl:
		return bcShl
	case ir.OpShr:
		return bcShr
	case ir.OpEq:
		return bcEq
	case ir.OpNe:
		return bcNe
	case ir.OpLt:
		return bcLt
	case ir.OpLe:
		return bcLe
	case ir.OpGt:
		return bcGt
	case ir.OpGe:
		return bcGe
	}
	return bcInvalid
}

// fusedLoadOp maps a fusible arithmetic consumer to its load-fused
// opcode, or bcInvalid. Div and Rem are excluded: their zero-divisor
// fault would complicate the fused limit/fault ordering for no gain.
func fusedLoadOp(op ir.Op) bcOp {
	switch op {
	case ir.OpAdd:
		return bcLoadAdd
	case ir.OpSub:
		return bcLoadSub
	case ir.OpMul:
		return bcLoadMul
	case ir.OpAnd:
		return bcLoadAnd
	case ir.OpOr:
		return bcLoadOr
	case ir.OpXor:
		return bcLoadXor
	case ir.OpShl:
		return bcLoadShl
	case ir.OpShr:
		return bcLoadShr
	}
	return bcInvalid
}

// fusedCmpBr maps a comparison to its branch-fused opcode, or
// bcInvalid.
func fusedCmpBr(op ir.Op) bcOp {
	switch op {
	case ir.OpEq:
		return bcEqBr
	case ir.OpNe:
		return bcNeBr
	case ir.OpLt:
		return bcLtBr
	case ir.OpLe:
		return bcLeBr
	case ir.OpGt:
		return bcGtBr
	case ir.OpGe:
		return bcGeBr
	}
	return bcInvalid
}

// emitBody compiles the non-phi instructions of b, fusing adjacent
// load+arith and cmp+branch pairs. edgeBase is the index of b's first
// outgoing edge in the final edge array.
func (c *compiler) emitBody(b *ir.Block, start int, edgeBase int32, globalBase map[*ir.Global]int64) {
	f := c.f
	offs, _ := f.FrameLayout()

	for i := start; i < len(b.Instrs); i++ {
		in := b.Instrs[i]
		switch in.Op {
		case ir.OpCopy:
			c.emit(bcInstr{op: bcCopy, dst: int32(in.Dst), a: c.valIdx(in.Args[0])})
		case ir.OpNeg:
			c.emit(bcInstr{op: bcNeg, dst: int32(in.Dst), a: c.valIdx(in.Args[0])})
		case ir.OpNot:
			c.emit(bcInstr{op: bcNot, dst: int32(in.Dst), a: c.valIdx(in.Args[0])})

		case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem,
			ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr,
			ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
			// cmp + br fusion: the branch condition is this comparison's
			// destination and the branch immediately follows.
			if in.Op.IsCompare() && i+1 < len(b.Instrs) {
				next := b.Instrs[i+1]
				if next.Op == ir.OpBr && len(next.Args) == 1 && next.Args[0].IsReg(in.Dst) {
					c.emit(bcInstr{
						op:   fusedCmpBr(in.Op),
						dst:  int32(in.Dst),
						a:    c.valIdx(in.Args[0]),
						b:    c.valIdx(in.Args[1]),
						aux:  edgeBase,
						aux2: edgeBase + 1,
					})
					i++
					continue
				}
			}
			// arith + store fusion: the next instruction stores to a
			// statically resolved cell (often this result's only use).
			if fop := fusedStoreOp(in.Op); fop != bcInvalid && i+1 < len(b.Instrs) {
				next := b.Instrs[i+1]
				if next.Op == ir.OpStore || next.Op == ir.OpStoreIdx {
					if saddr, srel, sval, ok := c.staticStore(next, globalBase, offs); ok {
						c.emit(bcInstr{
							op:   fop,
							dst:  int32(in.Dst),
							dst2: sval,
							a:    c.valIdx(in.Args[0]),
							b:    c.valIdx(in.Args[1]),
							addr: saddr,
							rel:  srel,
						})
						i++
						continue
					}
				}
			}
			c.emit(bcInstr{
				op:  binOpOf(in.Op),
				dst: int32(in.Dst),
				a:   c.valIdx(in.Args[0]),
				b:   c.valIdx(in.Args[1]),
			})

		case ir.OpLoad:
			addr, rel, err := c.resolveAddr(in.Loc, globalBase, offs)
			if err != nil {
				c.emitTrap(err)
				continue
			}
			// load + arith fusion: write the load destination, then run
			// the consumer; operands resolve through the frame, so the
			// loaded value is visible wherever the pair referenced it.
			if i+1 < len(b.Instrs) {
				next := b.Instrs[i+1]
				if fop := fusedLoadOp(next.Op); fop != bcInvalid && next.HasDst() && len(next.Args) == 2 {
					c.emit(bcInstr{
						op:   fop,
						dst:  int32(next.Dst),
						dst2: int32(in.Dst),
						a:    c.valIdx(next.Args[0]),
						b:    c.valIdx(next.Args[1]),
						addr: addr,
						rel:  rel,
					})
					i++
					continue
				}
			}
			c.emit(bcInstr{op: bcLoad, dst: int32(in.Dst), addr: addr, rel: rel})
		case ir.OpStore:
			addr, rel, err := c.resolveAddr(in.Loc, globalBase, offs)
			if err != nil {
				c.emitTrap(err)
				continue
			}
			c.emit(bcInstr{op: bcStore, a: c.valIdx(in.Args[0]), addr: addr, rel: rel})
		case ir.OpAddr:
			addr, rel, err := c.resolveAddr(in.Loc, globalBase, offs)
			if err != nil {
				c.emitTrap(err)
				continue
			}
			c.emit(bcInstr{op: bcAddr, dst: int32(in.Dst), addr: addr, rel: rel})
		case ir.OpLoadPtr:
			c.emit(bcInstr{op: bcLoadPtr, dst: int32(in.Dst), a: c.valIdx(in.Args[0])})
		case ir.OpStorePtr:
			c.emit(bcInstr{op: bcStorePtr, a: c.valIdx(in.Args[0]), b: c.valIdx(in.Args[1])})
		case ir.OpLoadIdx:
			addr, rel, err := c.resolveAddr(in.Loc, globalBase, offs)
			if err != nil {
				c.emitTrap(err)
				continue
			}
			// A constant in-bounds index folds into the address: the
			// bounds check is decided here, and the cell is a statically
			// laid-out slot or global, so the residual address check can
			// never fire — the plain-load form is observationally exact.
			if ix := in.Args[0]; ix.IsConst() && ix.Const() >= 0 && ix.Const() < int64(in.Loc.Size()) {
				addr += ix.Const()
				if i+1 < len(b.Instrs) {
					next := b.Instrs[i+1]
					if fop := fusedLoadOp(next.Op); fop != bcInvalid && next.HasDst() && len(next.Args) == 2 {
						c.emit(bcInstr{
							op:   fop,
							dst:  int32(next.Dst),
							dst2: int32(in.Dst),
							a:    c.valIdx(next.Args[0]),
							b:    c.valIdx(next.Args[1]),
							addr: addr,
							rel:  rel,
						})
						i++
						continue
					}
				}
				c.emit(bcInstr{op: bcLoad, dst: int32(in.Dst), addr: addr, rel: rel})
				continue
			}
			c.emit(bcInstr{
				op: bcLoadIdx, dst: int32(in.Dst), a: c.valIdx(in.Args[0]),
				aux: c.srcIdx(in), addr: addr, rel: rel, size: int64(in.Loc.Size()),
			})
		case ir.OpStoreIdx:
			addr, rel, err := c.resolveAddr(in.Loc, globalBase, offs)
			if err != nil {
				c.emitTrap(err)
				continue
			}
			if ix := in.Args[0]; ix.IsConst() && ix.Const() >= 0 && ix.Const() < int64(in.Loc.Size()) {
				c.emit(bcInstr{op: bcStore, a: c.valIdx(in.Args[1]), addr: addr + ix.Const(), rel: rel})
				continue
			}
			c.emit(bcInstr{
				op: bcStoreIdx, a: c.valIdx(in.Args[0]), b: c.valIdx(in.Args[1]),
				aux: c.srcIdx(in), addr: addr, rel: rel, size: int64(in.Loc.Size()),
			})

		case ir.OpCall:
			off := int32(len(c.code.argPool))
			for _, a := range in.Args {
				c.code.argPool = append(c.code.argPool, c.valIdx(a))
			}
			dst := int32(ir.NoReg)
			if in.HasDst() {
				dst = int32(in.Dst)
			}
			c.code.callNames = append(c.code.callNames, in.Callee)
			c.emit(bcInstr{op: bcCall, dst: dst, aux: int32(c.code.nCalls), a: off, b: int32(len(in.Args))})
			c.code.nCalls++
		case ir.OpPrint:
			c.emit(bcInstr{op: bcPrint, a: c.valIdx(in.Args[0])})
		case ir.OpDummyLoad, ir.OpMemPhi:
			// OpMemPhi outside the phi prefix is unreachable in verified
			// IR; the reference treats both as counted no-ops.
			c.emit(bcInstr{op: bcNop})

		case ir.OpJmp:
			c.emit(bcInstr{op: bcJmp, aux: edgeBase})
		case ir.OpBr:
			c.emit(bcInstr{op: bcBr, a: c.valIdx(in.Args[0]), aux: edgeBase, aux2: edgeBase + 1})
		case ir.OpRet:
			if len(in.Args) > 0 {
				c.emit(bcInstr{op: bcRet, a: c.valIdx(in.Args[0])})
			} else {
				c.emit(bcInstr{op: bcRetVoid})
			}

		default:
			// Matches the reference switch's default arm (a phi past the
			// prefix lands here too).
			c.emitTrap(fmt.Errorf("interp: unhandled opcode %s", in.Op))
		}
	}
}

// lowerEdge builds the edge descriptor for b -> s at successor index
// si. The phi row follows the reference semantics exactly: the
// predecessor index is the FIRST occurrence of b in s.Preds (duplicate
// edges share one row), and all phi reads happen before any phi write
// (sequentialized with the scratch slot when the moves form a cycle).
func (c *compiler) lowerEdge(b, s *ir.Block, si int, phiSteps []int64) bcEdge {
	e := bcEdge{
		target:   c.pcOf[s.ID],
		blockID:  int32(s.ID),
		fromID:   int32(b.ID),
		succIdx:  int32(si),
		phiSteps: phiSteps[s.ID],
	}
	pi := s.PredIndex(b)
	if pi < 0 {
		// Successor lists b but b is missing from Preds: broken CFG
		// wiring. The reference fails at the first register phi; an edge into a
		// phi-free block tolerates it, and so does this path (no copies
		// to build).
		for _, in := range s.Phis() {
			if in.Op == ir.OpPhi {
				e.trap = fmt.Errorf("interp: phi in %v entered from non-predecessor", s)
				return e
			}
		}
		return e
	}
	var moves []bcMove
	for _, in := range s.Phis() {
		if in.Op != ir.OpPhi {
			continue
		}
		moves = append(moves, bcMove{dst: int32(in.Dst), src: c.valIdx(in.Args[pi])})
	}
	e.copies = sequentialize(moves)
	return e
}

// sequentialize orders a parallel move set so plain sequential
// execution preserves the all-reads-first semantics. Cycles are broken
// through the frame's scratch slot (index frameLen-1, emitted as
// scratchSentinel and patched by the executor's frame setup — one
// scratch suffices because cycles are broken one at a time).
func sequentialize(moves []bcMove) []bcMove {
	out := make([]bcMove, 0, len(moves))
	// Self-moves are no-ops.
	pending := moves[:0]
	for _, mv := range moves {
		if mv.dst != mv.src {
			pending = append(pending, mv)
		}
	}
	for len(pending) > 0 {
		emitted := false
		for i, mv := range pending {
			needed := false
			for j, other := range pending {
				if j != i && other.src == mv.dst {
					needed = true
					break
				}
			}
			if !needed {
				out = append(out, mv)
				pending = append(pending[:i], pending[i+1:]...)
				emitted = true
				break
			}
		}
		if !emitted {
			// Every pending destination is still needed as a source: a
			// cycle. Park one value in the scratch slot and redirect its
			// readers there.
			mv0 := pending[0]
			out = append(out, bcMove{dst: scratchSentinel, src: mv0.dst})
			for j := range pending {
				if pending[j].src == mv0.dst {
					pending[j].src = scratchSentinel
				}
			}
		}
	}
	return out
}
