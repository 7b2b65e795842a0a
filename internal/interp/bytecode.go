// Bytecode compilation for the production engine. The compiler flattens
// a function into a linear array of register-numbered instructions with
// the blocks' phi prefixes lowered to per-edge copy sequences, constants
// materialized into a pool appended to the register frame (so operand
// resolution is one indexed load, never a const/register branch), and
// the most common adjacent runs fused into single superinstructions
// (scalar load + arithmetic consumer, with or without a store after
// it; comparison + conditional branch; arithmetic + store; arithmetic +
// jump). A block's trailing copies fold into its jump, running as the
// edge's leading moves; an edge into a block that only jumps is
// threaded to where that jump leads; and division or remainder by a
// nonzero constant runs without a hardware divide (divconst.go).
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
	bcCopyJmp // b trailing copies, then jmp: take edges[aux], whose moves lead with the copies
	bcBr      // a != 0 ? edges[aux] : edges[aux2]
	bcRet     // return a
	bcRetVoid // return 0

	// bcTrap raises a precomputed error (unallocated slot, phi outside
	// the block prefix, unterminated block): malformed-IR paths that the
	// reference interpreter detects instruction by instruction and the
	// compiler detects once, up front.
	bcTrap

	// The fused families below each cover the non-faulting arithmetic
	// ops in one order (Add, Sub, Mul, And, Or, Xor, Shl, Shr; see
	// fusibleArith), so a family member's offset from its first opcode
	// selects the arithmetic (arith). Div and Rem never fuse: they fault
	// between the fused steps.

	// Fused load + arithmetic: dst2 = mem[addr]; dst = a op b. The load
	// destination is always written, so fusion needs no liveness
	// analysis.
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

	// Fused load + arithmetic + statically addressed store: dst2 =
	// mem[addr]; dst = a op b; mem[size] = frame[aux], with rel2 making
	// the store's cell frame-relative.
	bcLoadAddSt
	bcLoadSubSt
	bcLoadMulSt
	bcLoadAndSt
	bcLoadOrSt
	bcLoadXorSt
	bcLoadShlSt
	bcLoadShrSt

	// Fused arithmetic + jump: dst = a op b; charge aux2 more steps (the
	// jmp, and the block's folded trailing copies when it has some);
	// take edges[aux].
	bcAddJmp
	bcSubJmp
	bcMulJmp
	bcAndJmp
	bcOrJmp
	bcXorJmp
	bcShlJmp
	bcShrJmp

	// Division and remainder by a nonzero constant (divconst.go): no
	// zero check and no idiv. dst = a / d or a % d, with d's shift,
	// mask or reciprocal precomputed in size, aux and addr.
	bcDivPow2
	bcRemPow2
	bcDivMagic
	bcRemMagic
)

// bcInstr is one bytecode instruction, kept to hot fields only (48
// bytes, so instructions pack tightly into cache lines). Operand
// fields a, b are frame indexes (register number, or numRegs+k for
// constant pool entry k); dst and dst2 are register numbers, except
// that an arith+store reads its stored value through dst2 (a
// load+arith+store through aux). Cold
// payloads — call argument lists, callee names, trap errors, and the
// IR instructions behind indexed-op error messages — live in side
// tables on bcCode, referenced by index.
type bcInstr struct {
	addr int64 // LocGlobal: absolute arena address; LocSlot: frame-relative; divisor data (constant Div/Rem)
	size int64 // object cell count for indexed bounds checks; mask or reciprocal (constant Div/Rem); store address (load+arith+store)
	dst  int32
	dst2 int32 // fused load destination; arith+store value
	a    int32 // operand; argPool offset (Call)
	b    int32 // operand; argument count (Call); copy count (CopyJmp)
	aux  int32 // edge index (Jmp, CopyJmp, Br taken, fused-cmp Br taken, arith+jump); link slot (Call); trap index (Trap); src index (LoadIdx, StoreIdx); shift (constant Div/Rem); store value (load+arith+store)
	aux2 int32 // edge index (Br not taken); steps after the arithmetic (arith+jump)
	op   bcOp
	rel  bool // addr is frame-relative (slot cell)
	rel2 bool // the load+arith+store's store address is frame-relative
}

// bcMove is one lowered phi move: frame[dst] = frame[src]. Sequences
// are pre-sequentialized, so execution is a plain ordered loop.
type bcMove struct {
	dst int32
	src int32
}

// bcEdge is one lowered CFG edge: where to resume, how many steps it
// charges (the target's phi prefix), and its move sequence
// bcCode.moves[movesLo:movesHi]: the source block's folded trailing
// copies, in block order, then the target's phi row for this
// predecessor. Edges are numbered in f.Blocks order, successor order
// within a block; the executor counts traversals by that number.
//
// An edge into a jump-only block is threaded (compiler.thread): it
// resumes where the block's own out-edge resumes, charges the block's
// steps and that edge's too, and runs both edges' moves in order. via
// names the out-edge it runs through, whose traversals flushCounts
// credits with this edge's.
type bcEdge struct {
	steps   int64
	target  int32 // pc of the first post-phi instruction of the block the edge resumes in
	movesLo int32
	movesHi int32
	via     int32 // edge this one is threaded through, or -1
	trap    error // register phi entered from a non-predecessor
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
	moves []bcMove // every edge's move sequence, back to back

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
	// fold[id] is the index of the first trailing copy that block id's
	// bcCopyJmp folds into its out-edge, or len(Instrs) when the block
	// folds nothing (foldStart).
	fold []int32
	// jumpOnly[id] is the index of block id's out-edge when its body
	// (post-phi) is only a jmp, or a folded copy run and a jmp;
	// otherwise -1.
	jumpOnly []int32
	phiRow   []bcMove // phi-row scratch, reused across edges
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
	}
	nb := int(f.BlockIDBound())
	perBlock := make([]int32, 3*nb+nEdges)
	c.pcOf, c.fold, c.jumpOnly = perBlock[:nb], perBlock[nb:2*nb], perBlock[2*nb:3*nb]
	// hop[k] is the out-edge of edge k's target when edge k can be
	// threaded through it (thread), or -1.
	hop := perBlock[3*nb:]

	// Pass 1: emit every block body (post-phi prefix) and record the
	// blocks' entry pcs, phi step counts, and static opcode tallies.
	// Edge indexes are assigned per block in f.Blocks order, successor
	// order within a block, matching the append order of pass 2.
	phiSteps := make([]int64, f.BlockIDBound())
	edgeBase := int32(0)
	// A block's tally lists its opcodes in order of first appearance.
	// While it is built, slot[op] is 1 + op's index in it (0: not seen
	// yet); slot is cleared from the finished tally, so the cost is per
	// instruction, not per opcode. Every block's tally is a subslice of
	// tallies, whose capacity never needs to grow.
	var slot [ir.NumOps]int32
	tallies := make([]opCount, 0, nInstrs)
	// nMoves sizes the move array: every folded copy, and one move per
	// register phi per predecessor (cycles may add a few).
	nMoves := 0
	for _, b := range f.Blocks {
		idx := 0
		for idx < len(b.Instrs) && b.Instrs[idx].Op.IsPhi() {
			if b.Instrs[idx].Op == ir.OpPhi {
				nMoves += len(b.Preds)
			}
			phiSteps[b.ID]++
			idx++
		}
		c.pcOf[b.ID] = int32(len(c.code.ins))
		c.fold[b.ID] = foldStart(b, idx)
		if n := len(b.Instrs) - 1 - int(c.fold[b.ID]); n > 0 {
			nMoves += n
		}
		c.emitBody(b, idx, edgeBase, globalBase)
		if b.Term() == nil {
			// The reference interpreter spins forever re-entering an
			// unterminated block; the verifier rejects such IR before it
			// ever runs. Trap deterministically instead.
			c.emitTrap(fmt.Errorf("interp: block %v has no terminator in %s", b, f.Name))
		}
		c.jumpOnly[b.ID] = -1
		if op := c.code.ins[c.pcOf[b.ID]].op; (op == bcJmp || op == bcCopyJmp) && len(b.Succs) == 1 {
			c.jumpOnly[b.ID] = edgeBase
		}
		start := len(tallies)
		for _, in := range b.Instrs {
			if slot[in.Op] == 0 {
				tallies = append(tallies, opCount{op: in.Op})
				slot[in.Op] = int32(len(tallies) - start)
			}
			tallies[start+int(slot[in.Op])-1].n++
		}
		for _, oc := range tallies[start:] {
			slot[oc.op] = 0
		}
		c.code.blockOps[b.ID] = tallies[start:len(tallies):len(tallies)]
		edgeBase += int32(len(b.Succs))
	}

	// Threading (pass 3) appends a copy of both move runs for an edge
	// into a jump-only block when the edge and the block's out-edge both
	// move. Reserve room for those copies too, counted one hop deep, so
	// that one allocation usually serves all passes (longer chains of
	// such edges may still grow the array).
	outMoves := func(b *ir.Block) int { return max(len(b.Instrs)-1-int(c.fold[b.ID]), 0) }
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			if c.jumpOnly[s.ID] >= 0 {
				own := outMoves(b) + int(phiSteps[s.ID])
				next := outMoves(s) + int(phiSteps[s.Succs[0].ID])
				if own > 0 && next > 0 {
					nMoves += own + next
				}
			}
		}
	}

	// Pass 2: lower every CFG edge's moves to a copy sequence now that
	// all targets have pcs.
	if nMoves > 0 {
		c.code.moves = make([]bcMove, 0, nMoves)
	}
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			e := c.lowerEdge(b, s, phiSteps)
			hop[len(c.code.edges)] = -1
			if e.trap == nil {
				hop[len(c.code.edges)] = c.jumpOnly[s.ID]
			}
			c.code.edges = append(c.code.edges, e)
		}
	}

	// Pass 3: thread every edge into a jump-only block through it.
	for k := range c.code.edges {
		c.thread(int32(k), hop)
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
	// sentinel in every move.
	c.code.frameLen = c.code.numRegs + int32(len(c.code.consts)) + 1
	scratch := c.code.frameLen - 1
	for i := range c.code.moves {
		mv := &c.code.moves[i]
		if mv.dst == scratchSentinel {
			mv.dst = scratch
		}
		if mv.src == scratchSentinel {
			mv.src = scratch
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

// fusibleArith maps each arithmetic op that fuses with a neighbour to
// one more than its offset in every fused family, and every other op to
// 0. None of the fusible ops can fault.
var fusibleArith = [ir.NumOps]bcOp{
	ir.OpAdd: 1, ir.OpSub: 2, ir.OpMul: 3, ir.OpAnd: 4,
	ir.OpOr: 5, ir.OpXor: 6, ir.OpShl: 7, ir.OpShr: 8,
}

// fusedOp returns the member of the fused family whose first opcode is
// first that runs op, or bcInvalid when op does not fuse.
func fusedOp(first bcOp, op ir.Op) bcOp {
	if k := fusibleArith[op]; k != 0 {
		return first + k - 1
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

// foldStart returns the index of the first of b's trailing copies when
// b's body (from start) ends in a run of copies and then a jmp to its
// one successor, with no terminator before the run; otherwise
// len(b.Instrs). SSA destruction leaves such runs in front of most
// jumps, and folding them into the jump saves a dispatch per copy.
func foldStart(b *ir.Block, start int) int32 {
	n := len(b.Instrs)
	if n == 0 || b.Instrs[n-1].Op != ir.OpJmp || len(b.Succs) != 1 {
		return int32(n)
	}
	i := n - 1
	for i > start && b.Instrs[i-1].Op == ir.OpCopy {
		i--
	}
	if i == n-1 {
		return int32(n)
	}
	for _, in := range b.Instrs[start:i] {
		if in.Op.IsTerminator() {
			return int32(n) // the reference never reaches the run
		}
	}
	return int32(i)
}

// emitBody compiles the non-phi instructions of b, fusing adjacent
// load+arith(+store), arith+store, arith+jump and cmp+branch runs, and
// ends a folded copy run (c.fold) with one bcCopyJmp, or with the
// arith+jump that precedes it. edgeBase is the index of b's first
// outgoing edge in the final edge array.
func (c *compiler) emitBody(b *ir.Block, start int, edgeBase int32, globalBase map[*ir.Global]int64) {
	f := c.f
	offs, _ := f.FrameLayout()

	end := int(c.fold[b.ID])
	for i := start; i < end; i++ {
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
			if in.Op.IsCompare() && i+1 < end {
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
			if fop := fusedOp(bcAddSt, in.Op); fop != bcInvalid {
				// arith + store fusion: the next instruction stores to a
				// statically resolved cell (often this result's only use).
				if i+1 < end {
					if saddr, srel, sval, ok := c.staticStore(b.Instrs[i+1], globalBase, offs); ok {
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
				// arith + jump fusion: the block ends with this result and
				// a jmp, or a folded copy run and its jmp. aux2 counts the
				// steps after the arithmetic's.
				if folded := i+1 == end && end < len(b.Instrs); folded || i+1 < end && b.Instrs[i+1].Op == ir.OpJmp {
					after := int32(1)
					if folded {
						after = int32(len(b.Instrs) - end)
					}
					c.emit(bcInstr{
						op:   fop - bcAddSt + bcAddJmp,
						dst:  int32(in.Dst),
						a:    c.valIdx(in.Args[0]),
						b:    c.valIdx(in.Args[1]),
						aux:  edgeBase,
						aux2: after,
					})
					if folded {
						return // in place of the run's bcCopyJmp
					}
					i++
					continue
				}
			}
			if d := in.Args[1]; (in.Op == ir.OpDiv || in.Op == ir.OpRem) && d.IsConst() && d.Const() != 0 {
				c.emit(constDivInstr(in.Op == ir.OpRem, int32(in.Dst), c.valIdx(in.Args[0]), d.Const()))
				continue
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
			i += c.emitLoad(b, i, end, addr, rel, globalBase, offs)
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
				i += c.emitLoad(b, i, end, addr+ix.Const(), rel, globalBase, offs)
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
	if end < len(b.Instrs) {
		// The folded copies run as the edge's leading moves (lowerEdge);
		// this one instruction charges their steps and the jump's.
		c.emit(bcInstr{op: bcCopyJmp, aux: edgeBase, b: int32(len(b.Instrs) - 1 - end)})
	}
}

// emitLoad emits the scalar load b.Instrs[i] of the resolved cell addr,
// fused with an arithmetic consumer that follows it (load+arith), and
// with a statically addressed store after that (load+arith+store). It
// returns how many instructions past i it consumed. The load's
// destination is always written, so fusion needs no liveness analysis;
// operands resolve through the frame, so the loaded value is visible
// wherever the arithmetic references it.
func (c *compiler) emitLoad(b *ir.Block, i, end int, addr int64, rel bool, globalBase map[*ir.Global]int64, offs []int64) int {
	in := b.Instrs[i]
	if i+1 < end {
		next := b.Instrs[i+1]
		if fop := fusedOp(bcLoadAdd, next.Op); fop != bcInvalid && next.HasDst() && len(next.Args) == 2 {
			fi := bcInstr{
				op:   fop,
				dst:  int32(next.Dst),
				dst2: int32(in.Dst),
				a:    c.valIdx(next.Args[0]),
				b:    c.valIdx(next.Args[1]),
				addr: addr,
				rel:  rel,
			}
			if i+2 < end {
				if saddr, srel, sval, ok := c.staticStore(b.Instrs[i+2], globalBase, offs); ok {
					fi.op += bcLoadAddSt - bcLoadAdd
					fi.size, fi.rel2, fi.aux = saddr, srel, sval
					c.emit(fi)
					return 2
				}
			}
			c.emit(fi)
			return 1
		}
	}
	c.emit(bcInstr{op: bcLoad, dst: int32(in.Dst), addr: addr, rel: rel})
	return 0
}

// hopThreading marks, in thread's hop array, an edge on the chain
// being threaded.
const hopThreading = int32(-2)

// thread threads edge k through the jump-only block it enters, when
// hop[k] names that block's out-edge j: k then resumes where j resumes,
// charges the block's body steps and j's steps, and runs its own moves
// and then j's, which is the reference's order (k's folded copies and
// the block's phis, then the block's copies and the next block's
// phis). j is threaded first, so a chain of jump-only blocks collapses
// into each edge that enters it. An edge whose chain comes back to an
// edge still being threaded stays as it is: every cycle of jump-only
// blocks keeps one real jump, which the executor dispatches, and so
// step-checks, on every lap, and every via chain ends. An edge that
// traps is never threaded (hop is -1 for it), nor threaded into. hop[k]
// is -1 once k is done.
func (c *compiler) thread(k int32, hop []int32) {
	j := hop[k]
	if j < 0 {
		return
	}
	hop[k] = hopThreading
	if hop[j] != hopThreading {
		c.thread(j, hop)
		if e, n := &c.code.edges[k], &c.code.edges[j]; n.trap == nil {
			e.steps += 1 + int64(c.code.ins[e.target].b) + n.steps
			e.target = n.target
			e.via = j
			switch {
			case e.movesLo == e.movesHi:
				e.movesLo, e.movesHi = n.movesLo, n.movesHi
			case n.movesLo < n.movesHi:
				lo := int32(len(c.code.moves))
				c.code.moves = append(c.code.moves, c.code.moves[e.movesLo:e.movesHi]...)
				c.code.moves = append(c.code.moves, c.code.moves[n.movesLo:n.movesHi]...)
				e.movesLo, e.movesHi = lo, int32(len(c.code.moves))
			}
		}
	}
	hop[k] = -1
}

// lowerEdge builds the edge descriptor for b -> s and appends its moves
// to c.code.moves. The moves start with b's folded trailing copies, in
// block order, as the reference runs them before the jump. The phi row
// that follows keeps the reference semantics exactly: the predecessor
// index is the FIRST occurrence of b in s.Preds (duplicate edges share
// one row), and all phi reads happen before any phi write
// (sequentialized with the scratch slot when the moves form a cycle).
func (c *compiler) lowerEdge(b, s *ir.Block, phiSteps []int64) bcEdge {
	e := bcEdge{
		steps:  phiSteps[s.ID],
		target: c.pcOf[s.ID],
		via:    -1,
	}
	pi := s.PredIndex(b)
	row := c.phiRow[:0]
	for _, in := range s.Phis() {
		if in.Op != ir.OpPhi {
			continue
		}
		if pi < 0 {
			// Successor lists b but b is missing from Preds: broken CFG
			// wiring. The reference fails at the first register phi. An
			// edge into a block without one tolerates it, and then its
			// moves are b's folded copies alone.
			e.trap = fmt.Errorf("interp: phi in %v entered from non-predecessor", s)
			return e
		}
		row = append(row, bcMove{dst: int32(in.Dst), src: c.valIdx(in.Args[pi])})
	}
	c.phiRow = row
	moves := c.code.moves
	e.movesLo = int32(len(moves))
	if end := int(c.fold[b.ID]); end < len(b.Instrs) {
		for _, in := range b.Instrs[end : len(b.Instrs)-1] {
			if mv := (bcMove{dst: int32(in.Dst), src: c.valIdx(in.Args[0])}); mv.dst != mv.src {
				moves = append(moves, mv)
			}
		}
	}
	c.code.moves = sequentialize(moves, row)
	e.movesHi = int32(len(c.code.moves))
	return e
}

// sequentialize appends to out an order of the parallel move set moves
// (which it consumes) so that plain sequential execution preserves the
// all-reads-first semantics. Cycles are broken through the frame's
// scratch slot (index frameLen-1, emitted as scratchSentinel and
// patched once the constant pool is final — one scratch suffices
// because cycles are broken one at a time).
func sequentialize(out, moves []bcMove) []bcMove {
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
