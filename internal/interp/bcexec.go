// Bytecode execution: the dispatch loop over compiled code. One
// activation is one execBC call: a register frame carved from the
// machine's arena (registers, then the constant pool, then the phi
// scratch slot), memory slots bump-allocated as one contiguous frame at
// FrameLayout offsets, and a local step counter synced to the Result at
// call boundaries. Observable behavior — output, return value, step
// count, opcode counts, globals, profile, and every error message —
// matches the reference interpreter bit for bit; the engine-vs-reference
// differential tests hold the engine to that contract.
package interp

import (
	"fmt"
	"math"

	"repro/internal/ir"
	"repro/internal/profile"
)

// mcode is one machine's view of a compiled function: the shared
// immutable code plus this run's mutable companions — the dense
// counters and the lazily linked call sites. Linking resolves each
// call site's callee and code exactly once per run, so a steady-state
// call does no map lookups at all.
type mcode struct {
	code  *bcCode
	links []bcLink

	// Dense counters: activations, and traversals per edge index. They
	// are all the run counts: a block's executions are its incoming
	// edges' traversals (plus the activations, for the entry block), so
	// taking an edge bumps one counter, profiled or not (a threaded edge
	// bumps only its own), and flushCounts derives the skipped edges'
	// counts, block counts, opcode counts and the profile from these.
	entries int64
	edges   []int64
}

// bcLink is one resolved call site.
type bcLink struct {
	f  *ir.Function
	mc *mcode
}

// mcodeEntry is one slot of the machine's compiled-code table. The
// table is a pre-sized slice rather than a map: a run touches at most
// len(prog.Funcs) functions, lookups happen only while linking, and
// embedding the mcode values makes the whole table one allocation.
// The fixed capacity keeps handed-out *mcode pointers stable.
type mcodeEntry struct {
	f  *ir.Function
	mc mcode
}

// codeFor returns f's machine code wrapper from this run's table,
// compiling f on its first call in the run.
func (m *machine) codeFor(f *ir.Function) *mcode {
	for i := range m.codes {
		if m.codes[i].f == f {
			return &m.codes[i].mc
		}
	}
	c := compileBytecode(f, m.globalBase)
	mc := mcode{code: c, links: make([]bcLink, c.nCalls), edges: make([]int64, len(c.edges))}
	m.codes = append(m.codes, mcodeEntry{f: f, mc: mc})
	return &m.codes[len(m.codes)-1].mc
}

// callBC is the engine's top-level call: depth check, compile (on the
// run's first call of f), execute. Nested calls bypass it via linked
// sites.
func (m *machine) callBC(f *ir.Function, args []int64, depth int) (int64, error) {
	if depth > m.opts.MaxDepth {
		return 0, fmt.Errorf("interp: call depth exceeds %d in %s", m.opts.MaxDepth, f.Name)
	}
	return m.execBC(f, m.codeFor(f), args, depth)
}

// execBC runs one activation of compiled code. Every exit funnels
// through the done label, which restores the slot stack pointer and
// the register arena top — cheaper than a deferred closure on a
// function this hot.
func (m *machine) execBC(f *ir.Function, mc *mcode, args []int64, depth int) (rv int64, rerr error) {
	code := mc.code

	// Register frame: a slice of the shared arena. Growth reallocates
	// the arena without copying — live parent frames keep their captured
	// slices of the old backing array, and every new frame fully
	// initializes its own region, so activations never alias.
	need := int(code.frameLen)
	base := m.regTop
	if base+need > len(m.regArena) {
		n := 2 * len(m.regArena)
		if n < base+need {
			n = base + need
		}
		if n < 256 {
			n = 256
		}
		m.regArena = make([]int64, n)
	}
	regs := m.regArena[base : base+need]
	m.regTop = base + need
	nr := int(code.numRegs)
	zr := regs[:nr]
	for i := range zr {
		zr[i] = 0
	}
	copy(regs[nr:], code.consts)
	regs[need-1] = 0 // phi scratch
	for i, p := range f.Params {
		if i < len(args) {
			regs[p] = args[i]
		}
	}

	// Memory slot frame: one contiguous, zeroed block at FrameLayout
	// offsets.
	savedSP := m.sp
	frameBase := m.sp
	if end := m.sp + code.frameSize; end > int64(len(m.mem)) {
		m.ensure(end)
	}
	z := m.mem[frameBase : frameBase+code.frameSize]
	for i := range z {
		z[i] = 0
	}
	m.sp += code.frameSize

	ecnt := mc.edges

	steps := m.result.Steps
	maxSteps := m.opts.MaxSteps
	nextCheck := int64(math.MaxInt64)
	if !m.deadline.IsZero() {
		nextCheck = steps - steps%timeoutCheckInterval + timeoutCheckInterval
	}
	// One hot-path compare covers both bounds: trip when the step limit
	// is exceeded or a deadline check is due, and sort out which on the
	// cold side.
	limit := maxSteps
	if nextCheck-1 < limit {
		limit = nextCheck - 1
	}

	ins := code.ins
	edges := code.edges
	moves := code.moves
	pc := int(code.entryPC)
	var e *bcEdge
	var ei int32 // index of e, and of its counter
	var in *bcInstr
	mc.entries++
	steps += code.entryPhiSteps
	if code.entryTrap != nil {
		m.result.Steps = steps
		rerr = code.entryTrap
		goto done
	}

	for {
		in = &ins[pc]
		pc++
		steps++
		if steps > limit {
			if steps > maxSteps {
				m.result.Steps = steps
				rerr = fmt.Errorf("%w: limit %d", ErrStepLimit, maxSteps)
				goto done
			}
			m.result.Steps = steps
			if err := m.checkDeadline(); err != nil {
				rerr = err
				goto done
			}
			nextCheck = steps - steps%timeoutCheckInterval + timeoutCheckInterval
			limit = maxSteps
			if nextCheck-1 < limit {
				limit = nextCheck - 1
			}
		}

		switch in.op {
		case bcAdd:
			regs[in.dst] = regs[in.a] + regs[in.b]
		case bcSub:
			regs[in.dst] = regs[in.a] - regs[in.b]
		case bcMul:
			regs[in.dst] = regs[in.a] * regs[in.b]
		case bcDiv:
			d := regs[in.b]
			if d == 0 {
				m.result.Steps = steps
				rerr = fmt.Errorf("interp: division by zero in %s", code.fname)
				goto done
			}
			regs[in.dst] = regs[in.a] / d
		case bcRem:
			d := regs[in.b]
			if d == 0 {
				m.result.Steps = steps
				rerr = fmt.Errorf("interp: modulo by zero in %s", code.fname)
				goto done
			}
			regs[in.dst] = regs[in.a] % d
		case bcDivPow2:
			regs[in.dst] = divPow2(regs[in.a], in.size, in.aux, in.addr)
		case bcRemPow2:
			regs[in.dst] = remPow2(regs[in.a], in.size)
		case bcDivMagic:
			regs[in.dst] = divByMagic(regs[in.a], uint64(in.size), in.aux, in.addr)
		case bcRemMagic:
			regs[in.dst] = remByMagic(regs[in.a], uint64(in.size), in.aux, in.addr)
		case bcAnd:
			regs[in.dst] = regs[in.a] & regs[in.b]
		case bcOr:
			regs[in.dst] = regs[in.a] | regs[in.b]
		case bcXor:
			regs[in.dst] = regs[in.a] ^ regs[in.b]
		case bcShl:
			regs[in.dst] = regs[in.a] << (uint64(regs[in.b]) & 63)
		case bcShr:
			regs[in.dst] = regs[in.a] >> (uint64(regs[in.b]) & 63)
		case bcEq:
			regs[in.dst] = b2i(regs[in.a] == regs[in.b])
		case bcNe:
			regs[in.dst] = b2i(regs[in.a] != regs[in.b])
		case bcLt:
			regs[in.dst] = b2i(regs[in.a] < regs[in.b])
		case bcLe:
			regs[in.dst] = b2i(regs[in.a] <= regs[in.b])
		case bcGt:
			regs[in.dst] = b2i(regs[in.a] > regs[in.b])
		case bcGe:
			regs[in.dst] = b2i(regs[in.a] >= regs[in.b])
		case bcNeg:
			regs[in.dst] = -regs[in.a]
		case bcNot:
			regs[in.dst] = ^regs[in.a]
		case bcCopy:
			regs[in.dst] = regs[in.a]

		case bcLoad:
			addr := in.addr
			if in.rel {
				addr += frameBase
			}
			if addr <= 0 || addr >= int64(len(m.mem)) {
				m.result.Steps = steps
				rerr = fmt.Errorf("interp: load: invalid address %d in %s", addr, code.fname)
				goto done
			}
			regs[in.dst] = m.mem[addr]
		case bcStore:
			addr := in.addr
			if in.rel {
				addr += frameBase
			}
			if addr <= 0 || addr >= int64(len(m.mem)) {
				m.result.Steps = steps
				rerr = fmt.Errorf("interp: store: invalid address %d in %s", addr, code.fname)
				goto done
			}
			m.mem[addr] = regs[in.a]
		case bcAddr:
			addr := in.addr
			if in.rel {
				addr += frameBase
			}
			regs[in.dst] = addr
		case bcLoadPtr:
			addr := regs[in.a]
			if addr <= 0 || addr >= int64(len(m.mem)) {
				m.result.Steps = steps
				rerr = fmt.Errorf("interp: pointer load: invalid address %d in %s", addr, code.fname)
				goto done
			}
			regs[in.dst] = m.mem[addr]
		case bcStorePtr:
			addr := regs[in.a]
			if addr <= 0 || addr >= int64(len(m.mem)) {
				m.result.Steps = steps
				rerr = fmt.Errorf("interp: pointer store: invalid address %d in %s", addr, code.fname)
				goto done
			}
			m.mem[addr] = regs[in.b]
		case bcLoadIdx:
			i := regs[in.a]
			if i < 0 || i >= in.size {
				m.result.Steps = steps
				rerr = fmt.Errorf("interp: index %d out of range for %s[%d] in %s",
					i, code.srcs[in.aux].Loc.Object(), code.srcs[in.aux].Loc.Size(), code.fname)
				goto done
			}
			addr := in.addr + i
			if in.rel {
				addr += frameBase
			}
			if addr <= 0 || addr >= int64(len(m.mem)) {
				m.result.Steps = steps
				rerr = fmt.Errorf("interp: indexed load: invalid address %d in %s", addr, code.fname)
				goto done
			}
			regs[in.dst] = m.mem[addr]
		case bcStoreIdx:
			i := regs[in.a]
			if i < 0 || i >= in.size {
				m.result.Steps = steps
				rerr = fmt.Errorf("interp: index %d out of range for %s[%d] in %s",
					i, code.srcs[in.aux].Loc.Object(), code.srcs[in.aux].Loc.Size(), code.fname)
				goto done
			}
			addr := in.addr + i
			if in.rel {
				addr += frameBase
			}
			if addr <= 0 || addr >= int64(len(m.mem)) {
				m.result.Steps = steps
				rerr = fmt.Errorf("interp: indexed store: invalid address %d in %s", addr, code.fname)
				goto done
			}
			m.mem[addr] = regs[in.b]

		case bcCall:
			lk := &mc.links[in.aux]
			if lk.mc == nil {
				name := code.callNames[in.aux]
				callee := m.prog.Func(name)
				if callee == nil {
					m.result.Steps = steps
					rerr = fmt.Errorf("interp: call to unknown function %s", name)
					goto done
				}
				lk.f = callee
				lk.mc = m.codeFor(callee)
			}
			if depth+1 > m.opts.MaxDepth {
				m.result.Steps = steps
				rerr = fmt.Errorf("interp: call depth exceeds %d in %s", m.opts.MaxDepth, lk.f.Name)
				goto done
			}
			abase := len(m.argStack)
			for _, ai := range code.argPool[in.a : in.a+in.b] {
				m.argStack = append(m.argStack, regs[ai])
			}
			m.result.Steps = steps
			ret, err := m.execBC(lk.f, lk.mc, m.argStack[abase:], depth+1)
			m.argStack = m.argStack[:abase]
			if err != nil {
				rerr = err
				goto done
			}
			steps = m.result.Steps
			if nextCheck != math.MaxInt64 {
				nextCheck = steps - steps%timeoutCheckInterval + timeoutCheckInterval
				limit = maxSteps
				if nextCheck-1 < limit {
					limit = nextCheck - 1
				}
			}
			if in.dst >= 0 {
				regs[in.dst] = ret
			}
		case bcPrint:
			if len(m.result.Output) < m.opts.MaxOutput {
				m.result.Output = append(m.result.Output, regs[in.a])
			}
		case bcNop:
			// counted no-op (dummy load, body memphi)

		case bcJmp:
			ei = in.aux
			goto edge
		case bcCopyJmp:
			// The preamble charged the first folded copy; charge the
			// other copies and the jump unchecked (copies cannot fault,
			// so a run past the limit is caught by the next dispatch's
			// check, or by the edge's trap path, with the same error).
			// The edge runs the copies ahead of its phi moves.
			steps += int64(in.b)
			ei = in.aux
			goto edge
		case bcBr:
			if regs[in.a] != 0 {
				ei = in.aux
			} else {
				ei = in.aux2
			}
			goto edge
		case bcRet:
			m.result.Steps = steps
			rv = regs[in.a]
			goto done
		case bcRetVoid:
			m.result.Steps = steps
			goto done
		case bcTrap:
			m.result.Steps = steps
			rerr = code.traps[in.aux]
			goto done

		// Fused load + arithmetic. The preamble charged the load's step
		// and ran its limit/deadline checks; the load may fault, the
		// arithmetic cannot, so its step is charged unchecked and a run
		// past the limit fails at the next dispatch with the same error.
		case bcLoadAdd, bcLoadSub, bcLoadMul, bcLoadAnd, bcLoadOr, bcLoadXor, bcLoadShl, bcLoadShr:
			addr := in.addr
			if in.rel {
				addr += frameBase
			}
			if addr <= 0 || addr >= int64(len(m.mem)) {
				m.result.Steps = steps
				rerr = fmt.Errorf("interp: load: invalid address %d in %s", addr, code.fname)
				goto done
			}
			regs[in.dst2] = m.mem[addr]
			steps++
			regs[in.dst] = arith(in.op-bcLoadAdd, regs[in.a], regs[in.b])

		// Fused load + arithmetic + store: the load and the arithmetic
		// as above, then the store charges its step with a limit check
		// before its address check, as in the reference's order.
		case bcLoadAddSt, bcLoadSubSt, bcLoadMulSt, bcLoadAndSt, bcLoadOrSt, bcLoadXorSt, bcLoadShlSt, bcLoadShrSt:
			addr := in.addr
			if in.rel {
				addr += frameBase
			}
			if addr <= 0 || addr >= int64(len(m.mem)) {
				m.result.Steps = steps
				rerr = fmt.Errorf("interp: load: invalid address %d in %s", addr, code.fname)
				goto done
			}
			regs[in.dst2] = m.mem[addr]
			regs[in.dst] = arith(in.op-bcLoadAddSt, regs[in.a], regs[in.b])
			steps += 2
			if steps > maxSteps {
				m.result.Steps = steps
				rerr = fmt.Errorf("%w: limit %d", ErrStepLimit, maxSteps)
				goto done
			}
			addr = in.size
			if in.rel2 {
				addr += frameBase
			}
			if addr <= 0 || addr >= int64(len(m.mem)) {
				m.result.Steps = steps
				rerr = fmt.Errorf("interp: store: invalid address %d in %s", addr, code.fname)
				goto done
			}
			m.mem[addr] = regs[in.aux]

		// Fused comparison + branch: the preamble charged and checked
		// the comparison; the branch's step is charged unchecked (the
		// pair cannot fault, so a branch past the limit fails at the
		// next dispatch, or on the edge's trap path, with the same
		// error). The comparison destination is always written.
		case bcEqBr, bcNeBr, bcLtBr, bcLeBr, bcGtBr, bcGeBr:
			steps++
			var v int64
			switch in.op {
			case bcEqBr:
				v = b2i(regs[in.a] == regs[in.b])
			case bcNeBr:
				v = b2i(regs[in.a] != regs[in.b])
			case bcLtBr:
				v = b2i(regs[in.a] < regs[in.b])
			case bcLeBr:
				v = b2i(regs[in.a] <= regs[in.b])
			case bcGtBr:
				v = b2i(regs[in.a] > regs[in.b])
			case bcGeBr:
				v = b2i(regs[in.a] >= regs[in.b])
			}
			regs[in.dst] = v
			if v != 0 {
				ei = in.aux
			} else {
				ei = in.aux2
			}
			goto edge

		// Fused arithmetic + store: the preamble charged the arithmetic
		// step; the store charges its own step (with limit check) before
		// the address check, matching the reference instruction order.
		case bcAddSt, bcSubSt, bcMulSt, bcAndSt, bcOrSt, bcXorSt, bcShlSt, bcShrSt:
			regs[in.dst] = arith(in.op-bcAddSt, regs[in.a], regs[in.b])
			steps++
			if steps > maxSteps {
				m.result.Steps = steps
				rerr = fmt.Errorf("%w: limit %d", ErrStepLimit, maxSteps)
				goto done
			}
			addr := in.addr
			if in.rel {
				addr += frameBase
			}
			if addr <= 0 || addr >= int64(len(m.mem)) {
				m.result.Steps = steps
				rerr = fmt.Errorf("interp: store: invalid address %d in %s", addr, code.fname)
				goto done
			}
			m.mem[addr] = regs[in.dst2]

		// Fused arithmetic + jump: the preamble charged the arithmetic;
		// the jump and any folded copies cannot fault, so their aux2
		// steps are charged unchecked, as in bcCopyJmp.
		case bcAddJmp, bcSubJmp, bcMulJmp, bcAndJmp, bcOrJmp, bcXorJmp, bcShlJmp, bcShrJmp:
			regs[in.dst] = arith(in.op-bcAddJmp, regs[in.a], regs[in.b])
			steps += int64(in.aux2)
			ei = in.aux
			goto edge

		default:
			m.result.Steps = steps
			rerr = fmt.Errorf("interp: bytecode: invalid opcode %d in %s", in.op, code.fname)
			goto done
		}
		continue

	edge:
		// Take edge ei: its counter, its steps (the target's phi prefix,
		// charged without a limit check as in the reference phi loop,
		// and the bodies of the jump-only blocks it is threaded
		// through), then the lowered moves (folded copies, then phi
		// moves, hop by hop).
		ecnt[ei]++
		e = &edges[ei]
		if e.trap != nil {
			// A fused branch or a folded run charges its last steps
			// unchecked; the reference stops at the limit before it
			// reaches the edge.
			if steps > maxSteps {
				m.result.Steps = steps
				rerr = fmt.Errorf("%w: limit %d", ErrStepLimit, maxSteps)
				goto done
			}
			m.result.Steps = steps + e.steps
			rerr = e.trap
			goto done
		}
		steps += e.steps
		for _, mv := range moves[e.movesLo:e.movesHi] {
			regs[mv.dst] = regs[mv.src]
		}
		pc = int(e.target)
	}

done:
	m.sp = savedSP
	m.regTop = base
	return rv, rerr
}

// arith runs the fused family member at offset k from its family's
// first opcode: the op that fusibleArith maps to k+1.
func arith(k bcOp, x, y int64) int64 {
	switch k {
	case 0:
		return x + y
	case 1:
		return x - y
	case 2:
		return x * y
	case 3:
		return x & y
	case 4:
		return x | y
	case 5:
		return x ^ y
	case 6:
		return x << (uint64(y) & 63)
	}
	return x >> (uint64(y) & 63)
}

// flushCounts moves the dense counters into the map-shaped Result
// fields, once per run. A threaded edge's traversals are first credited
// to every edge on its via chain, which the executor skipped. Edge
// indexes follow f.Blocks order, successor order within a block
// (compileBytecode), so one walk of the CFG recovers each edge's
// endpoints: a block's execution count is the sum over its incoming
// edges, plus the activations for the entry block.
// Opcode counts are reconstructed from the block counts and each
// block's static opcode tally: on the successful path every counted
// block ran to its terminator, so the product is exact; error paths
// discard the Result entirely.
func (m *machine) flushCounts() {
	var ops [ir.NumOps]int64
	mostBlocks, mostEdges := 0, 0
	for i := range m.codes {
		mostBlocks = max(mostBlocks, len(m.codes[i].mc.code.blockOps))
		mostEdges = max(mostEdges, len(m.codes[i].mc.edges))
	}
	scratch := make([]int64, mostBlocks+mostEdges)
	for i := range m.codes {
		f, mc := m.codes[i].f, &m.codes[i].mc
		var fp *profile.FuncProfile
		if m.result.Profile != nil {
			fp = m.result.Profile.ForFunc(f.Name)
		}
		edges := scratch[mostBlocks : mostBlocks+len(mc.edges)]
		copy(edges, mc.edges)
		for k, e := range mc.code.edges {
			if n := mc.edges[k]; n != 0 {
				for h := e.via; h >= 0; h = mc.code.edges[h].via {
					edges[h] += n
				}
			}
		}
		blocks := scratch[:len(mc.code.blockOps)]
		clear(blocks)
		blocks[mc.code.entryID] = mc.entries
		k := 0
		for _, b := range f.Blocks {
			for _, s := range b.Succs {
				if n := edges[k]; n != 0 {
					blocks[s.ID] += n
					if fp != nil {
						fp.Edge[profile.Edge{From: b.ID, To: s.ID}] += float64(n)
					}
				}
				k++
			}
		}
		for id, tally := range mc.code.blockOps {
			if n := blocks[id]; n != 0 {
				for _, oc := range tally {
					ops[oc.op] += n * oc.n
				}
			}
		}
		if fp == nil {
			continue
		}
		for _, b := range f.Blocks {
			if n := blocks[b.ID]; n != 0 {
				fp.Block[b.ID] += float64(n)
			}
		}
	}
	for op, n := range ops {
		if n != 0 {
			m.result.OpCounts[ir.Op(op)] += n
		}
	}
}
