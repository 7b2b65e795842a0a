package workload

// The imported suite: real textual-IR programs (the dialect
// internal/irimport accepts, clang -O0-shaped) that harnesses mix into
// generated corpora so the serving and batch paths continuously
// exercise the import frontend, not just the native one. Entries carry
// Lang "ll"; everything else in a corpus stays mini-C.

// ImportedSuite returns the real-IR workloads, in fixed order.
func ImportedSuite() []Workload {
	return []Workload{
		{
			Name:        "ir-dotprod",
			Description: "imported IR: dot product over two global arrays, O0-style alloca loop",
			Src:         srcIRDotprod,
			Lang:        LangIR,
		},
		{
			Name:        "ir-histo",
			Description: "imported IR: histogram with dynamic gep stores and a phi-carried cursor",
			Src:         srcIRHisto,
			Lang:        LangIR,
		},
		{
			Name:        "ir-chain",
			Description: "imported IR: call chain threading an accumulator through helpers",
			Src:         srcIRChain,
			Lang:        LangIR,
		},
	}
}

// LangIR mirrors irimport.LangIR without importing it (workload stays
// dependency-free below the frontends).
const LangIR = "ll"

// ReplayCorpusMix is ReplayCorpus with every irEvery-th entry replaced
// by an imported real-IR program (irEvery 0 disables mixing). The
// replacement is positional and seed-derived, so the mix is identical
// across processes — the property the benchmark's cross-process
// determinism checks rely on. Replaced entries keep a position-unique
// name so caches and logs distinguish repeat visits from distinct
// entries.
func ReplayCorpusMix(seed int64, n int, size string, irEvery int) ([]Workload, error) {
	entries, err := ReplayCorpus(seed, n, size)
	if err != nil {
		return nil, err
	}
	if irEvery <= 0 {
		return entries, nil
	}
	suite := ImportedSuite()
	for i := irEvery - 1; i < len(entries); i += irEvery {
		w := suite[int(uint64(DeriveSeed(seed, i))%uint64(len(suite)))]
		w.Name = w.Name + "@" + itoa(i)
		entries[i] = w
	}
	return entries, nil
}

func itoa(n int) string {
	if n < 0 {
		return "-" + itoa(-n)
	}
	if n < 10 {
		return string(rune('0' + n))
	}
	return itoa(n/10) + string(rune('0'+n%10))
}

const srcIRDotprod = `; dot product of two constant vectors, clang -O0 shape
@xs = global [8 x i64] [i64 1, i64 2, i64 3, i64 4, i64 5, i64 6, i64 7, i64 8]
@ys = global [8 x i64] [i64 8, i64 7, i64 6, i64 5, i64 4, i64 3, i64 2, i64 1]

declare void @print(i64)

define i64 @main() {
entry:
  %i = alloca i64, align 8
  %acc = alloca i64, align 8
  store i64 0, i64* %i, align 8
  store i64 0, i64* %acc, align 8
  br label %cond

cond:
  %0 = load i64, i64* %i, align 8
  %cmp = icmp slt i64 %0, 8
  br i1 %cmp, label %body, label %done

body:
  %1 = load i64, i64* %i, align 8
  %px = getelementptr inbounds [8 x i64], [8 x i64]* @xs, i64 0, i64 %1
  %x = load i64, i64* %px, align 8
  %py = getelementptr inbounds [8 x i64], [8 x i64]* @ys, i64 0, i64 %1
  %y = load i64, i64* %py, align 8
  %m = mul nsw i64 %x, %y
  %a = load i64, i64* %acc, align 8
  %a2 = add nsw i64 %a, %m
  store i64 %a2, i64* %acc, align 8
  %n = add nsw i64 %1, 1
  store i64 %n, i64* %i, align 8
  br label %cond

done:
  %r = load i64, i64* %acc, align 8
  call void @print(i64 %r)
  ret i64 %r
}
`

const srcIRHisto = `; histogram of a key stream into a small table
@table = global [4 x i64] zeroinitializer

declare void @print(i64)

define void @bump(i64 %k) {
entry:
  %slot = srem i64 %k, 4
  %p = getelementptr i64, i64* @table, i64 %slot
  %v = load i64, i64* %p
  %v2 = add i64 %v, 1
  store i64 %v2, i64* %p
  ret void
}

define i64 @main() {
entry:
  br label %loop

loop:
  %i = phi i64 [ 0, %entry ], [ %next, %loop ]
  %k = mul i64 %i, 7
  call void @bump(i64 %k)
  %next = add i64 %i, 1
  %c = icmp slt i64 %next, 12
  br i1 %c, label %loop, label %out

out:
  %p0 = getelementptr i64, i64* @table, i64 0
  %h0 = load i64, i64* %p0
  call void @print(i64 %h0)
  ret i64 %h0
}
`

const srcIRChain = `; accumulator threaded through a helper chain
@state = global i64 3

declare void @print(i64)

define i64 @step(i64 %x) {
entry:
  %s = load i64, i64* @state
  %t = add i64 %x, %s
  %u = xor i64 %t, 21
  store i64 %u, i64* @state
  ret i64 %u
}

define i64 @twice(i64 %x) {
entry:
  %a = call i64 @step(i64 %x)
  %b = call i64 @step(i64 %a)
  ret i64 %b
}

define i64 @main() {
entry:
  br label %loop

loop:
  %i = phi i64 [ 0, %entry ], [ %n, %loop ]
  %acc = phi i64 [ 0, %entry ], [ %r, %loop ]
  %r = call i64 @twice(i64 %acc)
  %n = add i64 %i, 1
  %c = icmp slt i64 %n, 6
  br i1 %c, label %loop, label %out

out:
  call void @print(i64 %r)
  %s = load i64, i64* @state
  call void @print(i64 %s)
  ret i64 %r
}
`
