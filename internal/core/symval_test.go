package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func TestSymValEval(t *testing.T) {
	s := Sym(0x100)
	if got := s.Eval(5); got != 5 {
		t.Errorf("fresh sym Eval(5) = %d, want 5", got)
	}
	s = s.AddConst(3)
	if got := s.Eval(5); got != 8 {
		t.Errorf("[A]+3 Eval(5) = %d, want 8", got)
	}
	n := s.Negate() // -( [A]+3 ) = -[A]-3
	if got := n.Eval(5); got != -8 {
		t.Errorf("negated Eval(5) = %d, want -8", got)
	}
	n = n.AddConst(10) // -[A]+7
	if got := n.Eval(5); got != 2 {
		t.Errorf("-[A]+7 Eval(5) = %d, want 2", got)
	}
}

// TestSymValAlgebra checks Eval respects the algebra for arbitrary values.
func TestSymValAlgebra(t *testing.T) {
	f := func(root, c1, c2 int16, neg bool) bool {
		s := Sym(0x40)
		s = s.AddConst(int64(c1))
		if neg {
			s = s.Negate()
		}
		s = s.AddConst(int64(c2))
		want := int64(root) + int64(c1)
		if neg {
			want = -want
		}
		want += int64(c2)
		return s.Eval(int64(root)) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntervalBasics(t *testing.T) {
	full := Full()
	if !full.Contains(math.MinInt64) || !full.Contains(math.MaxInt64) || !full.IsFull() {
		t.Error("Full() must contain everything")
	}
	p := Point(7)
	if !p.Contains(7) || p.Contains(6) || p.Contains(8) {
		t.Error("Point(7) must contain exactly 7")
	}
	got := Interval{Lo: 0, Hi: 10}.Intersect(Interval{Lo: 5, Hi: 20})
	if got.Lo != 5 || got.Hi != 10 {
		t.Errorf("intersect = %v, want [5,10]", got)
	}
	if !(Interval{Lo: 3, Hi: 2}).Empty() {
		t.Error("inverted interval must be empty")
	}
}

func evalBranch(op isa.Op, a, b int64) bool {
	switch op {
	case isa.Beq:
		return a == b
	case isa.Bne:
		return a != b
	case isa.Blt:
		return a < b
	case isa.Bge:
		return a >= b
	case isa.Ble:
		return a <= b
	case isa.Bgt:
		return a > b
	}
	panic("not a branch")
}

var branchOps = []isa.Op{isa.Beq, isa.Bne, isa.Blt, isa.Bge, isa.Ble, isa.Bgt}

// TestBranchConstraintSound checks the central soundness property of
// RETCON's control-flow constraints: for any symbolic value, branch and
// observed outcome, (a) the root value observed during execution satisfies
// the recorded constraint, and (b) every root value satisfying the
// constraint reproduces the same branch outcome, so repair never changes
// control flow.
func TestBranchConstraintSound(t *testing.T) {
	f := func(rootRaw, incRaw, rhsRaw int16, neg bool) bool {
		root := int64(rootRaw)
		inc := int64(incRaw)
		sym := Sym(0x80).AddConst(inc)
		if neg {
			sym = sym.Negate()
		}
		rhs := int64(rhsRaw)
		for _, op := range branchOps {
			taken := evalBranch(op, sym.Eval(root), rhs)
			iv, ok := BranchConstraint(sym, op, rhs, taken, root)
			if !ok {
				return false // small values never need the wrap fallback
			}
			if !iv.Contains(root) {
				return false // the observed root must satisfy its own constraint
			}
			// Soundness over a window around the interesting region.
			for v := int64(-600); v <= 600; v++ {
				if iv.Contains(v) && evalBranch(op, sym.Eval(v), rhs) != taken {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestBranchConstraintPrecision checks that inequality constraints are
// exact (not merely conservative): every value with the same outcome is
// admitted.
func TestBranchConstraintPrecision(t *testing.T) {
	// Beq is excluded: its non-taken form is a not-equal constraint, which
	// is deliberately imprecise (tested separately below). A taken equality
	// is exact and covered by the soundness property test.
	ops := []isa.Op{isa.Blt, isa.Bge, isa.Ble, isa.Bgt}
	for _, op := range ops {
		sym := Sym(0x80).AddConst(3)
		root, rhs := int64(10), int64(20)
		taken := evalBranch(op, sym.Eval(root), rhs)
		iv, ok := BranchConstraint(sym, op, rhs, taken, root)
		if !ok {
			t.Fatalf("%v: in-range fold must be representable", op)
		}
		for v := int64(-200); v <= 200; v++ {
			if evalBranch(op, sym.Eval(v), rhs) == taken && !iv.Contains(v) {
				t.Errorf("%v: value %d has same outcome but is excluded by %v", op, v, iv)
				break
			}
		}
	}
}

// TestBranchConstraintNotEqualFold checks the documented precision loss:
// a != constraint folds to the half-line containing the current value.
func TestBranchConstraintNotEqualFold(t *testing.T) {
	// A tautological outcome (non-taken "< MinInt64" negates to ">=
	// MinInt64") constrains nothing and must fold to Full — not to a
	// rotated near-full interval that drops one root.
	tiv, ok := BranchConstraint(Sym(0x80).AddConst(1), isa.Blt, math.MinInt64, false, 10)
	if !ok || !tiv.IsFull() {
		t.Errorf("tautology must fold to Full: got %v ok=%v", tiv, ok)
	}

	sym := Sym(0x80) // [A]+0
	iv, ok := BranchConstraint(sym, isa.Bne, 50, true, 10)
	if !ok || !iv.Contains(10) || iv.Contains(50) || iv.Contains(60) {
		t.Errorf("!=50 with cur=10 should admit 10, exclude >=50: got %v ok=%v", iv, ok)
	}
	iv, ok = BranchConstraint(sym, isa.Bne, 50, true, 90)
	if !ok || !iv.Contains(90) || iv.Contains(50) || iv.Contains(40) {
		t.Errorf("!=50 with cur=90 should admit 90, exclude <=50: got %v ok=%v", iv, ok)
	}
}

// TestBranchConstraintOverflowEdges is the table of fuzz-found folding
// edge cases: endpoint arithmetic that overflows int64 must map to the
// exact (wrapped) root interval, or — when the root set wraps into two
// pieces — to the sound piece containing the current root. It must never
// widen (the old saturating fold produced Full for the first case,
// dropping the constraint entirely and letting RETCON commit state a
// replayed execution would not produce — retcon-fuzz seed 618). Each
// entry is checked for soundness by brute-force evaluation of the branch
// on root values around the interval's endpoints, the current root and
// the int64 extremes; entries marked exact additionally require that no
// valid root is dropped.
func TestBranchConstraintOverflowEdges(t *testing.T) {
	plus := func(inc int64) SymVal { return Sym(0x80).AddConst(inc) }           // root + inc
	minus := func(inc int64) SymVal { return Sym(0x80).Negate().AddConst(inc) } // -root + inc
	cases := []struct {
		name  string
		sym   SymVal
		op    isa.Op
		rhs   int64
		root  int64 // current root; branch outcome derived from it
		exact bool  // the root set is one interval: fold must not drop roots
	}{
		// retcon-fuzz seed 618: bge whose endpoint underflows. The root
		// set splits into [MaxInt64-1, MaxInt64] and [MinInt64,
		// MaxInt64-17]; the fold must keep the piece with the current
		// root, not saturate to Full.
		{"bge-underflow-split", plus(17), isa.Bge, math.MinInt64 + 15, math.MaxInt64, false},
		// Same underflowing endpoint arithmetic, but the root set
		// [MaxInt64-16, MaxInt64-1] stays one interval: fold exactly.
		{"ble-underflow-exact", plus(17), isa.Ble, math.MinInt64 + 15, math.MaxInt64 - 10, true},
		// Taken bne whose excluded root is MaxInt64 via wrap: the old code
		// saturated the excluded point to MinInt64 and chose a half-line
		// admitting the truly excluded root.
		{"bne-wrapped-excluded-point", plus(1), isa.Bne, math.MinInt64, 5, true},
		// Blt at the boundary: sym in [MinInt64, MinInt64+4] maps to the
		// 5-root interval [MaxInt64-4, MaxInt64] after unwrapping Inc=5.
		{"blt-wrap-interval", plus(5), isa.Blt, math.MinInt64 + 5, math.MaxInt64 - 2, true},
		// The common counter shape: [A]+3 < 1000. The circular root set
		// wraps (three roots near MaxInt64 are valid too); the fold keeps
		// the piece around the current small root so everyday increments
		// never abort.
		{"blt-common-counter", plus(3), isa.Blt, 1000, 6, false},
		// A genuinely split half-line: root-5 >= 10.
		{"bge-split", plus(-5), isa.Bge, 10, 100, false},
		// Negated-sign variant (Rsubi path): -root+3 <= 0 splits.
		{"neg-ble-split", minus(3), isa.Ble, 0, 5, false},
		// Negated sign, one interval: -root >= 5 <=> root in [-MaxInt64, -5].
		{"neg-bge-exact", minus(0), isa.Bge, 5, -7, true},
	}
	for _, c := range cases {
		taken := evalBranch(c.op, c.sym.Eval(c.root), c.rhs)
		iv, ok := BranchConstraint(c.sym, c.op, c.rhs, taken, c.root)
		if !ok {
			t.Errorf("%s: fold refused; a sound piece always exists here", c.name)
			continue
		}
		if !iv.Contains(c.root) {
			t.Errorf("%s: interval %v excludes the observed root %d", c.name, iv, c.root)
		}
		if iv.IsFull() {
			t.Errorf("%s: fold widened to Full (the pre-fix bug)", c.name)
		}
		probe := []int64{
			math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64,
			c.root, iv.Lo, iv.Hi,
		}
		for _, v := range probe {
			for d := int64(-2); d <= 2; d++ {
				r := v + d // wraps at the extremes; still a valid probe value
				same := evalBranch(c.op, c.sym.Eval(r), c.rhs) == taken
				if iv.Contains(r) && !same {
					t.Errorf("%s: unsound at root %d (iv %v): admitted but branch flips", c.name, r, iv)
				}
				if c.exact && same && !iv.Contains(r) {
					t.Errorf("%s: not exact at root %d (iv %v): valid root dropped", c.name, r, iv)
				}
			}
		}
	}
}

func TestMirrorNegate(t *testing.T) {
	for _, op := range branchOps {
		m := MirrorBranch(op)
		for a := int64(-2); a <= 2; a++ {
			for b := int64(-2); b <= 2; b++ {
				if evalBranch(op, a, b) != evalBranch(m, b, a) {
					t.Errorf("mirror of %v broken at (%d,%d)", op, a, b)
				}
			}
		}
		n := negateBranch(op)
		for a := int64(-2); a <= 2; a++ {
			for b := int64(-2); b <= 2; b++ {
				if evalBranch(op, a, b) == evalBranch(n, a, b) {
					t.Errorf("negate of %v broken at (%d,%d)", op, a, b)
				}
			}
		}
	}
}

// TestSymValWrapContract pins the documented overflow semantics of SymVal
// arithmetic: AddConst, Negate and Eval wrap in two's complement exactly
// like the machine's ALU, including at MinInt64.
func TestSymValWrapContract(t *testing.T) {
	s := Sym(0x80).AddConst(math.MaxInt64)
	if got := s.Eval(1); got != math.MinInt64 {
		t.Errorf("[A]+MaxInt64 Eval(1) = %d, want MinInt64 (wrap)", got)
	}
	s = s.AddConst(1) // Inc wraps to MinInt64
	if s.Inc != math.MinInt64 {
		t.Errorf("AddConst must wrap Inc: got %d", s.Inc)
	}
	if got := s.Eval(math.MinInt64); got != 0 {
		t.Errorf("[A]+MinInt64 Eval(MinInt64) = %d, want 0 (wrap)", got)
	}
	n := Sym(0x80).AddConst(math.MinInt64).Negate()
	if n.Inc != math.MinInt64 {
		t.Errorf("Negate at MinInt64 must stay MinInt64 (two's complement), got %d", n.Inc)
	}
	if got := n.Eval(1); got != math.MaxInt64 {
		t.Errorf("-( [A]+MinInt64 ) Eval(1) = %d, want MaxInt64", got)
	}
	// Eval mirrors the ALU bit for bit: increments applied one at a time
	// through the wrap equal one wrapped Eval.
	v := int64(math.MaxInt64 - 1)
	step := v + 3 // wraps
	if got := Sym(0x80).AddConst(3).Eval(v); got != step {
		t.Errorf("Eval near MaxInt64 = %d, want %d", got, step)
	}
}

func TestSymValString(t *testing.T) {
	if (SymVal{}).String() != "-" {
		t.Error("invalid sym should render as -")
	}
	s := Sym(0x40).AddConst(2)
	if s.String() != "[0x40]+2" {
		t.Errorf("got %q", s.String())
	}
}
