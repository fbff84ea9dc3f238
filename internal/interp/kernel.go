package interp

import (
	"fmt"

	"ctdf/internal/dfg"
	"ctdf/internal/lang"
)

// The operator kernel: the single definition of what a dataflow operator
// computes once the firing rule (paper §2.2) has handed it its matched
// operands. The rule is local — an enabled operator reads only those
// operands — so the value semantics are plain functions over scalars, and
// every evaluator calls them: the expression interpreter (Eval), the
// fused step programs (EvalFused), the cycle-driven machine and the
// channel engine. The stateful operators have their units beside it
// (IStructs, Activations). An engine is a scheduler around them; what
// stays with it is tag arithmetic, split-phase timing, emission, fault
// injection and observation (see "Operator semantics" in DESIGN.md).

// Apply computes a binary operation. Booleans are 0/1; division or
// modulus by zero is an error.
func Apply(op lang.Op, l, r int64) (int64, error) {
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	switch op {
	case lang.OpAdd:
		return l + r, nil
	case lang.OpSub:
		return l - r, nil
	case lang.OpMul:
		return l * r, nil
	case lang.OpDiv:
		if r == 0 {
			return 0, fmt.Errorf("division by zero")
		}
		return l / r, nil
	case lang.OpMod:
		if r == 0 {
			return 0, fmt.Errorf("modulus by zero")
		}
		return l % r, nil
	case lang.OpLt:
		return b2i(l < r), nil
	case lang.OpLe:
		return b2i(l <= r), nil
	case lang.OpGt:
		return b2i(l > r), nil
	case lang.OpGe:
		return b2i(l >= r), nil
	case lang.OpEq:
		return b2i(l == r), nil
	case lang.OpNe:
		return b2i(l != r), nil
	case lang.OpAnd:
		return b2i(l != 0 && r != 0), nil
	case lang.OpOr:
		return b2i(l != 0 || r != 0), nil
	}
	return 0, fmt.Errorf("bad binary op %v", op)
}

// ApplyUnary computes a unary operation: arithmetic negation, or logical
// not over 0/1 booleans (any nonzero operand is true).
func ApplyUnary(op lang.Op, x int64) (int64, error) {
	switch op {
	case lang.OpNeg:
		return -x, nil
	case lang.OpNot:
		if x == 0 {
			return 1, nil
		}
		return 0, nil
	}
	return 0, fmt.Errorf("bad unary op %v", op)
}

// Step is the small-step rule of the state-free operators: given the
// operator (its kind, scalar op and constant) and its operand frame, the
// value it emits and the output port that carries it. Const consumes its
// trigger and emits c; Switch steers its data operand to port 0 when the
// control operand is nonzero, else port 1; Merge, Param, LoopEntry and
// LoopExit pass their token's value through (what loop operators do to
// the tag is the engine's); Synch emits a dummy. StateFree reports the
// kinds it covers.
func Step(kind dfg.Kind, op lang.Op, c int64, in []int64) (val int64, port int, err error) {
	switch kind {
	case dfg.Const:
		return c, 0, nil
	case dfg.BinOp:
		val, err = Apply(op, in[0], in[1])
		return val, 0, err
	case dfg.UnOp:
		val, err = ApplyUnary(op, in[0])
		return val, 0, err
	case dfg.Switch:
		if in[1] == 0 {
			port = 1
		}
		return in[0], port, nil
	case dfg.Merge, dfg.Param, dfg.LoopEntry, dfg.LoopExit:
		return in[0], 0, nil
	case dfg.Synch:
		return 0, 0, nil
	}
	return 0, 0, fmt.Errorf("no firing rule for %v", kind)
}

// StateFree reports whether Step defines the kind: its firing reads
// nothing but its operands.
func StateFree(kind dfg.Kind) bool {
	const kinds = 1<<dfg.Const | 1<<dfg.BinOp | 1<<dfg.UnOp | 1<<dfg.Switch | 1<<dfg.Merge |
		1<<dfg.Param | 1<<dfg.LoopEntry | 1<<dfg.LoopExit | 1<<dfg.Synch
	return kinds>>uint(kind)&1 != 0
}

// Access is the store effect of the updatable-memory operators (Load,
// Store, LoadIdx, StoreIdx) on the already-resolved storage name: it
// performs the read or write and returns the value the operator emits on
// out port 0 — the value read, or 0 for a store, whose port 0 carries
// only its access token. A load's second port carries its access token,
// a dummy like every access token.
func (s *Store) Access(kind dfg.Kind, name string, in []int64) (int64, error) {
	switch kind {
	case dfg.Load:
		return s.Get(name), nil
	case dfg.Store:
		s.Set(name, in[0])
		return 0, nil
	case dfg.LoadIdx:
		return s.GetIdx(name, in[0])
	case dfg.StoreIdx:
		return 0, s.SetIdx(name, in[0], in[1])
	}
	return 0, fmt.Errorf("%v does not access the store", kind)
}
