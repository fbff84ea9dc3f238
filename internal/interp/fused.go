package interp

import (
	"fmt"

	"ctdf/internal/dfg"
)

// EvalFused evaluates a fused operator's step program over its external
// input operands, returning one value per step (the caller selects the
// emitted ones via FusedInfo.Outs). Each step is one Step of the operator
// kernel, so fused arithmetic cannot diverge from the unfused operators
// it replaced. scratch, if large enough, backs the result slice to avoid
// per-firing allocation.
func EvalFused(steps []dfg.FusedOp, in []int64, scratch []int64) ([]int64, error) {
	var res []int64
	if cap(scratch) >= len(steps) {
		res = scratch[:len(steps)]
	} else {
		res = make([]int64, len(steps))
	}
	rd := func(r int32) int64 {
		if r >= 0 {
			return res[r]
		}
		return in[dfg.FusedInputPort(r)]
	}
	for i, s := range steps {
		var frame [2]int64
		switch s.Kind {
		case dfg.BinOp:
			frame[1] = rd(s.B)
			fallthrough
		case dfg.Const, dfg.UnOp:
			// A const's operand is its trigger: consumed, carrying no value.
			frame[0] = rd(s.A)
		default:
			return nil, fmt.Errorf("fused step %d: kind %v cannot fuse", i, s.Kind)
		}
		v, _, err := Step(s.Kind, s.Op, s.Val, frame[:])
		if err != nil {
			return nil, fmt.Errorf("fused step %d: %v", i, err)
		}
		res[i] = v
	}
	return res, nil
}
