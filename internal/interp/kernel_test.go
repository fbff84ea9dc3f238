package interp

import (
	"fmt"
	"math"
	"testing"

	"ctdf/internal/dfg"
	"ctdf/internal/lang"
)

// errText flattens an error for comparison ("" = nil).
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestKernelConformance holds the three evaluators of scalar arithmetic —
// the expression interpreter, the operator kernel and a one-step fused
// program — to one another on every operator × edge operand, value and
// error alike, and to Go's own arithmetic where that is the definition.
func TestKernelConformance(t *testing.T) {
	edges := []int64{0, 1, -1, 2, math.MinInt64, math.MaxInt64}
	badOp := lang.Op(97)
	lit := func(v int64) lang.Expr { return &lang.IntLit{Value: v} }

	// agree checks the fused program against the kernel's verdict, which
	// the caller has already held to the interpreter's.
	agree := func(name string, want int64, wantErr error, step dfg.FusedOp, in []int64) {
		t.Helper()
		res, err := EvalFused([]dfg.FusedOp{step}, in, nil)
		wantText := ""
		if wantErr != nil {
			wantText = "fused step 0: " + wantErr.Error()
		}
		if errText(err) != wantText || (err == nil && res[0] != want) {
			t.Errorf("%s: fused = %v, %q; kernel %d, %q", name, res, errText(err), want, errText(wantErr))
		}
	}

	binary := []lang.Op{lang.OpAdd, lang.OpSub, lang.OpMul, lang.OpDiv, lang.OpMod, lang.OpLt, lang.OpLe,
		lang.OpGt, lang.OpGe, lang.OpEq, lang.OpNe, lang.OpAnd, lang.OpOr, lang.OpNeg, lang.OpNot, badOp}
	for _, op := range binary {
		for _, l := range edges {
			for _, r := range edges {
				name := fmt.Sprintf("%d %v(%d) %d", l, op, int(op), r)
				ev, eerr := Eval(&lang.BinExpr{Op: op, L: lit(l), R: lit(r)}, nil)
				kv, port, kerr := Step(dfg.BinOp, op, 7, []int64{l, r})
				if ev != kv || errText(eerr) != errText(kerr) || port != 0 {
					t.Errorf("%s: interpreter %d, %q; kernel %d port %d, %q", name, ev, errText(eerr), kv, port, errText(kerr))
				}
				agree(name, kv, kerr, dfg.FusedOp{Kind: dfg.BinOp, Op: op, A: dfg.FusedInput(0), B: dfg.FusedInput(1)}, []int64{l, r})
				switch {
				case op > lang.OpOr:
					if kerr == nil || kerr.Error() != fmt.Sprintf("bad binary op %v", op) {
						t.Errorf("%s: a non-binary op is %q", name, errText(kerr))
					}
				case (op == lang.OpDiv || op == lang.OpMod) && r == 0:
					if kerr == nil {
						t.Errorf("%s: no error", name)
					}
				case kerr != nil:
					t.Errorf("%s: %v", name, kerr)
				}
			}
		}
	}
	for _, c := range []struct {
		op         lang.Op
		l, r, want int64
	}{
		{lang.OpDiv, math.MinInt64, -1, math.MinInt64}, // two's-complement overflow, not a trap
		{lang.OpMod, math.MinInt64, -1, 0},
		{lang.OpDiv, -7, 2, -3}, // truncated division
		{lang.OpMod, -7, 2, -1},
		{lang.OpAdd, math.MaxInt64, 1, math.MinInt64},
		{lang.OpMul, math.MinInt64, -1, math.MinInt64},
		{lang.OpAnd, 2, -1, 1},
		{lang.OpOr, 0, 0, 0},
	} {
		if v, err := Apply(c.op, c.l, c.r); err != nil || v != c.want {
			t.Errorf("%d %v %d = %d, %v; want %d", c.l, c.op, c.r, v, err, c.want)
		}
	}

	for _, op := range []lang.Op{lang.OpNeg, lang.OpNot, lang.OpAdd, lang.OpOr, badOp} {
		for _, x := range edges {
			name := fmt.Sprintf("%v(%d) %d", op, int(op), x)
			ev, eerr := Eval(&lang.UnExpr{Op: op, X: lit(x)}, nil)
			kv, port, kerr := Step(dfg.UnOp, op, 7, []int64{x})
			if ev != kv || errText(eerr) != errText(kerr) || port != 0 {
				t.Errorf("%s: interpreter %d, %q; kernel %d port %d, %q", name, ev, errText(eerr), kv, port, errText(kerr))
			}
			agree(name, kv, kerr, dfg.FusedOp{Kind: dfg.UnOp, Op: op, A: dfg.FusedInput(0)}, []int64{x})
			var want int64
			switch op {
			case lang.OpNeg:
				want = -x // -MinInt64 wraps to itself
			case lang.OpNot:
				if x == 0 {
					want = 1
				}
			default:
				if kerr == nil || kerr.Error() != fmt.Sprintf("bad unary op %v", op) {
					t.Errorf("%s: a non-unary op is %q", name, errText(kerr))
				}
				continue
			}
			if kerr != nil || kv != want {
				t.Errorf("%s = %d, %v; want %d", name, kv, kerr, want)
			}
		}
	}
}

// TestKernelStepPortsAndPassThrough pins the non-arithmetic rules: the
// constant ignores its trigger, the switch steers by its control operand,
// the pass-through kinds forward their value, synch emits a dummy, and a
// kind with engine state behind it has no rule here.
func TestKernelStepPortsAndPassThrough(t *testing.T) {
	for _, c := range []struct {
		kind dfg.Kind
		in   []int64
		val  int64
		port int
	}{
		{dfg.Const, []int64{99}, 7, 0},
		{dfg.Switch, []int64{5, 1}, 5, 0},
		{dfg.Switch, []int64{5, -3}, 5, 0},
		{dfg.Switch, []int64{5, 0}, 5, 1},
		{dfg.Merge, []int64{4}, 4, 0},
		{dfg.Param, []int64{4}, 4, 0},
		{dfg.LoopEntry, []int64{4}, 4, 0},
		{dfg.LoopExit, []int64{4}, 4, 0},
		{dfg.Synch, []int64{8, 9, 10}, 0, 0},
	} {
		v, port, err := Step(c.kind, lang.OpAdd, 7, c.in)
		if err != nil || v != c.val || port != c.port || !StateFree(c.kind) {
			t.Errorf("%v%v = %d on port %d, %v (state-free %v); want %d on port %d",
				c.kind, c.in, v, port, err, StateFree(c.kind), c.val, c.port)
		}
	}
	for _, kind := range []dfg.Kind{dfg.Start, dfg.End, dfg.Load, dfg.Store, dfg.LoadIdx, dfg.StoreIdx,
		dfg.ILoad, dfg.IStore, dfg.Apply, dfg.ProcReturn, dfg.Fused} {
		if _, _, err := Step(kind, lang.OpAdd, 0, []int64{1, 2, 3}); err == nil || StateFree(kind) {
			t.Errorf("%v: kernel has a rule (err %v, state-free %v)", kind, err, StateFree(kind))
		}
	}
}

// TestStoreAccess pins the store effect of the four updatable-memory
// operators and that bounds errors surface unchanged.
func TestStoreAccess(t *testing.T) {
	st := NewStore(lang.MustParse("var x\narray a[3]\n"))
	if v, err := st.Access(dfg.Store, "x", []int64{41, 0}); v != 0 || err != nil || st.Get("x") != 41 {
		t.Errorf("store: %d, %v, x=%d", v, err, st.Get("x"))
	}
	if v, err := st.Access(dfg.Load, "x", []int64{0}); v != 41 || err != nil {
		t.Errorf("load: %d, %v", v, err)
	}
	if v, err := st.Access(dfg.StoreIdx, "a", []int64{2, 9, 0}); v != 0 || err != nil {
		t.Errorf("storeidx: %d, %v", v, err)
	}
	if v, err := st.Access(dfg.LoadIdx, "a", []int64{2, 0}); v != 9 || err != nil {
		t.Errorf("loadidx: %d, %v", v, err)
	}
	_, gerr := st.GetIdx("a", 3)
	if _, err := st.Access(dfg.LoadIdx, "a", []int64{3, 0}); err == nil || err.Error() != gerr.Error() {
		t.Errorf("loadidx out of range: %v, want %v", err, gerr)
	}
	if _, err := st.Access(dfg.StoreIdx, "a", []int64{-1, 9, 0}); err == nil {
		t.Error("storeidx out of range: no error")
	}
	if _, err := st.Access(dfg.ILoad, "a", []int64{0}); err == nil {
		t.Error("iload is not the kernel's: no error")
	}
}
