package machine

import (
	"runtime"
	"sync"
	"sync/atomic"

	"ctdf/internal/dfg"
	"ctdf/internal/interp"
	"ctdf/internal/lang"
	"ctdf/internal/machcheck"
)

// The optional parallel issue stage (Config.ParallelIssue). The ETS
// firing rule (paper §2.2) is purely local — an enabled operator reads
// only its matched operands — so a cycle's already-selected issue batch
// can be evaluated in any order, including concurrently, without
// changing what each firing computes. A cycle's issue batch is split in
// two phases:
//
//   - compute (parallel): the pure operators — those that read only
//     their operand values and the immutable graph, emit on a port
//     derivable from the operands, and touch no simulator state — are
//     evaluated by a pool of host workers into parOut;
//   - retire (sequential): the batch is walked in deterministic issue
//     order exactly as in the sequential path; precomputed slots only
//     emit their result, everything else (memory, tag arithmetic,
//     procedure linkage, end) fires normally.
//
// Because observation points (collector Fire/Emitted events, statistics,
// error aborts) all live in the sequential retire phase, a parallel run
// is observably identical to a sequential one — the firing-vector oracle
// in par_test.go and the cross-engine suite hold it to that. The stage
// is skipped for small batches (parIssueThreshold) where pool dispatch
// costs more than it saves, and whenever fault injection is active
// (misfire injection must see operator results in issue order).

// parIssueThreshold is the minimum batch size worth dispatching to the
// worker pool; it is a variable so tests can force the parallel path on
// small workloads.
var parIssueThreshold = 256

// parChunk is the unit of work-stealing: workers grab chunks of the
// batch by atomic counter, so stragglers do not serialize the phase.
const parChunk = 64

// pureOut is one precomputed batch slot: ok marks that the compute phase
// handled the operator, and the retire phase only needs to emit val on
// port (or abort with err).
type pureOut struct {
	ok   bool
	port int
	val  int64
	err  error
}

// computePure fills m.parOut for batch using min(GOMAXPROCS, chunks)
// workers. Slots whose operator is impure are left ok=false.
func (m *sim) computePure(batch []firing) {
	if cap(m.parOut) < len(batch) {
		m.parOut = make([]pureOut, len(batch))
	}
	m.parOut = m.parOut[:len(batch)]
	chunks := (len(batch) + parChunk - 1) / parChunk
	workers := runtime.GOMAXPROCS(0)
	if workers > chunks {
		workers = chunks
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				lo := c * parChunk
				if lo >= len(batch) {
					return
				}
				hi := lo + parChunk
				if hi > len(batch) {
					hi = len(batch)
				}
				for i := lo; i < hi; i++ {
					m.evalPure(&batch[i], &m.parOut[i])
				}
			}
		}()
	}
	wg.Wait()
}

// evalPure evaluates one operator if it is pure. It reads only the
// firing's operands and the immutable graph — never simulator state —
// so concurrent calls on distinct batch slots are race-free (operand
// frames are carved at delivery, so the arena does not grow under them).
func (m *sim) evalPure(f *firing, out *pureOut) {
	*out = pureOut{}
	o := &m.p.ops[f.node]
	vals := m.sh0.frame(f)
	switch dfg.Kind(o.kind) {
	case dfg.Const:
		out.ok, out.val = true, o.val
	case dfg.BinOp:
		v, err := interp.Apply(lang.Op(o.code), vals[0], vals[1])
		if err != nil {
			out.ok = true
			out.err = machcheck.Newf(machcheck.OperatorFault, "machine", "%s: %v", m.g.Nodes[f.node], err)
			return
		}
		out.ok, out.val = true, v
	case dfg.UnOp:
		switch lang.Op(o.code) {
		case lang.OpNeg:
			out.ok, out.val = true, -vals[0]
		case lang.OpNot:
			out.ok = true
			if vals[0] == 0 {
				out.val = 1
			}
		default:
			out.ok = true
			out.err = machcheck.Newf(machcheck.OperatorFault, "machine", "bad unary op %v", lang.Op(o.code))
		}
	case dfg.Switch:
		out.ok, out.val = true, vals[0]
		if vals[1] == 0 {
			out.port = 1
		}
	case dfg.Merge, dfg.Param:
		out.ok, out.val = true, vals[0]
	case dfg.Synch:
		out.ok = true
	case dfg.Fused:
		fi := &m.p.fusions[o.aux]
		if len(fi.Outs) != 1 {
			return // multi-output fused nodes retire sequentially
		}
		res, err := interp.EvalFused(fi.Steps, vals, nil)
		if err != nil {
			out.ok = true
			out.err = machcheck.Newf(machcheck.OperatorFault, "machine", "%s: %v", m.g.Nodes[f.node], err)
			return
		}
		out.ok, out.val = true, res[fi.Outs[0]]
	}
}
