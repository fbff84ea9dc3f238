package machine

import "ctdf/internal/dfg"

// The flat program form: a validated graph lowered once per Run into
// index-dense tables, the only thing the engine's hot loops read. An ETS
// instruction is a small fixed-format word (paper §2.2); op is that word
// — what delivery, issue and fan-out need of an operator, without the
// *dfg.Node behind it (nodes are still reached for error text and the
// storage names of memory operators, off the fast path). The table
// changes how an operator is found, never what it means, and it is
// private to the run: the graph is only read, so concurrent Runs of one
// graph share nothing mutable.

// target is the head of an arc: an input port of a node.
type target struct{ node, port int32 }

// Operator class bits: the node's firing-rule classes (dfg.Node), fixed
// at lowering.
const (
	// opSolo is Node.FiresPerToken: no rendezvous in the matching store.
	opSolo uint8 = 1 << iota
	// opMatchSite is Node.MatchSite: the eligible sites for delivery
	// faults.
	opMatchSite
	// opMem is Node.SplitPhase: MemLatency cycles long.
	opMem
)

// op is one operator's table row (24 bytes, pointer-free).
type op struct {
	val int64 // Const
	// outs indexes prog.spans: out port p fans out to
	// targets[spans[outs+p]:spans[outs+p+1]].
	outs int32
	nIns int32
	// aux is the row of a Fused node's step program in prog.fusions; -1
	// otherwise.
	aux   int32
	kind  uint8 // dfg.Kind
	code  uint8 // lang.Op of BinOp/UnOp
	flags uint8
	// shard is the owning shard (initShards): the one field of the run,
	// not the graph, here because who wants it is reading the row.
	shard uint8
}

type prog struct {
	ops []op
	// spans and targets are the CSR fan-out table, every (node, port)'s
	// arcs in the graph's own arc order. spans is the output half of the
	// graph's index itself (shared, read-only); targets is the run's own.
	spans   []int32
	targets []target
	// fusions aliases the graph's side table (read-only).
	fusions []dfg.FusedInfo
	maxIns  int
}

// lower builds the flat program of a graph that passed Validate, in one
// O(nodes + arcs) pass. The bucketing of arcs by (from, port) is the
// graph's index, not redone here: each port's arcs in ascending arc index
// — the order Connect recorded them in and OutArcs reports — and, the graph
// being valid, every arc in exactly one row.
func lower(g *dfg.Graph) *prog {
	p := &prog{ops: make([]op, len(g.Nodes)), fusions: g.Fusions, maxIns: 1}
	x := g.Index()
	for i, n := range g.Nodes {
		o := &p.ops[i]
		*o = op{val: n.Val, outs: int32(x.OutRow(i)), nIns: int32(n.NIns), aux: -1, kind: uint8(n.Kind), code: uint8(n.Op)}
		if n.FiresPerToken() {
			o.flags |= opSolo
		}
		if n.MatchSite() {
			o.flags |= opMatchSite
		}
		if n.SplitPhase() {
			o.flags |= opMem
		}
		if n.NIns > p.maxIns {
			p.maxIns = n.NIns
		}
	}
	for i := range g.Fusions {
		p.ops[g.Fusions[i].Node].aux = int32(i)
	}
	spans, ids := x.OutTable()
	p.spans, p.targets = spans, make([]target, len(ids))
	for i, ai := range ids {
		a := &g.Arcs[ai]
		p.targets[i] = target{node: int32(a.To), port: int32(a.ToPort)}
	}
	return p
}

// out returns the destinations of the arcs leaving (node, port).
func (p *prog) out(node int32, port int) []target {
	i := p.ops[node].outs + int32(port)
	return p.targets[p.spans[i]:p.spans[i+1]]
}

// cost is an operator's duration in cycles: split-phase memory
// operations take memLatency, everything else one cycle.
func (p *prog) cost(node int32, memLatency int) int {
	if p.ops[node].flags&opMem != 0 {
		return memLatency
	}
	return 1
}
