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
	// aux is the row of a Fused node's step program in prog.fusions, of
	// an Apply node's linkage in prog.calls; -1 otherwise.
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
	// arcs in the graph's own arc order.
	spans   []int32
	targets []target
	// fusions and calls alias the graph's side tables (read-only).
	fusions []dfg.FusedInfo
	calls   []dfg.CallInfo
	maxIns  int
}

// lower builds the flat program of a graph that passed Validate, in one
// O(nodes + arcs) pass: arcs are bucketed by (from, port) with a counting
// sort, which keeps each port's arcs in ascending arc index — the order
// Connect recorded them in and OutArcs reports.
func lower(g *dfg.Graph) *prog {
	p := &prog{ops: make([]op, len(g.Nodes)), fusions: g.Fusions, calls: g.Calls, maxIns: 1}
	ports := int32(0)
	for i, n := range g.Nodes {
		o := &p.ops[i]
		*o = op{val: n.Val, outs: ports, nIns: int32(n.NIns), aux: -1, kind: uint8(n.Kind), code: uint8(n.Op)}
		ports += int32(n.OutPorts())
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
	for i := range g.Calls {
		if a := g.Calls[i].Apply; a >= 0 && a < len(p.ops) && g.Nodes[a].Kind == dfg.Apply {
			p.ops[a].aux = int32(i)
		}
	}
	// Count into spans[i+2], prefix-sum so spans[i+1] is port i's start,
	// then let the fill advance it to port i's end — port i+1's start.
	p.spans = make([]int32, ports+2)
	for i := range g.Arcs {
		a := &g.Arcs[i]
		p.spans[p.ops[a.From].outs+int32(a.FromPort)+2]++
	}
	for i := 2; i < len(p.spans); i++ {
		p.spans[i] += p.spans[i-1]
	}
	p.targets = make([]target, len(g.Arcs))
	for i := range g.Arcs {
		a := &g.Arcs[i]
		at := &p.spans[p.ops[a.From].outs+int32(a.FromPort)+1]
		p.targets[*at] = target{node: int32(a.To), port: int32(a.ToPort)}
		*at++
	}
	return p
}

// out returns the destinations of the arcs leaving (node, port).
func (p *prog) out(node int32, port int) []target {
	i := p.ops[node].outs + int32(port)
	return p.targets[p.spans[i]:p.spans[i+1]]
}

// call returns the linkage of an Apply node, or nil.
func (p *prog) call(node int) *dfg.CallInfo {
	if node < 0 || node >= len(p.ops) || p.ops[node].kind != uint8(dfg.Apply) || p.ops[node].aux < 0 {
		return nil
	}
	return &p.calls[p.ops[node].aux]
}

// cost is an operator's duration in cycles: split-phase memory
// operations take memLatency, everything else one cycle.
func (p *prog) cost(node int32, memLatency int) int {
	if p.ops[node].flags&opMem != 0 {
		return memLatency
	}
	return 1
}
