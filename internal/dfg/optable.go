package dfg

// OpTable is a graph's flat program form, the one both engines read. An
// ETS instruction is a small fixed-format word (paper §2.2); Op is that
// word — what delivery, issue and fan-out need of an operator, without the
// *Node behind it (nodes are still reached for error text and the storage
// names of memory operators, off the fast path) — and the fan-out is a
// CSR table of arc heads. The table changes how an operator is found,
// never what it means. Like Index it is immutable once built, so
// concurrent runs of one graph share it read-only.
type OpTable struct {
	nodes, arcs, fusions int // the graph's size when built (Graph.OpTable)
	Ops                  []Op
	// spans and targets are the fan-out: out port p of node n sends to
	// targets[spans[Ops[n].Outs+p]:spans[Ops[n].Outs+p+1]], the port's arcs
	// in arc order. spans is the output half of the graph's Index itself.
	spans   []int32
	targets []Target
	// MaxIns is the largest input arity, at least 1.
	MaxIns int
}

// Target is the head of an arc: an input port of a node.
type Target struct{ Node, Port int32 }

// Op is one operator's row (24 bytes, pointer-free).
type Op struct {
	Val  int64 // Const
	Outs int32 // the node's first output row (Index.OutRow)
	NIns int32
	// Aux is the row of a Fused node's step program in Graph.Fusions; -1
	// otherwise.
	Aux   int32
	Kind  uint8 // a Kind
	Code  uint8 // the lang.Op of BinOp/UnOp
	Flags uint8 // class bits
}

// Operator class bits (Op.Flags): the node's firing-rule classes.
const (
	// OpSolo is Node.FiresPerToken: no rendezvous in a matching store.
	OpSolo uint8 = 1 << iota
	// OpMatchSite is Node.MatchSite: the eligible sites for delivery
	// faults.
	OpMatchSite
	// OpMem is Node.SplitPhase: a memory operation.
	OpMem
)

// OpTable returns the operator table of a graph that passed Validate. It
// is built on the first call after the graph last grew — by a node, an arc
// or a step program — and published whole, like Index.
func (g *Graph) OpTable() *OpTable {
	t := g.table.Load()
	if t == nil || t.nodes != len(g.Nodes) || t.arcs != len(g.Arcs) || t.fusions != len(g.Fusions) {
		t = newOpTable(g)
		g.table.Store(t)
	}
	return t
}

// newOpTable builds the table in one O(nodes + arcs) pass. The bucketing
// of arcs by (node, port) is the graph's index, not redone here: the graph
// being valid, every arc is in exactly one output row.
func newOpTable(g *Graph) *OpTable {
	x := g.Index()
	rows := x.base[x.nodes]
	t := &OpTable{nodes: len(g.Nodes), arcs: len(g.Arcs), fusions: len(g.Fusions),
		Ops: make([]Op, len(g.Nodes)), spans: x.off[:rows+1], MaxIns: 1}
	for i, n := range g.Nodes {
		o := &t.Ops[i]
		*o = Op{Val: n.Val, Outs: x.base[i], NIns: n.NIns, Aux: -1, Kind: uint8(n.Kind), Code: uint8(n.Op)}
		if n.FiresPerToken() {
			o.Flags |= OpSolo
		}
		if n.MatchSite() {
			o.Flags |= OpMatchSite
		}
		if n.SplitPhase() {
			o.Flags |= OpMem
		}
		t.MaxIns = max(t.MaxIns, int(n.NIns))
	}
	for i := range g.Fusions {
		t.Ops[g.Fusions[i].Node].Aux = int32(i)
	}
	ids := x.ids[:x.off[rows]]
	t.targets = make([]Target, len(ids))
	for i, ai := range ids {
		a := &g.Arcs[ai]
		t.targets[i] = Target{Node: a.To, Port: a.ToPort}
	}
	return t
}

// Out returns the heads of the arcs leaving (node, port).
func (t *OpTable) Out(node int32, port int) []Target {
	i := t.Ops[node].Outs + int32(port)
	return t.targets[t.spans[i]:t.spans[i+1]]
}
