package dfg

// Index is a graph's adjacency: for every port of every node, the ids of
// the arcs leaving or entering it, in arc order. It is the one such table:
// Validate, Listing and every vet pass read it in place, and the operator
// table (OpTable) takes its fan-out from it. Editing goes through Editor,
// which hands back a graph with an index of its own.
//
// The table is compressed sparse rows over ports. Output ports come first,
// numbered densely in node order (OutRow), then input ports likewise; row r
// holds ids[off[r]:off[r+1]]. An arc naming a node or port the graph does
// not have is in no row: readers never meet it, Validate reports it. An
// Index is immutable once built.
type Index struct {
	nodes, arcs int // the graph's size when built (Graph.Index)
	// base[n] is node n's first output row and base[nodes+1+n] its first
	// input row; either run of rows ends where the next entry's begins.
	base []int32
	off  []int32
	ids  []int32
}

// Index returns the adjacency of the graph as it stands. It is built on
// the first call after the graph last grew — by Add, Connect, or an append
// to Nodes or Arcs — so a stale one cannot be observed, and published
// whole: once construction has ended, concurrent readers share it without
// a lock. (Nothing edits a node's arity or an arc in place once arcs are
// being added; a graph is changed by building another.)
func (g *Graph) Index() *Index {
	x := g.index.Load()
	if x == nil || x.nodes != len(g.Nodes) || x.arcs != len(g.Arcs) {
		x = newIndex(g)
		g.index.Store(x)
	}
	return x
}

// newIndex counting-sorts the arc ids by (node, port) at both ends in
// O(nodes + arcs).
func newIndex(g *Graph) *Index {
	n := len(g.Nodes)
	x := &Index{nodes: n, arcs: len(g.Arcs), base: make([]int32, 2*n+2)}
	rows := int32(0)
	for i, nd := range g.Nodes {
		x.base[i] = rows
		rows += int32(max(nd.OutPorts(), 0))
	}
	x.base[n] = rows
	for i, nd := range g.Nodes {
		x.base[n+1+i] = rows
		rows += max(nd.NIns, 0)
	}
	x.base[2*n+1] = rows

	// Counts land two slots up, so that after the prefix sum off[r+1] is
	// row r's start and the fill advances it to row r's end — row r+1's
	// start.
	off := make([]int32, rows+2)
	for i := range g.Arcs {
		if out, in, ok := x.rows(&g.Arcs[i]); ok {
			off[out+2]++
			off[in+2]++
		}
	}
	for r := 2; r < len(off); r++ {
		off[r] += off[r-1]
	}
	x.ids = make([]int32, off[len(off)-1])
	for i := range g.Arcs {
		if out, in, ok := x.rows(&g.Arcs[i]); ok {
			x.ids[off[out+1]] = int32(i)
			off[out+1]++
			x.ids[off[in+1]] = int32(i)
			off[in+1]++
		}
	}
	x.off = off[:rows+1]
	return x
}

// rows returns the output row a leaves and the input row it enters; ok is
// false when it names a node or a port that is not there.
func (x *Index) rows(a *Arc) (out, in int32, ok bool) {
	if uint(a.From) >= uint(x.nodes) || uint(a.To) >= uint(x.nodes) {
		return 0, 0, false
	}
	from, to := x.base[a.From:a.From+2], x.base[x.nodes+1+int(a.To):x.nodes+3+int(a.To)]
	if uint32(a.FromPort) >= uint32(from[1]-from[0]) || uint32(a.ToPort) >= uint32(to[1]-to[0]) {
		return 0, 0, false
	}
	return from[0] + a.FromPort, to[0] + a.ToPort, true
}

// row returns the ids in row lo+port, none when port is not one of the
// rows lo..hi.
func (x *Index) row(lo, hi int32, port int) []int32 {
	if uint(port) >= uint(hi-lo) {
		return nil
	}
	r := lo + int32(port)
	return x.ids[x.off[r]:x.off[r+1]]
}

// Out returns the ids of the arcs leaving (node, port), none if the node
// has no such port.
func (x *Index) Out(node int32, port int) []int32 {
	return x.row(x.base[node], x.base[node+1], port)
}

// In returns the ids of the arcs entering (node, port), none if the node
// has no such port.
func (x *Index) In(node int32, port int) []int32 {
	return x.row(x.base[x.nodes+1+int(node)], x.base[x.nodes+2+int(node)], port)
}

// OutOf returns the ids of the arcs leaving node, port by port.
func (x *Index) OutOf(node int32) []int32 {
	return x.ids[x.off[x.base[node]]:x.off[x.base[node+1]]]
}

// InTo returns the ids of the arcs entering node, port by port.
func (x *Index) InTo(node int32) []int32 {
	return x.ids[x.off[x.base[x.nodes+1+int(node)]]:x.off[x.base[x.nodes+2+int(node)]]]
}

// OutRow returns the row of (node, port 0) in the dense numbering of
// output ports — a key for per-port side tables. OutRow(n+1) is one past
// node n's last row, and OutRow of the node count the number of rows.
func (x *Index) OutRow(node int32) int { return int(x.base[node]) }

// NumArcs returns how many arcs are indexed: all but the malformed ones.
func (x *Index) NumArcs() int { return len(x.ids) / 2 }
