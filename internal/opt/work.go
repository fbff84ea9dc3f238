package opt

import (
	"fmt"

	"ctdf/internal/analysis"
	"ctdf/internal/dfg"
)

// work is the optimizer's private working graph. dfg.Graph is
// append-only by design (its index is built for a graph that only grows),
// so the passes edit this flat form in place instead and a dfg.Graph is
// built from it once, at the end of the run. Node and arc
// tables only grow: a deleted node leaves a nil, a deleted arc a cleared
// live bit, so ids stay stable across passes and table order is creation
// order — the order survivors keep in the final graph, exactly as if the
// graph had been compacted after every batch of rewrites.
type work struct {
	src   *dfg.Graph
	nodes []*dfg.Node // nil once deleted; nodes past len(src.Nodes) are the passes' own
	arcs  []dfg.Arc
	live  []bool // per arc
	// outs and ins list the live arcs at every output and input port, in
	// arc-creation order, and are current after every edit.
	outs, ins ports
	fusions   []dfg.FusedInfo // step programs by working node id, in creation order

	// touched marks, per node, the last sweep that edited an adjacency
	// list of the node; sweep numbers the sweeps of the whole run.
	touched []int32
	sweep   int32

	// minimal is the recomputed §4 placement, nil until a switch/merge
	// pair asks for it (needsSwitch) and still nil when it cannot be
	// computed; placements counts the recomputations, at most one a run.
	minimal    *analysis.Placement
	placements int

	// Scratch of fuseOperators, kept between rounds.
	treeOf  []int32
	extPort []int32
}

// ports holds one arc list per port, doubly linked through per-arc
// links: port p of node v is slot base[v]+p.
type ports struct {
	base  []int32
	slots []struct{ head, tail, size int32 } // head and tail -1 for no arc
	links []struct{ next, prev int32 }       // per arc, -1 at the ends
}

// reserve makes room for a graph of the given size and half as much again.
func (p *ports) reserve(nodes, arcs int) {
	p.base = make([]int32, 0, nodes+nodes/2)
	p.slots = make([]struct{ head, tail, size int32 }, 0, 3*nodes)
	p.links = make([]struct{ next, prev int32 }, 0, arcs+arcs/2)
}

func (p *ports) addNode(nports int) {
	p.base = append(p.base, int32(len(p.slots)))
	for i := 0; i < nports; i++ {
		p.slots = append(p.slots, struct{ head, tail, size int32 }{-1, -1, 0})
	}
}

func (p *ports) slot(node, port int) int32 { return p.base[node] + int32(port) }

// first returns the first arc of the slot, or -1; next the one after arc.
func (p *ports) first(slot int32) int32 { return p.slots[slot].head }
func (p *ports) next(arc int32) int32   { return p.links[arc].next }
func (p *ports) size(slot int32) int32  { return p.slots[slot].size }

// only returns the single arc of the slot, or -1 unless there is exactly
// one.
func (p *ports) only(slot int32) int32 {
	if p.slots[slot].size != 1 {
		return -1
	}
	return p.slots[slot].head
}

func (p *ports) push(slot, arc int32) {
	s := &p.slots[slot]
	p.links = append(p.links, struct{ next, prev int32 }{-1, s.tail})
	if s.tail >= 0 {
		p.links[s.tail].next = arc
	} else {
		s.head = arc
	}
	s.tail = arc
	s.size++
}

func (p *ports) remove(slot, arc int32) {
	s, l := &p.slots[slot], p.links[arc]
	if l.prev >= 0 {
		p.links[l.prev].next = l.next
	} else {
		s.head = l.next
	}
	if l.next >= 0 {
		p.links[l.next].prev = l.prev
	} else {
		s.tail = l.prev
	}
	s.size--
}

func newWork(g *dfg.Graph) *work {
	w := &work{
		src:     g,
		nodes:   append(make([]*dfg.Node, 0, len(g.Nodes)+len(g.Nodes)/4), g.Nodes...),
		arcs:    make([]dfg.Arc, 0, len(g.Arcs)+len(g.Arcs)/2),
		touched: make([]int32, len(g.Nodes)),
		fusions: append([]dfg.FusedInfo(nil), g.Fusions...),
	}
	w.outs.reserve(len(g.Nodes), len(g.Arcs))
	w.ins.reserve(len(g.Nodes), len(g.Arcs))
	for _, n := range g.Nodes {
		w.outs.addNode(n.OutPorts())
		w.ins.addNode(n.NIns)
	}
	for _, a := range g.Arcs {
		w.addArc(a)
	}
	return w
}

func (w *work) addNode(n *dfg.Node) int {
	n.ID = len(w.nodes)
	w.nodes = append(w.nodes, n)
	w.outs.addNode(n.OutPorts())
	w.ins.addNode(n.NIns)
	w.touched = append(w.touched, 0)
	return n.ID
}

func (w *work) addArc(a dfg.Arc) {
	id := int32(len(w.arcs))
	w.arcs = append(w.arcs, a)
	w.live = append(w.live, true)
	w.outs.push(w.outs.slot(a.From, a.FromPort), id)
	w.ins.push(w.ins.slot(a.To, a.ToPort), id)
}

func (w *work) killArc(id int32) {
	a := w.arcs[id]
	w.live[id] = false
	w.outs.remove(w.outs.slot(a.From, a.FromPort), id)
	w.ins.remove(w.ins.slot(a.To, a.ToPort), id)
}

// hasArc reports whether an arc with these endpoints exists — used to
// refuse rewrites that would create a duplicate arc.
func (w *work) hasArc(from, fromPort, to, toPort int) bool {
	for id := w.outs.first(w.outs.slot(from, fromPort)); id >= 0; id = w.outs.next(id) {
		if a := w.arcs[id]; a.To == to && a.ToPort == toPort {
			return true
		}
	}
	return false
}

// outDegree returns the number of arcs leaving node id on any port.
func (w *work) outDegree(id int) int {
	d := int32(0)
	for p := w.nodes[id].OutPorts() - 1; p >= 0; p-- {
		d += w.outs.size(w.outs.slot(id, p))
	}
	return int(d)
}

// touch records that an adjacency list of node id was edited this sweep;
// fresh reports that none was. A pattern that reads the adjacency of a
// touched node waits for the next sweep, so that a sweep's rewrites are
// pairwise independent whatever their order.
func (w *work) touch(id int)      { w.touched[id] = w.sweep }
func (w *work) fresh(id int) bool { return w.touched[id] != w.sweep }

// graph materializes the working graph: surviving nodes are renumbered
// densely in table order, surviving arcs follow in table order. An arc
// left attached to a deleted node is a pass bug and fails loudly.
func (w *work) graph() (*dfg.Graph, error) {
	ng := dfg.NewGraph(w.src.Prog)
	remap := make([]int, len(w.nodes))
	alive := 0
	for _, n := range w.nodes {
		if n != nil {
			alive++
		}
	}
	ng.Nodes, ng.Arcs = make([]*dfg.Node, 0, alive), make([]dfg.Arc, 0, len(w.arcs))
	copies := make([]dfg.Node, 0, alive)
	for i, n := range w.nodes {
		if n == nil {
			remap[i] = -1
			continue
		}
		copies = append(copies, *n)
		remap[i] = ng.Add(&copies[len(copies)-1]).ID
	}
	for id, a := range w.arcs {
		if !w.live[id] {
			continue
		}
		from, to := remap[a.From], remap[a.To]
		if from < 0 || to < 0 {
			return nil, fmt.Errorf("opt: internal error: arc d%d.%d→d%d.%d survives a deleted endpoint", a.From, a.FromPort, a.To, a.ToPort)
		}
		ng.Connect(from, a.FromPort, to, a.ToPort, a.Dummy)
	}
	for _, fi := range w.fusions {
		if remap[fi.Node] < 0 {
			continue
		}
		fi.Node = remap[fi.Node]
		ng.AddFusion(fi)
	}
	return ng, nil
}
