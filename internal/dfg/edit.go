package dfg

import (
	"fmt"
	"slices"
)

// Editor is the editable form of a graph, and the only one. A Graph is
// append-only by design (its Index is built for a graph that only grows),
// so a pass that rewrites one lowers it into an Editor, edits that in
// place, and builds a Graph from it once, with Graph; the source graph is
// never written. Node and arc tables only grow: a removed node leaves a
// nil, a killed arc a cleared live bit, so ids stay stable across edits
// and table order is creation order — the order survivors keep in the
// result, exactly as if the graph had been compacted after every edit.
type Editor struct {
	src *Graph
	// Nodes is the node table, nil where a node was removed. The source's
	// nodes are shared with it: to change one, store an edited copy in
	// its place (its port counts may shrink, not grow).
	Nodes []*Node
	// Arcs is the arc table, killed arcs included (Live).
	Arcs []Arc
	live []bool
	// Outs and Ins list the live arcs at every output and input port, in
	// arc-creation order, and are current after every edit.
	Outs, Ins Ports
	// fusions holds the step programs by editor node id, in creation
	// order.
	fusions []FusedInfo
}

// Ports holds one arc list per port, doubly linked through per-arc
// links: port p of node v is slot base[v]+p.
type Ports struct {
	base  []int32
	slots []struct{ head, tail, size int32 } // head and tail -1 for no arc
	links []struct{ next, prev int32 }       // per arc, -1 at the ends
}

// reserve makes room for a graph of the given size and half as much again.
func (p *Ports) reserve(nodes, arcs int) {
	p.base = make([]int32, 0, nodes+nodes/2)
	p.slots = make([]struct{ head, tail, size int32 }, 0, 3*nodes)
	p.links = make([]struct{ next, prev int32 }, 0, arcs+arcs/2)
}

func (p *Ports) addNode(nports int) {
	p.base = append(p.base, int32(len(p.slots)))
	for i := 0; i < nports; i++ {
		p.slots = append(p.slots, struct{ head, tail, size int32 }{-1, -1, 0})
	}
}

// Slot names port port of node node to the other methods.
func (p *Ports) Slot(node, port int) int32 { return p.base[node] + int32(port) }

// First returns the first arc of the slot, or -1; Next the one after arc.
func (p *Ports) First(slot int32) int32 { return p.slots[slot].head }
func (p *Ports) Next(arc int32) int32   { return p.links[arc].next }
func (p *Ports) Size(slot int32) int32  { return p.slots[slot].size }

// Only returns the single arc of the slot, or -1 unless there is exactly
// one.
func (p *Ports) Only(slot int32) int32 {
	if p.slots[slot].size != 1 {
		return -1
	}
	return p.slots[slot].head
}

func (p *Ports) push(slot, arc int32) {
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

func (p *Ports) remove(slot, arc int32) {
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

// NewEditor lowers g, whose arcs must name ports that exist (a validated
// graph's do).
func NewEditor(g *Graph) *Editor {
	e := &Editor{
		src:     g,
		Nodes:   append(make([]*Node, 0, len(g.Nodes)+len(g.Nodes)/4), g.Nodes...),
		Arcs:    make([]Arc, 0, len(g.Arcs)+len(g.Arcs)/2),
		fusions: append([]FusedInfo(nil), g.Fusions...),
	}
	e.Outs.reserve(len(g.Nodes), len(g.Arcs))
	e.Ins.reserve(len(g.Nodes), len(g.Arcs))
	for _, n := range g.Nodes {
		e.Outs.addNode(n.OutPorts())
		e.Ins.addNode(n.NIns)
	}
	for _, a := range g.Arcs {
		e.AddArc(a)
	}
	return e
}

// AddNode appends n, whose port counts must be set, and returns its id.
func (e *Editor) AddNode(n *Node) int {
	n.ID = len(e.Nodes)
	e.Nodes = append(e.Nodes, n)
	e.Outs.addNode(n.OutPorts())
	e.Ins.addNode(n.NIns)
	return n.ID
}

// AddFusion records the step program of a Fused node.
func (e *Editor) AddFusion(fi FusedInfo) { e.fusions = append(e.fusions, fi) }

// Remove deletes node id and, with a Fused node, its step program. The
// node's arcs are the caller's to kill: one left attached fails Graph.
func (e *Editor) Remove(id int) {
	if e.Nodes[id].Kind == Fused {
		e.fusions = slices.DeleteFunc(e.fusions, func(fi FusedInfo) bool { return fi.Node == id })
	}
	e.Nodes[id] = nil
}

// AddArc appends a, last at both its ports.
func (e *Editor) AddArc(a Arc) {
	id := int32(len(e.Arcs))
	e.Arcs = append(e.Arcs, a)
	e.live = append(e.live, true)
	e.Outs.push(e.Outs.Slot(a.From, a.FromPort), id)
	e.Ins.push(e.Ins.Slot(a.To, a.ToPort), id)
}

// KillArc deletes arc id, which must be live.
func (e *Editor) KillArc(id int32) {
	a := e.Arcs[id]
	e.live[id] = false
	e.Outs.remove(e.Outs.Slot(a.From, a.FromPort), id)
	e.Ins.remove(e.Ins.Slot(a.To, a.ToPort), id)
}

// MoveSource makes arc id leave port port of node node: the arc is killed
// and its successor appended.
func (e *Editor) MoveSource(id int32, node, port int) {
	a := e.Arcs[id]
	a.From, a.FromPort = node, port
	e.KillArc(id)
	e.AddArc(a)
}

// KillArcsInto kills every arc entering node id.
func (e *Editor) KillArcsInto(id int) {
	for p := 0; p < e.Nodes[id].NIns; p++ {
		for slot := e.Ins.Slot(id, p); e.Ins.First(slot) >= 0; {
			e.KillArc(e.Ins.First(slot))
		}
	}
}

// Live reports whether arc id has not been killed.
func (e *Editor) Live(id int32) bool { return e.live[id] }

// HasArc reports whether an arc with these endpoints exists — used to
// refuse rewrites that would create a duplicate arc.
func (e *Editor) HasArc(from, fromPort, to, toPort int) bool {
	for id := e.Outs.First(e.Outs.Slot(from, fromPort)); id >= 0; id = e.Outs.Next(id) {
		if a := e.Arcs[id]; a.To == to && a.ToPort == toPort {
			return true
		}
	}
	return false
}

// OutDegree returns the number of arcs leaving node id on any port.
func (e *Editor) OutDegree(id int) int {
	d := int32(0)
	for p := e.Nodes[id].OutPorts() - 1; p >= 0; p-- {
		d += e.Outs.Size(e.Outs.Slot(id, p))
	}
	return int(d)
}

// Graph materializes the edited graph: surviving nodes are renumbered
// densely in table order, surviving arcs follow in table order, and the
// step programs and the source's call linkage follow their nodes. An arc,
// a step program or a call record left attached to a removed node is a
// bug in the pass that edited, and the error.
func (e *Editor) Graph() (*Graph, error) {
	ng := NewGraph(e.src.Prog)
	remap := make([]int, len(e.Nodes))
	alive := 0
	for _, n := range e.Nodes {
		if n != nil {
			alive++
		}
	}
	ng.Nodes, ng.Arcs = make([]*Node, 0, alive), make([]Arc, 0, len(e.Arcs))
	copies := make([]Node, 0, alive)
	for i, n := range e.Nodes {
		if n == nil {
			remap[i] = -1
			continue
		}
		copies = append(copies, *n)
		remap[i] = ng.Add(&copies[len(copies)-1]).ID
	}
	for id, a := range e.Arcs {
		if !e.live[id] {
			continue
		}
		from, to := remap[a.From], remap[a.To]
		if from < 0 || to < 0 {
			return nil, fmt.Errorf("dfg: arc d%d.%d→d%d.%d survives a removed endpoint", a.From, a.FromPort, a.To, a.ToPort)
		}
		ng.Connect(from, a.FromPort, to, a.ToPort, a.Dummy)
	}
	// moved renumbers a node a side table names; ok turns false if it is
	// not there.
	ok := true
	moved := func(id int) int {
		if id < 0 || id >= len(remap) || remap[id] < 0 {
			ok = false
			return -1
		}
		return remap[id]
	}
	for _, fi := range e.fusions {
		if fi.Node = moved(fi.Node); !ok {
			return nil, fmt.Errorf("dfg: a step program survives its removed fused node")
		}
		ng.AddFusion(fi)
	}
	for _, c := range e.src.Calls {
		c.Apply, c.Return = moved(c.Apply), moved(c.Return)
		c.Params = append([]int(nil), c.Params...)
		for j, p := range c.Params {
			c.Params[j] = moved(p)
		}
		if !ok {
			return nil, fmt.Errorf("dfg: the call linkage of %s survives a removed node", c.Proc)
		}
		ng.Calls = append(ng.Calls, c)
	}
	return ng, nil
}
