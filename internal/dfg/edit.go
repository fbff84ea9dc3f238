package dfg

import (
	"fmt"
	"slices"

	"ctdf/internal/lang"
)

// Editor is the editable form of a graph, and the only one. A Graph is
// append-only by design (its Index is built for a graph that only grows),
// so the translator emits into an Editor (NewEditorFor), a pass that
// rewrites a graph lowers it into one (NewEditor), and either builds a
// Graph from it once, with Graph. Node and arc tables only grow: a removed
// node leaves a nil, a killed arc is marked dead, so ids stay stable
// across edits and table order is creation order — the order survivors
// keep in the result, exactly as if the graph had been compacted after
// every edit. A lowered graph's nodes stay its own and are never written;
// the nodes the editor created and its arc table become the result's.
type Editor struct {
	src *Graph
	// Nodes is the node table, nil where a node was removed. The source's
	// nodes are shared with it: to change one, store an edited copy in
	// its place (its port counts may shrink, not grow).
	Nodes []*Node
	// Arcs is the arc table, killed arcs included (Live).
	Arcs []Arc
	dead []bool
	// outs and ins are built by the first read (Outs, Ins): a graph that
	// is only emitted never needs them.
	outs, ins Ports
	ported    bool
	// fusions holds the step programs by editor node id, in creation
	// order; unfused the fused nodes Remove took with theirs.
	fusions []FusedInfo
	unfused []int32
	// names is the name table (Graph.Names), numbered by ids once
	// NameID is first asked.
	names []string
	ids   map[string]int32
}

// Ports holds one arc list per port, in arc-creation order, which is
// ascending arc id: port p of node v is slot base[v]+p. A list is a ring
// threaded through one link per arc, and its slot holds its last arc,
// whose link leads back to its first. Appending and unlinking the first
// arc take one step; unlinking another walks the ring to its predecessor,
// at most the port's fan-out (fan-in, for an input port) in steps.
type Ports struct {
	base []int32
	last []int32 // per slot, -1 for no arc
	next []int32 // per arc
}

// reserve makes room for the given nodes and ports and a quarter as many
// again, and for arcs arcs.
func (p *Ports) reserve(nodes, ports, arcs int) {
	p.base = make([]int32, 0, nodes+nodes/4)
	p.last = make([]int32, 0, ports+ports/4)
	p.next = make([]int32, 0, arcs)
}

func (p *Ports) addNode(nports int) {
	p.base = append(p.base, int32(len(p.last)))
	for i := 0; i < nports; i++ {
		p.last = append(p.last, -1)
	}
}

// Slot names port port of node node to the other methods.
func (p *Ports) Slot(node, port int32) int32 { return p.base[node] + port }

// First returns the first arc of the slot and Next the one after arc in
// its list, or -1: ids ascend along a list but where its last arc links
// back to its first.
func (p *Ports) First(slot int32) int32 {
	if l := p.last[slot]; l >= 0 {
		return p.next[l]
	}
	return -1
}

func (p *Ports) Next(arc int32) int32 {
	if n := p.next[arc]; n > arc {
		return n
	}
	return -1
}

// Only returns the single arc of the slot, or -1 unless there is exactly
// one; Size counts the slot's arcs.
func (p *Ports) Only(slot int32) int32 {
	if f := p.First(slot); f == p.last[slot] {
		return f
	}
	return -1
}

func (p *Ports) Size(slot int32) (n int32) {
	for a := p.First(slot); a >= 0; a = p.Next(a) {
		n++
	}
	return n
}

// push appends arc, the newest of all, to the slot's list.
func (p *Ports) push(slot, arc int32) {
	first := arc
	if l := p.last[slot]; l >= 0 {
		first, p.next[l] = p.next[l], arc
	}
	p.next = append(p.next, first)
	p.last[slot] = arc
}

func (p *Ports) remove(slot, arc int32) {
	prev := p.last[slot]
	for p.next[prev] != arc {
		prev = p.next[prev]
	}
	switch p.next[prev] = p.next[arc]; {
	case prev == arc:
		p.last[slot] = -1
	case p.last[slot] == arc:
		p.last[slot] = prev
	}
}

// NewEditor lowers g, whose arcs must name ports that exist (a validated
// graph's do).
func NewEditor(g *Graph) *Editor {
	return &Editor{
		src:     g,
		Nodes:   append(make([]*Node, 0, len(g.Nodes)+len(g.Nodes)/4), g.Nodes...),
		Arcs:    append(make([]Arc, 0, len(g.Arcs)+len(g.Arcs)/2), g.Arcs...),
		dead:    make([]bool, len(g.Arcs)),
		fusions: append([]FusedInfo(nil), g.Fusions...),
		names:   g.Names,
	}
}

// NewEditorFor starts an empty graph for prog whose name table begins
// with names (Graph.Names): a translation unit's token universe.
func NewEditorFor(prog *lang.Program, names []string) *Editor {
	return &Editor{src: NewGraph(prog), names: names}
}

// Outs and Ins list the live arcs at every output and input port, in
// arc-creation order, and are current after every edit.
func (e *Editor) Outs() *Ports { e.port(); return &e.outs }
func (e *Editor) Ins() *Ports  { e.port(); return &e.ins }

func (e *Editor) port() {
	if e.ported {
		return
	}
	outs, ins := 0, 0
	for _, n := range e.Nodes {
		outs, ins = outs+n.OutPorts(), ins+int(n.NIns)
	}
	// Links for the arcs there and half as many again, the margin the
	// translator reserves for an edit's appends (the table's capacity
	// holds its estimate's slack as well).
	e.outs.reserve(len(e.Nodes), outs, len(e.Arcs)*3/2)
	e.ins.reserve(len(e.Nodes), ins, len(e.Arcs)*3/2)
	for _, n := range e.Nodes {
		e.outs.addNode(n.OutPorts())
		e.ins.addNode(int(n.NIns))
	}
	for id, a := range e.Arcs {
		e.link(int32(id), a)
	}
	e.ported = true
}

func (e *Editor) link(id int32, a Arc) {
	e.outs.push(e.outs.Slot(a.From, a.FromPort), id)
	e.ins.push(e.ins.Slot(a.To, a.ToPort), id)
}

// AddNode appends n and returns its id. A fixed-arity kind gets its NIns
// here; for the others the caller sets the port counts.
func (e *Editor) AddNode(n *Node) int32 {
	if fi := fixedIns(n.Kind); fi >= 0 {
		n.NIns = fi
	}
	n.ID = int32(len(e.Nodes))
	e.Nodes = appendDoubling(e.Nodes, n)
	if e.ported {
		e.outs.addNode(n.OutPorts())
		e.ins.addNode(int(n.NIns))
	}
	return n.ID
}

// AddFusion records the step program of a Fused node; ReserveFusions
// makes room for n more.
func (e *Editor) AddFusion(fi FusedInfo) { e.fusions = append(e.fusions, fi) }
func (e *Editor) ReserveFusions(n int)   { e.fusions = slices.Grow(e.fusions, n) }

// Remove deletes node id and, with a Fused node, its step program. The
// node's arcs are the caller's to kill: one left attached fails Graph.
func (e *Editor) Remove(id int32) {
	e.port() // built after the removal, they would have no row for it
	if e.Nodes[id].Kind == Fused {
		e.unfused = append(e.unfused, id)
	}
	e.Nodes[id] = nil
}

// ReserveArcs makes room for n arcs in all, so that adding up to that
// many grows the arc table no further.
func (e *Editor) ReserveArcs(n int) {
	if n > cap(e.Arcs) {
		e.Arcs = slices.Grow(e.Arcs, n-len(e.Arcs))
		e.dead = slices.Grow(e.dead, n-len(e.dead))
	}
}

// AddArc appends a, last at both its ports.
func (e *Editor) AddArc(a Arc) {
	e.Arcs, e.dead = appendDoubling(e.Arcs, a), append(e.dead, false)
	if e.ported {
		e.link(int32(len(e.Arcs)-1), a)
	}
}

// KillArc deletes arc id, which must be live.
func (e *Editor) KillArc(id int32) {
	e.port()
	a := e.Arcs[id]
	e.dead[id] = true
	e.outs.remove(e.outs.Slot(a.From, a.FromPort), id)
	e.ins.remove(e.ins.Slot(a.To, a.ToPort), id)
}

// MoveSource makes arc id leave port port of node node: the arc is killed
// and its successor appended.
func (e *Editor) MoveSource(id int32, node, port int32) {
	a := e.Arcs[id]
	a.From, a.FromPort = node, port
	e.KillArc(id)
	e.AddArc(a)
}

// KillArcsInto kills every arc entering node id.
func (e *Editor) KillArcsInto(id int32) {
	ins := e.Ins()
	for p := int32(0); p < e.Nodes[id].NIns; p++ {
		for slot := ins.Slot(id, p); ins.First(slot) >= 0; {
			e.KillArc(ins.First(slot))
		}
	}
}

// Name returns name id of the graph's name table (Graph.Name).
func (e *Editor) Name(id int32) string {
	if id == NoName {
		return ""
	}
	return e.names[id-1]
}

// NameID returns the number of name in the graph's name table, adding it
// after the names there if it is new.
func (e *Editor) NameID(name string) int32 {
	if e.ids == nil {
		e.names = slices.Clip(e.names) // the table began as the caller's: append to a copy
		e.ids = make(map[string]int32, len(e.names))
		for i, s := range e.names {
			e.ids[s] = int32(i) + 1
		}
	}
	id, ok := e.ids[name]
	if !ok {
		e.names = append(e.names, name)
		id = int32(len(e.names))
		e.ids[name] = id
	}
	return id
}

// Live reports whether arc id has not been killed.
func (e *Editor) Live(id int32) bool { return !e.dead[id] }

// HasArc reports whether an arc with these endpoints exists — used to
// refuse rewrites that would create a duplicate arc.
func (e *Editor) HasArc(from, fromPort, to, toPort int32) bool {
	outs := e.Outs()
	for id := outs.First(outs.Slot(from, fromPort)); id >= 0; id = outs.Next(id) {
		if a := e.Arcs[id]; a.To == to && a.ToPort == toPort {
			return true
		}
	}
	return false
}

// OutDegree returns the number of arcs leaving node id on any port.
func (e *Editor) OutDegree(id int32) int {
	outs, d := e.Outs(), int32(0)
	for p := int32(e.Nodes[id].OutPorts()) - 1; p >= 0; p-- {
		d += outs.Size(outs.Slot(id, p))
	}
	return int(d)
}

// Graph materializes the edited graph: surviving nodes are renumbered
// densely in table order, surviving arcs follow in table order, and the
// step programs and the source's call linkage follow their nodes. An arc
// or a call record left attached to a removed node, or a step program to
// one not removed by Remove, is a bug in the pass that edited, and the
// error. Once Graph has succeeded the editor is done: the result holds
// its node, arc and step program tables, compacted in place, and the
// nodes it created, renumbered in place; the source's are copied.
func (e *Editor) Graph() (*Graph, error) {
	ng := NewGraph(e.src.Prog)
	ng.Names = e.names
	remap := make([]int32, len(e.Nodes))
	alive := int32(0)
	for i, n := range e.Nodes {
		remap[i] = -1
		if n != nil {
			remap[i] = alive
			alive++
		}
	}
	for _, id := range e.unfused {
		remap[id] = -2 // its step program goes with it
	}
	for id, a := range e.Arcs {
		if !e.dead[id] && (remap[a.From] < 0 || remap[a.To] < 0) {
			return nil, fmt.Errorf("dfg: arc d%d.%d→d%d.%d survives a removed endpoint", a.From, a.FromPort, a.To, a.ToPort)
		}
	}
	for _, fi := range e.fusions {
		if uint32(fi.Node) >= uint32(len(remap)) || remap[fi.Node] == -1 {
			return nil, fmt.Errorf("dfg: a step program survives its removed fused node")
		}
		if fi.Node = remap[fi.Node]; fi.Node != -2 {
			ng.Fusions = append(e.fusions[:len(ng.Fusions)], fi)
		}
	}
	// moved renumbers a node a call record names; ok turns false if it is
	// not there.
	ok := true
	moved := func(id int32) int32 {
		if uint32(id) >= uint32(len(remap)) || remap[id] < 0 {
			ok = false
			return -1
		}
		return remap[id]
	}
	for _, c := range e.src.Calls {
		c.Apply, c.Return = moved(c.Apply), moved(c.Return)
		c.Params = append([]int32(nil), c.Params...)
		for j, p := range c.Params {
			c.Params[j] = moved(p)
		}
		if !ok {
			return nil, fmt.Errorf("dfg: the call linkage of %s survives a removed node", c.Proc)
		}
		ng.Calls = append(ng.Calls, c)
	}
	ng.Arcs = e.Arcs[:0]
	for id, a := range e.Arcs {
		if !e.dead[id] {
			a.From, a.To = remap[a.From], remap[a.To]
			ng.Arcs = append(ng.Arcs, a)
		}
	}
	ng.Nodes = e.Nodes[:0]
	copies := make([]Node, 0, len(e.src.Nodes))
	for i, n := range e.Nodes {
		if n == nil {
			continue
		}
		if i < len(e.src.Nodes) {
			copies = append(copies, *n)
			n = &copies[len(copies)-1]
		}
		n.ID = remap[i]
		ng.Nodes = append(ng.Nodes, n)
		switch n.Kind {
		case Start:
			ng.StartID = n.ID
		case End:
			ng.EndID = n.ID
		}
	}
	return ng, nil
}
