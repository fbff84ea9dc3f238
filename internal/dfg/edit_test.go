package dfg_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ctdf/internal/dfg"
	"ctdf/internal/lang"
)

// model is the editor's specification kept as plain slices: the tables an
// Editor holds, with nothing derived — adjacency is a scan.
type model struct {
	nodes   []*dfg.Node // nil once removed
	arcs    []dfg.Arc
	dead    []bool
	fusions []dfg.FusedInfo
	calls   []dfg.CallInfo
}

func newModel(g *dfg.Graph) *model {
	return &model{
		nodes:   slices.Clone(g.Nodes),
		arcs:    slices.Clone(g.Arcs),
		dead:    make([]bool, len(g.Arcs)),
		fusions: slices.Clone(g.Fusions),
		calls:   g.Calls,
	}
}

// at lists the live arcs at a port in arc order: leaving it when out is
// set, entering it otherwise.
func (m *model) at(out bool, node, port int32) []int32 {
	var ids []int32
	for i, a := range m.arcs {
		if m.dead[i] {
			continue
		}
		if out && a.From == node && a.FromPort == port || !out && a.To == node && a.ToPort == port {
			ids = append(ids, int32(i))
		}
	}
	return ids
}

// graph is what Editor.Graph must return: survivors renumbered in table
// order, every table following them.
func (m *model) graph() (nodes []dfg.Node, arcs []dfg.Arc, fusions []dfg.FusedInfo, calls []dfg.CallInfo) {
	remap := make([]int32, len(m.nodes))
	for i, n := range m.nodes {
		if n == nil {
			continue
		}
		c := *n
		c.ID, remap[i] = int32(len(nodes)), int32(len(nodes))
		nodes = append(nodes, c)
	}
	for i, a := range m.arcs {
		if !m.dead[i] {
			a.From, a.To = remap[a.From], remap[a.To]
			arcs = append(arcs, a)
		}
	}
	for _, fi := range m.fusions {
		if m.nodes[fi.Node] != nil {
			fi.Node = remap[fi.Node]
			fusions = append(fusions, fi)
		}
	}
	for _, c := range m.calls {
		c.Apply, c.Return = remap[c.Apply], remap[c.Return]
		c.Params = slices.Clone(c.Params)
		for j, p := range c.Params {
			c.Params[j] = remap[p]
		}
		calls = append(calls, c)
	}
	return
}

// checkPorts holds the editor's per-port lists and what is derived from
// them to the model's scans.
func checkPorts(t *testing.T, name string, e *dfg.Editor, m *model) {
	t.Helper()
	walk := func(p *dfg.Ports, node, port int32) []int32 {
		var ids []int32
		for id := p.First(p.Slot(node, port)); id >= 0; id = p.Next(id) {
			ids = append(ids, id)
		}
		return ids
	}
	for i := range m.arcs {
		if e.Live(int32(i)) == m.dead[i] || e.Arcs[i] != m.arcs[i] {
			t.Fatalf("%s: arc %d is %+v live=%v, want %+v live=%v", name, i, e.Arcs[i], e.Live(int32(i)), m.arcs[i], !m.dead[i])
		}
	}
	for i, n := range m.nodes {
		id := int32(i)
		if e.Nodes[id] != n {
			t.Fatalf("%s: node %d is %v, want %v", name, id, e.Nodes[id], n)
		}
		if n == nil {
			continue
		}
		degree := 0
		for p := int32(0); p < int32(n.OutPorts()); p++ {
			want := m.at(true, id, p)
			slot := e.Outs().Slot(id, p)
			only := int32(-1)
			if len(want) == 1 {
				only = want[0]
			}
			if got := walk(e.Outs(), id, p); !slices.Equal(got, want) || int(e.Outs().Size(slot)) != len(want) || e.Outs().Only(slot) != only {
				t.Fatalf("%s: d%d out port %d lists %v (size %d, only %d), want %v", name, n.ID, p, got, e.Outs().Size(slot), e.Outs().Only(slot), want)
			}
			for _, ai := range want {
				if a := m.arcs[ai]; !e.HasArc(id, p, a.To, a.ToPort) {
					t.Fatalf("%s: HasArc misses arc %d", name, ai)
				}
			}
			if e.HasArc(id, p, int32(len(m.nodes)), 0) {
				t.Fatalf("%s: HasArc finds an arc to a node that is not there", name)
			}
			degree += len(want)
		}
		if e.OutDegree(id) != degree {
			t.Fatalf("%s: d%d has out-degree %d, want %d", name, n.ID, e.OutDegree(id), degree)
		}
		for p := int32(0); p < n.NIns; p++ {
			if got, want := walk(e.Ins(), id, p), m.at(false, id, p); !slices.Equal(got, want) {
				t.Fatalf("%s: d%d in port %d lists %v, want %v", name, n.ID, p, got, want)
			}
		}
	}
}

// editScript applies steps random edits to e and m alike: add a node (a
// synch, a fused node with its step program, or an apply), add an arc,
// kill an arc, move an arc's source, remove a node with its arcs. Nodes a
// call record names are never removed.
func editScript(r *rand.Rand, e *dfg.Editor, m *model, steps int) {
	pinned := map[int32]bool{}
	for _, c := range m.calls {
		pinned[c.Apply], pinned[c.Return] = true, true
		for _, p := range c.Params {
			pinned[p] = true
		}
	}
	// pick returns a live node with a port of the wanted direction, and
	// one of those ports.
	pick := func(out bool) (node, port int32, ok bool) {
		for try := 0; try < 8; try++ {
			id := int32(r.Intn(len(m.nodes)))
			if n := m.nodes[id]; n != nil {
				ports := n.NIns
				if out {
					ports = int32(n.OutPorts())
				}
				if ports > 0 {
					return id, r.Int31n(ports), true
				}
			}
		}
		return 0, 0, false
	}
	liveArc := func() (int32, bool) {
		for try := 0; try < 8 && len(m.arcs) > 0; try++ {
			if id := r.Intn(len(m.arcs)); !m.dead[id] {
				return int32(id), true
			}
		}
		return 0, false
	}
	kill := func(id int32) {
		e.KillArc(id)
		m.dead[id] = true
	}
	add := func(a dfg.Arc) {
		e.AddArc(a)
		m.arcs, m.dead = append(m.arcs, a), append(m.dead, false)
	}
	for s := 0; s < steps; s++ {
		switch r.Intn(6) {
		case 0:
			n := &dfg.Node{Kind: dfg.Synch, NIns: 2 + r.Int31n(3), Tok: 1, Stmt: -1}
			switch r.Intn(3) {
			case 1:
				n = &dfg.Node{Kind: dfg.Fused, NIns: 1 + r.Int31n(3), NOuts: 1 + r.Int31n(2), Stmt: int32(s)}
			case 2:
				n = &dfg.Node{Kind: dfg.Apply, NIns: 1 + r.Int31n(2), NOuts: 2 + r.Int31n(3), Var: 1}
			}
			if id := e.AddNode(n); int(id) != len(m.nodes) || n.ID != id {
				panic(fmt.Sprintf("AddNode returned %d for table slot %d", id, len(m.nodes)))
			}
			m.nodes = append(m.nodes, n)
			if n.Kind == dfg.Fused {
				fi := dfg.FusedInfo{Node: n.ID, Steps: []dfg.FusedOp{{Kind: dfg.UnOp, A: dfg.FusedInput(0)}}, Outs: make([]int32, n.NOuts)}
				e.AddFusion(fi)
				m.fusions = append(m.fusions, fi)
			}
		case 1, 2:
			from, fp, ok1 := pick(true)
			to, tp, ok2 := pick(false)
			if ok1 && ok2 {
				add(dfg.Arc{From: from, FromPort: fp, To: to, ToPort: tp, Dummy: r.Intn(2) == 0})
			}
		case 3:
			if id, ok := liveArc(); ok {
				kill(id)
			}
		case 4:
			id, ok1 := liveArc()
			from, fp, ok2 := pick(true)
			if ok1 && ok2 {
				e.MoveSource(id, from, fp)
				a := m.arcs[id]
				a.From, a.FromPort = from, fp
				m.dead[id] = true
				m.arcs, m.dead = append(m.arcs, a), append(m.dead, false)
			}
		case 5:
			id := int32(r.Intn(len(m.nodes)))
			if m.nodes[id] == nil || pinned[id] {
				continue
			}
			e.KillArcsInto(id)
			for i, a := range m.arcs {
				if a.To == id {
					m.dead[i] = true
				}
			}
			for i, a := range m.arcs {
				if a.From == id && !m.dead[i] {
					kill(int32(i))
				}
			}
			e.Remove(id)
			m.nodes[id] = nil
		}
	}
}

// TestEditorAgainstModel: random edit scripts over every suite graph —
// optimized ones carry fused nodes, linked ones apply nodes and call
// records — leave the editor's port lists equal to the model's scans, and
// Graph returns the model's tables renumbered, an index that agrees with a
// plain scan of them, and the source graph untouched.
func TestEditorAgainstModel(t *testing.T) {
	graphs, fused, linked := 0, 0, 0
	forEachSuiteGraph(func(name string, g *dfg.Graph) {
		nodesBefore := make([]dfg.Node, len(g.Nodes))
		for i, n := range g.Nodes {
			nodesBefore[i] = *n
		}
		ptrsBefore, arcsBefore := slices.Clone(g.Nodes), slices.Clone(g.Arcs)
		fusionsBefore, callsBefore := slices.Clone(g.Fusions), slices.Clone(g.Calls)

		r := rand.New(rand.NewSource(int64(graphs)))
		e, m := dfg.NewEditor(g), newModel(g)
		checkPorts(t, name, e, m)
		for round := 0; round < 3; round++ {
			editScript(r, e, m, 5+r.Intn(len(g.Nodes)))
			checkPorts(t, fmt.Sprintf("%s round %d", name, round), e, m)
		}
		got, err := e.Graph()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		nodes, arcs, fusions, calls := m.graph()
		if len(got.Nodes) != len(nodes) {
			t.Fatalf("%s: %d nodes survive, want %d", name, len(got.Nodes), len(nodes))
		}
		ops := got.OpTable().Ops
		for i, n := range got.Nodes {
			if *n != nodes[i] {
				t.Fatalf("%s: node %d is %+v, want %+v", name, i, *n, nodes[i])
			}
			if (n.Kind == dfg.Fused) != (ops[i].Aux >= 0) {
				t.Fatalf("%s: %s: step program row %d", name, got.Label(n), ops[i].Aux)
			}
			if n.Kind == dfg.Start && got.StartID != n.ID || n.Kind == dfg.End && got.EndID != n.ID {
				t.Fatalf("%s: %s is not the graph's start %d / end %d", name, got.Label(n), got.StartID, got.EndID)
			}
		}
		if !slices.Equal(got.Arcs, arcs) {
			t.Fatalf("%s: arcs differ from the model's", name)
		}
		if !reflect.DeepEqual(got.Fusions, fusions) || !reflect.DeepEqual(got.Calls, calls) {
			t.Fatalf("%s: step programs or call records do not follow their nodes:\n%+v\n%+v\nwant\n%+v\n%+v", name, got.Fusions, got.Calls, fusions, calls)
		}
		checkIndex(t, name+" edited", got)

		for i, n := range g.Nodes {
			if n != ptrsBefore[i] || *n != nodesBefore[i] {
				t.Fatalf("%s: editing wrote node %d of the source graph", name, i)
			}
		}
		if !slices.Equal(g.Arcs, arcsBefore) || !reflect.DeepEqual(g.Fusions, fusionsBefore) || !reflect.DeepEqual(g.Calls, callsBefore) {
			t.Fatalf("%s: editing wrote the source graph", name)
		}
		graphs++
		if len(g.Fusions) > 0 {
			fused++
		}
		if len(g.Calls) > 0 {
			linked++
		}
	})
	if graphs < 600 || fused < 100 || linked < 10 {
		t.Fatalf("%d graphs, %d with fused nodes, %d linked; suite lost coverage", graphs, fused, linked)
	}
}

// TestRemoveEveryOtherFusedNode: Remove takes a fused node's step program
// along without searching the programs, and Graph keeps the survivors'
// programs in node order, renumbered with their nodes.
func TestRemoveEveryOtherFusedNode(t *testing.T) {
	const n = 1 << 15
	e := dfg.NewEditorFor(lang.MustParse("var x\n"), nil)
	for i := 0; i < n; i++ {
		id := e.AddNode(&dfg.Node{Kind: dfg.Fused, NIns: 1, NOuts: 1, Stmt: int32(i)})
		e.AddFusion(dfg.FusedInfo{Node: id, Steps: []dfg.FusedOp{{Kind: dfg.Const, Val: int64(i), A: dfg.FusedInput(0)}}, Outs: []int32{0}})
	}
	for id := int32(0); id < n; id += 2 {
		e.Remove(id)
	}
	g, err := e.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) != n/2 || len(g.Fusions) != n/2 {
		t.Fatalf("%d nodes and %d step programs survive, want %d of each", len(g.Nodes), len(g.Fusions), n/2)
	}
	for i, fi := range g.Fusions {
		if want := int32(2*i + 1); fi.Node != int32(i) || g.Nodes[i].ID != int32(i) || g.Nodes[i].Stmt != want || fi.Steps[0].Val != int64(want) {
			t.Fatalf("program %d is %+v for node %+v, want the one of d%d", i, fi, *g.Nodes[i], want)
		}
	}
}

// TestEditorReportsDanglingReferences: an arc, a step program or a call
// record left attached to a removed node fails Graph with an error, and
// never panics.
func TestEditorReportsDanglingReferences(t *testing.T) {
	arcs, programs, records := 0, 0, 0
	forEachSuiteGraph(func(name string, g *dfg.Graph) {
		fails := func(what string, e *dfg.Editor) {
			t.Helper()
			if ng, err := e.Graph(); err == nil {
				t.Fatalf("%s: Graph accepted %s: %d nodes", name, what, len(ng.Nodes))
			}
		}
		for _, n := range g.Nodes {
			if n.Kind == dfg.Switch {
				id := n.ID
				e := dfg.NewEditor(g)
				e.KillArcsInto(id)
				e.Remove(id)
				fails("arcs leaving a removed switch", e)
				for p := int32(0); p < 2; p++ {
					for slot := e.Outs().Slot(id, p); e.Outs().First(slot) >= 0; {
						e.KillArc(e.Outs().First(slot))
					}
				}
				if _, err := e.Graph(); err != nil {
					t.Fatalf("%s: a switch removed with all its arcs: %v", name, err)
				}
				arcs++
				break
			}
		}
		if len(g.Fusions) > 0 {
			id := g.Fusions[len(g.Fusions)-1].Node
			e := dfg.NewEditor(g)
			e.KillArcsInto(id)
			for slot := e.Outs().Slot(id, 0); e.Outs().First(slot) >= 0; {
				e.KillArc(e.Outs().First(slot))
			}
			e.Nodes[id] = nil // not Remove, which takes the step program along
			fails("a step program whose node is gone", e)

			e = dfg.NewEditor(g)
			e.AddFusion(dfg.FusedInfo{Node: int32(len(g.Nodes)) + 3})
			fails("a step program for a node that never was", e)
			programs++
		}
		for _, c := range g.Calls {
			for _, id := range []int32{c.Apply, c.Return, c.Params[0]} {
				e := dfg.NewEditor(g)
				e.KillArcsInto(id)
				for p := int32(0); p < int32(g.Nodes[id].OutPorts()); p++ {
					for slot := e.Outs().Slot(id, p); e.Outs().First(slot) >= 0; {
						e.KillArc(e.Outs().First(slot))
					}
				}
				e.Remove(id)
				fails(fmt.Sprintf("the call record of %s with %s removed", c.Proc, g.Label(g.Nodes[id])), e)
			}
			records++
			break
		}
	})
	if arcs < 200 || programs < 100 || records < 10 {
		t.Fatalf("%d dangling arcs, %d step programs, %d call records tried; suite lost coverage", arcs, programs, records)
	}
}
