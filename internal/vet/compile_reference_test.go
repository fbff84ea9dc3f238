package vet_test

import (
	"fmt"
	"reflect"
	"slices"
	"sort"

	"ctdf/internal/analysis"
	"ctdf/internal/cfg"
	"ctdf/internal/dfg"
	"ctdf/internal/translate"
	"ctdf/internal/vet"
)

// The compile side as it was written before it was made near-linear,
// kept as the oracle TestCompileMatchesReference diffs the production
// front end, analyses and optimizer against (the counterpart of
// reference_test.go for the verifier). Nothing here is tuned: maps of
// maps, dominators recomputed per loop, a graph rebuilt per optimizer
// sweep.

// --- internal/cfg: loop control, one loop at a time ---

// refInsertLoopControl transforms the smallest untransformed natural loop
// (ties by header id) until none is left, recomputing dominators and
// every loop body from scratch each time. The caller passes a reducible
// graph.
func refInsertLoopControl(g *cfg.Graph) (*cfg.Graph, []cfg.Loop) {
	out := g.Clone()
	for {
		h, body, ok := refFindUntransformedLoop(out)
		if !ok {
			break
		}
		refTransformLoop(out, h, body)
	}
	return out, refFindLoops(out)
}

func refFindUntransformedLoop(g *cfg.Graph) (header int, body map[int]bool, ok bool) {
	dom := cfg.Dominators(g)
	byHeader := map[int][]int{}
	for _, n := range g.Nodes {
		for _, s := range n.Succs {
			if dom.Dominates(s, n.ID) && g.Nodes[s].Kind != cfg.KindLoopEntry {
				byHeader[s] = append(byHeader[s], n.ID)
			}
		}
	}
	if len(byHeader) == 0 {
		return 0, nil, false
	}
	type rawLoop struct {
		header, size int
		body         map[int]bool
	}
	var candidates []rawLoop
	for h, backs := range byHeader {
		body := refNaturalLoop(g, h, backs)
		// An exit statement lies in every loop around its own loop (§3),
		// also where its edge leaves them all: it counts in their size,
		// which orders the transformation as in cfg.InsertLoopControl.
		size := len(body)
		for _, x := range g.Nodes {
			if x.Kind == cfg.KindLoopExit && !body[x.ID] && body[x.LoopHeader] {
				size++
			}
		}
		candidates = append(candidates, rawLoop{h, size, body})
	}
	sort.Slice(candidates, func(i, j int) bool {
		if candidates[i].size != candidates[j].size {
			return candidates[i].size < candidates[j].size
		}
		return candidates[i].header < candidates[j].header
	})
	return candidates[0].header, candidates[0].body, true
}

func refNaturalLoop(g *cfg.Graph, h int, backs []int) map[int]bool {
	body := map[int]bool{h: true}
	stack := append([]int(nil), backs...)
	for _, t := range backs {
		body[t] = true
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range g.Nodes[n].Preds {
			if !body[p] {
				body[p] = true
				stack = append(stack, p)
			}
		}
	}
	return body
}

func refContains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// refReplaceEdge rewrites the first edge from→oldTo into from→newTo.
func refReplaceEdge(g *cfg.Graph, from, oldTo, newTo int) {
	g.ReplaceEdgeAt(from, slices.Index(g.Nodes[from].Succs, oldTo), newTo)
}

func refSortedInts(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func refTransformLoop(g *cfg.Graph, h int, body map[int]bool) {
	le := g.AddNode(cfg.KindLoopEntry)
	le.LoopHeader = h
	le.BackPreds = map[int]bool{}
	preds := append([]int(nil), g.Nodes[h].Preds...)
	for _, p := range preds {
		for refContains(g.Nodes[p].Succs, h) {
			refReplaceEdge(g, p, h, le.ID)
		}
		if body[p] {
			le.BackPreds[p] = true
		}
	}
	g.AddEdge(le.ID, h)
	for _, a := range refSortedInts(body) {
		succs := append([]int(nil), g.Nodes[a].Succs...)
		for _, s := range succs {
			if body[s] || s == le.ID {
				continue
			}
			// An exit leaving this loop through inner loops' exits (made
			// earlier, the inner loops being smaller) goes after them.
			from := a
			for g.Nodes[s].Kind == cfg.KindLoopExit {
				from, s = s, g.Nodes[s].Succs[0]
			}
			lx := g.AddNode(cfg.KindLoopExit)
			lx.LoopHeader = h
			refReplaceEdge(g, from, s, lx.ID)
			g.AddEdge(lx.ID, s)
		}
	}
}

func refFindLoops(g *cfg.Graph) []cfg.Loop {
	var loops []cfg.Loop
	for _, n := range g.Nodes {
		if n.Kind != cfg.KindLoopEntry {
			continue
		}
		// The body is what reaches a back edge or one of the loop's exits.
		body := map[int]bool{n.ID: true}
		var stack, exits []int
		for b := range n.BackPreds {
			if !body[b] {
				body[b] = true
				stack = append(stack, b)
			}
		}
		for _, x := range g.Nodes {
			if x.Kind == cfg.KindLoopExit && x.LoopHeader == n.Succs[0] {
				exits = append(exits, x.ID)
				if p := x.Preds[0]; !body[p] {
					body[p] = true
					stack = append(stack, p)
				}
			}
		}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, p := range g.Nodes[x].Preds {
				if !body[p] {
					body[p] = true
					stack = append(stack, p)
				}
			}
		}
		loops = append(loops, cfg.Loop{Entry: n.ID, Header: n.Succs[0], Body: body, Exits: exits})
	}
	// Nesting depth: count enclosing loop bodies.
	for i := range loops {
		loops[i].Depth = 1
		for j := range loops {
			if i != j && loops[j].Body[loops[i].Entry] {
				loops[i].Depth++
			}
		}
	}
	sort.Slice(loops, func(i, j int) bool {
		if loops[i].Depth != loops[j].Depth {
			return loops[i].Depth > loops[j].Depth
		}
		return loops[i].Entry < loops[j].Entry
	})
	return loops
}

// --- internal/opt: one adjacency copy and one rebuilt graph per sweep ---

// refOptRun is the optimizer as a pipeline of passes that each copy the
// graph's adjacency into an editor, mark deletions and additions against
// that snapshot, and rebuild a fresh dense graph per sweep. It differs
// from the code it was taken from in one respect: that code's sink pass
// matched every pair of a sweep on the sweep's snapshot, so two chained
// pairs (one's merge feeding the other's switch) were both rewritten from
// stale arcs and the rebuild failed with "arc … survives a deleted
// endpoint". Here, as in production, a pair whose switch or merge had its
// adjacency edited in the sweep waits for the next one (touched).
const refMaxRounds = 1024

func refOptRun(res *translate.Result) (*translate.OptCertificate, error) {
	if res == nil || res.Graph == nil {
		return nil, fmt.Errorf("opt: no graph to optimize")
	}
	if len(res.Graph.Calls) > 0 {
		return nil, fmt.Errorf("opt: linked procedure graphs are not optimizable (call linkage pins node ids)")
	}

	// The sinking work-list criterion is exactly the predicate behind
	// vet's "redundant switch" warning: the recomputed §4 placement has
	// no entry for the (fork, token) slot.
	minimal, err := vet.MinimalPlacement(res)
	if err != nil {
		minimal = nil // metadata-free graph: skip the placement-driven pass
	}

	g := res.Graph
	counts := [4]int{}
	for round := 0; ; round++ {
		if round >= refMaxRounds {
			return nil, fmt.Errorf("opt: pipeline did not reach a fixpoint after %d rounds", refMaxRounds)
		}
		n := 0
		if minimal != nil {
			g, err = refSinkSwitches(g, minimal, &counts[0], &n)
			if err != nil {
				return nil, err
			}
		}
		if g, err = refCollapseMerges(g, &counts[1], &n); err != nil {
			return nil, err
		}
		if g, err = refFuseOperators(g, &counts[2], &n); err != nil {
			return nil, err
		}
		if g, err = refEliminateDead(g, res, &counts[3], &n); err != nil {
			return nil, err
		}
		if n == 0 {
			break
		}
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("opt: optimized graph is invalid: %w", err)
	}
	cert := &translate.OptCertificate{Passes: []translate.PassCount{
		{Name: "sink-switches", Rewrites: counts[0]},
		{Name: "collapse-merges", Rewrites: counts[1]},
		{Name: "fuse-operators", Rewrites: counts[2]},
		{Name: "eliminate-dead", Rewrites: counts[3]},
	}}
	res.Graph = g
	res.Opt = cert
	return cert, nil
}

type refEditor struct {
	g        *dfg.Graph
	deadN    []bool
	deadA    []bool
	added    []dfg.Arc       // endpoints in old-id space (new nodes at len(g.Nodes)+i)
	newNodes []*dfg.Node     // appended nodes, ids len(g.Nodes)+i
	newFus   []dfg.FusedInfo // fusion entries for appended nodes, old-id space

	// outs[node][port] and ins[node][port] list arc indices.
	outs [][][]int
	ins  [][][]int
}

func newRefEditor(g *dfg.Graph) *refEditor {
	e := &refEditor{
		g:     g,
		deadN: make([]bool, len(g.Nodes)),
		deadA: make([]bool, len(g.Arcs)),
		outs:  make([][][]int, len(g.Nodes)),
		ins:   make([][][]int, len(g.Nodes)),
	}
	for i, n := range g.Nodes {
		e.outs[i] = make([][]int, n.OutPorts())
		e.ins[i] = make([][]int, n.NIns)
	}
	for ai, a := range g.Arcs {
		e.outs[a.From][a.FromPort] = append(e.outs[a.From][a.FromPort], ai)
		e.ins[a.To][a.ToPort] = append(e.ins[a.To][a.ToPort], ai)
	}
	return e
}

func (e *refEditor) addNode(n *dfg.Node) int32 {
	id := int32(len(e.g.Nodes) + len(e.newNodes))
	e.newNodes = append(e.newNodes, n)
	return id
}

func (e *refEditor) hasArc(from, fromPort, to, toPort int32) bool {
	if int(from) < len(e.outs) {
		for _, ai := range e.outs[from][fromPort] {
			if !e.deadA[ai] {
				a := e.g.Arcs[ai]
				if a.To == to && a.ToPort == toPort {
					return true
				}
			}
		}
	}
	for _, a := range e.added {
		if a.From == from && a.FromPort == fromPort && a.To == to && a.ToPort == toPort {
			return true
		}
	}
	return false
}

func (e *refEditor) rebuild() (*dfg.Graph, error) {
	g := e.g
	ng := dfg.NewGraph(g.Prog)
	ng.Names = g.Names
	remap := make([]int32, len(g.Nodes)+len(e.newNodes))
	for i, n := range g.Nodes {
		if e.deadN[i] {
			remap[i] = -1
			continue
		}
		cp := *n
		ng.Add(&cp)
		remap[i] = cp.ID
	}
	for i, n := range e.newNodes {
		cp := *n
		ng.Add(&cp)
		remap[len(g.Nodes)+i] = cp.ID
	}
	connect := func(a dfg.Arc) error {
		from, to := remap[a.From], remap[a.To]
		if from < 0 || to < 0 {
			return fmt.Errorf("opt: internal error: arc d%d.%d→d%d.%d survives a deleted endpoint", a.From, a.FromPort, a.To, a.ToPort)
		}
		ng.Connect(from, a.FromPort, to, a.ToPort, a.Dummy)
		return nil
	}
	for ai, a := range g.Arcs {
		if e.deadA[ai] {
			continue
		}
		if err := connect(a); err != nil {
			return nil, err
		}
	}
	for _, a := range e.added {
		if err := connect(a); err != nil {
			return nil, err
		}
	}
	for i := range g.Fusions {
		fi := g.Fusions[i]
		if remap[fi.Node] < 0 {
			continue
		}
		fi.Node = remap[fi.Node]
		fi.Steps = append([]dfg.FusedOp(nil), fi.Steps...)
		fi.Outs = append([]int32(nil), fi.Outs...)
		ng.Fusions = append(ng.Fusions, fi)
	}
	for _, fi := range e.newFus {
		if remap[fi.Node] < 0 {
			continue
		}
		fi.Node = remap[fi.Node]
		ng.Fusions = append(ng.Fusions, fi)
	}
	return ng, nil
}

func refSinkSwitches(g *dfg.Graph, minimal *analysis.Placement, count, total *int) (*dfg.Graph, error) {
	for {
		e := newRefEditor(g)
		touched := make([]bool, len(g.Nodes)) // adjacency edited this sweep
		n := 0
		for _, sw := range g.Nodes {
			if sw.Kind != dfg.Switch || sw.Stmt < 0 || sw.Tok == dfg.NoName || touched[sw.ID] {
				continue
			}
			if minimal.NeedsSwitch(int(sw.Stmt), g.Name(sw.Tok)) {
				continue // required by Theorem 1: removing it would break determinacy
			}
			o0, o1 := e.outs[sw.ID][0], e.outs[sw.ID][1]
			if len(o0) != 1 || len(o1) != 1 {
				continue
			}
			a0, a1 := g.Arcs[o0[0]], g.Arcs[o1[0]]
			if a0.To != a1.To || a0.ToPort != 0 || a1.ToPort != 0 {
				continue
			}
			m := g.Nodes[a0.To]
			if m.Kind != dfg.Merge || m.Tok != sw.Tok || len(e.ins[m.ID][0]) != 2 || touched[m.ID] {
				continue
			}
			din, cin := e.ins[sw.ID][0], e.ins[sw.ID][1]
			if len(din) != 1 || len(cin) != 1 {
				continue
			}
			data := g.Arcs[din[0]]
			ok := true
			for _, mi := range e.outs[m.ID][0] {
				ma := g.Arcs[mi]
				if e.hasArc(data.From, data.FromPort, ma.To, ma.ToPort) {
					ok = false // would duplicate an existing arc; leave the pair
					break
				}
			}
			if !ok {
				continue
			}
			for _, mi := range e.outs[m.ID][0] {
				ma := g.Arcs[mi]
				e.added = append(e.added, dfg.Arc{From: data.From, FromPort: data.FromPort, To: ma.To, ToPort: ma.ToPort, Dummy: ma.Dummy})
				e.deadA[mi] = true
				touched[ma.To] = true
			}
			touched[data.From], touched[g.Arcs[cin[0]].From] = true, true
			e.deadA[din[0]] = true
			e.deadA[cin[0]] = true
			e.deadA[o0[0]] = true
			e.deadA[o1[0]] = true
			e.deadN[sw.ID] = true
			e.deadN[m.ID] = true
			n++
		}
		if n == 0 {
			return g, nil
		}
		ng, err := e.rebuild()
		if err != nil {
			return nil, err
		}
		g = ng
		*count += n
		*total += n
	}
}

func refCollapseMerges(g *dfg.Graph, count, total *int) (*dfg.Graph, error) {
	for {
		e := newRefEditor(g)
		touched := make([]bool, len(g.Nodes)) // received rewired arms this round
		n := 0
		for _, m1 := range g.Nodes {
			if m1.Kind != dfg.Merge || e.deadN[m1.ID] || touched[m1.ID] {
				continue
			}
			outs := e.outs[m1.ID][0]
			if len(outs) != 1 {
				continue
			}
			a := g.Arcs[outs[0]]
			if a.ToPort != 0 || a.To == m1.ID {
				continue
			}
			m2 := g.Nodes[a.To]
			if m2.Kind != dfg.Merge || m2.Tok != m1.Tok || e.deadN[m2.ID] {
				continue
			}
			ok := true
			for _, ii := range e.ins[m1.ID][0] {
				ia := g.Arcs[ii]
				if e.hasArc(ia.From, ia.FromPort, m2.ID, 0) {
					ok = false // the arm already feeds m2 directly: duplicate
					break
				}
			}
			if !ok {
				continue
			}
			for _, ii := range e.ins[m1.ID][0] {
				ia := g.Arcs[ii]
				e.added = append(e.added, dfg.Arc{From: ia.From, FromPort: ia.FromPort, To: m2.ID, ToPort: 0, Dummy: ia.Dummy})
				e.deadA[ii] = true
			}
			e.deadA[outs[0]] = true
			e.deadN[m1.ID] = true
			touched[m2.ID] = true
			n++
		}
		if n == 0 {
			return g, nil
		}
		ng, err := e.rebuild()
		if err != nil {
			return nil, err
		}
		g = ng
		*count += n
		*total += n
	}
}

func refFuseOperators(g *dfg.Graph, count, total *int) (*dfg.Graph, error) {
	e := newRefEditor(g)
	pure := func(k dfg.Kind) bool { return k == dfg.Const || k == dfg.BinOp || k == dfg.UnOp }
	outDeg := func(id int32) int {
		d := 0
		for _, arcs := range e.outs[id] {
			d += len(arcs)
		}
		return d
	}
	// absorbable: the node's single consumer is a pure operator tree
	// under construction (binop/unop), so the node belongs to that
	// consumer's tree rather than rooting its own.
	absorbable := func(id int32) bool {
		if outDeg(id) != 1 {
			return false
		}
		k := g.Nodes[g.Arcs[e.outs[id][0][0]].To].Kind
		return k == dfg.BinOp || k == dfg.UnOp
	}

	type tree struct {
		root    int32
		steps   []dfg.FusedOp
		ext     map[int]int32 // arc index → external input port
		members []int32
		nExt    int32
	}
	treeOf := make([]int, len(g.Nodes))
	for i := range treeOf {
		treeOf[i] = -1
	}
	var trees []*tree

	for _, root := range g.Nodes {
		if (root.Kind != dfg.BinOp && root.Kind != dfg.UnOp) || treeOf[root.ID] != -1 {
			continue
		}
		if outDeg(root.ID) < 1 || absorbable(root.ID) {
			continue
		}
		t := &tree{root: root.ID, ext: map[int]int32{}}
		okTree := true
		var build func(v int32) int32
		build = func(v int32) int32 {
			if !okTree {
				return 0
			}
			vn := g.Nodes[v]
			var refs [2]int32
			for p := 0; p < int(vn.NIns); p++ {
				arcs := e.ins[v][p]
				if len(arcs) != 1 {
					okTree = false
					return 0
				}
				ai := arcs[0]
				src := g.Arcs[ai].From
				if pure(g.Nodes[src].Kind) && outDeg(src) == 1 && treeOf[src] == -1 {
					refs[p] = build(src)
				} else {
					if t.nExt >= 64 {
						okTree = false
						return 0
					}
					t.ext[ai] = t.nExt
					refs[p] = dfg.FusedInput(t.nExt)
					t.nExt++
				}
			}
			var op dfg.FusedOp
			switch vn.Kind {
			case dfg.Const:
				op = dfg.FusedOp{Kind: dfg.Const, Val: vn.Val, A: refs[0]}
			case dfg.UnOp:
				op = dfg.FusedOp{Kind: dfg.UnOp, Op: vn.Op, A: refs[0]}
			case dfg.BinOp:
				op = dfg.FusedOp{Kind: dfg.BinOp, Op: vn.Op, A: refs[0], B: refs[1]}
			default:
				okTree = false
				return 0
			}
			t.steps = append(t.steps, op)
			t.members = append(t.members, v)
			return int32(len(t.steps) - 1)
		}
		build(root.ID)
		if !okTree || len(t.steps) < 2 {
			continue // nothing worth fusing at this root
		}
		for _, m := range t.members {
			treeOf[m] = len(trees)
		}
		trees = append(trees, t)
	}
	if len(trees) == 0 {
		return g, nil
	}

	fusedID := make([]int32, len(trees))
	for i, t := range trees {
		rn := g.Nodes[t.root]
		fusedID[i] = e.addNode(&dfg.Node{Kind: dfg.Fused, NIns: t.nExt, NOuts: 1, Stmt: rn.Stmt, Tok: rn.Tok})
		e.newFus = append(e.newFus, dfg.FusedInfo{Node: fusedID[i], Steps: t.steps, Outs: []int32{int32(len(t.steps) - 1)}})
		for _, m := range t.members {
			e.deadN[m] = true
		}
	}
	for ai, a := range g.Arcs {
		sT, dT := treeOf[a.From], treeOf[a.To]
		if sT == -1 && dT == -1 {
			continue
		}
		e.deadA[ai] = true
		if dT != -1 {
			if p, ok := trees[dT].ext[ai]; ok {
				from, fp := a.From, a.FromPort
				if sT != -1 {
					from, fp = fusedID[sT], 0 // the feeder is another tree's root
				}
				e.added = append(e.added, dfg.Arc{From: from, FromPort: fp, To: fusedID[dT], ToPort: p, Dummy: a.Dummy})
			}
			// Not an external input: an interior arc, dropped — that is
			// the optimization.
			continue
		}
		// Root output crossing out of the tree.
		e.added = append(e.added, dfg.Arc{From: fusedID[sT], FromPort: 0, To: a.To, ToPort: a.ToPort, Dummy: a.Dummy})
	}
	ng, err := e.rebuild()
	if err != nil {
		return nil, err
	}
	*count += len(trees)
	*total += len(trees)
	return ng, nil
}

func refEliminateDead(g *dfg.Graph, res *translate.Result, count, total *int) (*dfg.Graph, error) {
	e := newRefEditor(g)
	isValue := func(k dfg.Kind) bool {
		return k == dfg.Const || k == dfg.BinOp || k == dfg.UnOp || k == dfg.Fused
	}
	srcSafe := func(sn *dfg.Node, port int) bool {
		if isValue(sn.Kind) {
			return true
		}
		if (sn.Kind == dfg.Load || sn.Kind == dfg.LoadIdx || sn.Kind == dfg.ILoad) && port == 0 {
			return true
		}
		return res != nil && sn.Tok != dfg.NoName && res.ValueTokens[g.Name(sn.Tok)] != ""
	}

	portLive := make([][]int, len(g.Nodes)) // live out-arc count per (node, port)
	outLive := make([]int, len(g.Nodes))
	for i, n := range g.Nodes {
		portLive[i] = make([]int, n.OutPorts())
	}
	for _, a := range g.Arcs {
		portLive[a.From][a.FromPort]++
		outLive[a.From]++
	}

	n := 0
	for changed := true; changed; {
		changed = false
		for _, v := range g.Nodes {
			if e.deadN[v.ID] || !isValue(v.Kind) || outLive[v.ID] != 0 || v.OutPorts() == 0 {
				continue
			}
			ok := true
			for p := 0; p < int(v.NIns) && ok; p++ {
				for _, ai := range e.ins[v.ID][p] {
					if e.deadA[ai] {
						continue
					}
					a := g.Arcs[ai]
					if portLive[a.From][a.FromPort] > 1 || srcSafe(g.Nodes[a.From], int(a.FromPort)) {
						continue
					}
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			for p := 0; p < int(v.NIns); p++ {
				for _, ai := range e.ins[v.ID][p] {
					if e.deadA[ai] {
						continue
					}
					a := g.Arcs[ai]
					e.deadA[ai] = true
					portLive[a.From][a.FromPort]--
					outLive[a.From]--
				}
			}
			e.deadN[v.ID] = true
			changed = true
			n++
		}
	}
	if n == 0 {
		return g, nil
	}
	ng, err := e.rebuild()
	if err != nil {
		return nil, err
	}
	*count += n
	*total += n
	return ng, nil
}

// --- internal/analysis: string-keyed maps all the way down ---

// refNeed is the translator's need function recomputed from a result: per
// call, the union of the token sets of the variables the node references
// plus the completion token of a §6.3 store it carries.
func refNeed(res *translate.Result) analysis.NeedFunc {
	istructs := map[string]bool{}
	for _, a := range res.IStructures {
		istructs[a] = true
	}
	return func(id int) []string {
		set := map[string]bool{}
		for _, v := range res.CFG.RefSet(nil, id) {
			if !istructs[v] {
				for _, tok := range res.TokensOf[v] {
					set[tok] = true
				}
			}
		}
		for _, ps := range res.ParallelStores {
			if ps.StoreStmt == id {
				set[ps.DoneToken()] = true
			}
		}
		return refSortedNames(set)
	}
}

func refSortedNames(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// refPlacement is a switch placement by name: per fork, the tokens it
// switches.
type refPlacement map[int]map[string]bool

func (p refPlacement) NeedsSwitch(f int, tok string) bool { return p[f][tok] }

// refPlacementOf names the rows of p.
func refPlacementOf(p *analysis.Placement) refPlacement {
	out := refPlacement{}
	for f, row := range p.Needs {
		for _, t := range row {
			if out[f] == nil {
				out[f] = map[string]bool{}
			}
			out[f][p.Universe[t]] = true
		}
	}
	return out
}

// refPlaceSwitches is Figure 10 one token at a time.
func refPlaceSwitches(g *cfg.Graph, cd *analysis.ControlDeps, need analysis.NeedFunc) refPlacement {
	p := refPlacement{}
	users := map[string][]int{}
	for id := range g.Nodes {
		for _, tok := range need(id) {
			users[tok] = append(users[tok], id)
		}
	}
	for tok, us := range users {
		onWL := map[int]bool{}
		var worklist []int
		for _, n := range us {
			if !onWL[n] {
				onWL[n] = true
				worklist = append(worklist, n)
			}
		}
		for len(worklist) > 0 {
			n := worklist[len(worklist)-1]
			worklist = worklist[:len(worklist)-1]
			for _, f := range cd.On[n] {
				if p[f] == nil {
					p[f] = map[string]bool{}
				}
				p[f][tok] = true
				if !onWL[f] {
					onWL[f] = true
					worklist = append(worklist, f)
				}
			}
		}
	}
	return p
}

func refLoopNeeds(loops []cfg.Loop, need analysis.NeedFunc, p refPlacement) map[int]map[string]bool {
	out := map[int]map[string]bool{}
	for _, l := range loops {
		set := map[string]bool{}
		for b := range l.Body {
			for _, tok := range need(b) {
				set[tok] = true
			}
			for tok := range p[b] {
				set[tok] = true
			}
		}
		out[l.Entry] = set
		for _, x := range l.Exits {
			out[x] = set
		}
	}
	return out
}

// refPlaceWithLoopControl iterates placement and loop needs to their
// fixpoint, as translate does for the optimized schemas, and returns the
// extended need function with the placement.
func refPlaceWithLoopControl(g *cfg.Graph, loops []cfg.Loop, base analysis.NeedFunc) (analysis.NeedFunc, refPlacement) {
	cd := analysis.ComputeControlDeps(g)
	loopNeed := map[int]map[string]bool{}
	extended := func(id int) []string {
		set := map[string]bool{}
		for _, tok := range base(id) {
			set[tok] = true
		}
		for tok := range loopNeed[id] {
			set[tok] = true
		}
		return refSortedNames(set)
	}
	for {
		placement := refPlaceSwitches(g, cd, extended)
		next := refLoopNeeds(loops, base, placement)
		if reflect.DeepEqual(next, loopNeed) {
			return extended, placement
		}
		loopNeed = next
	}
}

// refSourceVectors is the Figure 11 result as maps: per node and token,
// the sorted sources at the node (sv) and, for loop entries, at the back
// port (back), with the order the nodes were processed in.
type refSourceVectors struct {
	sv, back []map[string][]analysis.Source
	loopNeed map[int]map[string]bool
	order    []int
}

func refComputeSourceVectors(g *cfg.Graph, loops []cfg.Loop, universe []string, need analysis.NeedFunc, placement refPlacement) (*refSourceVectors, error) {
	n := g.Len()
	sv := make([]map[string]map[analysis.Source]bool, n)
	svBack := make([]map[string]map[analysis.Source]bool, n)
	for i := 0; i < n; i++ {
		sv[i] = map[string]map[analysis.Source]bool{}
		svBack[i] = map[string]map[analysis.Source]bool{}
	}
	out := &refSourceVectors{loopNeed: refLoopNeeds(loops, need, placement)}
	pdom := cfg.PostDominators(g)

	bypass := map[int]int{}
	for _, l := range loops {
		exitSet := map[int]bool{}
		for _, x := range l.Exits {
			exitSet[x] = true
		}
		t := pdom.Idom[l.Entry]
		for t != -1 && (l.Body[t] || exitSet[t]) {
			t = pdom.Idom[t]
		}
		if t == -1 {
			return nil, fmt.Errorf("loop at n%d has no postdominator outside its body", l.Entry)
		}
		bypass[l.Entry] = t
	}

	// A fork inside a loop whose immediate postdominator is the loop's
	// entry parts the loop's back edges: what it forwards reaches the
	// entry on the next iteration, on the back port.
	forwardsBack := func(fork, to int) bool {
		for _, l := range loops {
			if l.Entry == to && l.Body[fork] {
				return true
			}
		}
		return false
	}
	// contribute puts srcs on tok's list at node to, arriving from CFG
	// predecessor fromNode, from around intervening nodes (-1), or
	// forwarded by fork f to its immediate postdominator (-2-f).
	contribute := func(to int, tok string, srcs []analysis.Source, fromNode int) {
		tgt := sv
		toNode := g.Nodes[to]
		if toNode.Kind == cfg.KindLoopEntry && fromNode >= 0 && toNode.BackPreds[fromNode] {
			tgt = svBack
		}
		if fromNode < -1 && forwardsBack(-fromNode-2, to) {
			tgt = svBack
		}
		m := tgt[to][tok]
		if m == nil {
			m = map[analysis.Source]bool{}
			tgt[to][tok] = m
		}
		for _, s := range srcs {
			m[s] = true
		}
	}
	sorted := func(m map[analysis.Source]bool) []analysis.Source {
		srcs := make([]analysis.Source, 0, len(m))
		for s := range m {
			srcs = append(srcs, s)
		}
		sort.Slice(srcs, func(i, j int) bool {
			if srcs[i].Node != srcs[j].Node {
				return srcs[i].Node < srcs[j].Node
			}
			if srcs[i].Read != srcs[j].Read {
				return srcs[j].Read
			}
			return srcs[i].Dir && !srcs[j].Dir
		})
		return srcs
	}
	current := func(id int, tok string) []analysis.Source { return sorted(sv[id][tok]) }

	// Topological processing ignoring back edges, lowest ready id first,
	// found by a scan per pick.
	processed := make([]bool, n)
	for len(out.order) < n {
		pick := -1
		for id, nd := range g.Nodes {
			if processed[id] {
				continue
			}
			ready := true
			for _, p := range nd.Preds {
				if !processed[p] && !(nd.Kind == cfg.KindLoopEntry && nd.BackPreds[p]) {
					ready = false
				}
			}
			if ready {
				pick = id
				break
			}
		}
		if pick == -1 {
			return nil, fmt.Errorf("no topological order (cycle not broken by loop entries)")
		}
		processed[pick] = true
		out.order = append(out.order, pick)
		nd := g.Nodes[pick]
		self := []analysis.Source{{Node: int32(pick), Dir: true}}

		switch nd.Kind {
		case cfg.KindStart:
			for _, tok := range universe {
				contribute(nd.Succs[0], tok, self, pick)
			}
		case cfg.KindAssign, cfg.KindCall:
			needSet := map[string]bool{}
			for _, tok := range need(pick) {
				needSet[tok] = true
			}
			for _, tok := range universe {
				if needSet[tok] {
					contribute(nd.Succs[0], tok, self, pick)
				} else if srcs := current(pick, tok); len(srcs) > 0 {
					contribute(nd.Succs[0], tok, srcs, pick)
				}
			}
		case cfg.KindFork:
			readSet := map[string]bool{}
			for _, tok := range need(pick) {
				readSet[tok] = true
			}
			for _, tok := range universe {
				switch {
				case placement.NeedsSwitch(pick, tok):
					contribute(nd.Succs[0], tok, []analysis.Source{{Node: int32(pick), Dir: true}}, pick)
					contribute(nd.Succs[1], tok, []analysis.Source{{Node: int32(pick), Dir: false}}, pick)
				case readSet[tok]:
					contribute(pdom.Idom[pick], tok, []analysis.Source{{Node: int32(pick), Dir: true, Read: true}}, -pick-2)
				default:
					if srcs := current(pick, tok); len(srcs) > 0 {
						contribute(pdom.Idom[pick], tok, srcs, -pick-2)
					}
				}
			}
		case cfg.KindJoin:
			for _, tok := range universe {
				switch srcs := current(pick, tok); {
				case len(srcs) == 1:
					contribute(nd.Succs[0], tok, srcs, pick)
				case len(srcs) > 1:
					contribute(nd.Succs[0], tok, self, pick)
				}
			}
		case cfg.KindLoopEntry:
			for _, tok := range universe {
				if out.loopNeed[pick][tok] {
					contribute(nd.Succs[0], tok, self, pick)
				} else if srcs := current(pick, tok); len(srcs) > 0 {
					contribute(bypass[pick], tok, srcs, -1)
				}
			}
		case cfg.KindLoopExit:
			for _, tok := range universe {
				if out.loopNeed[pick][tok] {
					contribute(nd.Succs[0], tok, self, pick)
				} else if srcs := current(pick, tok); len(srcs) > 0 {
					contribute(nd.Succs[0], tok, srcs, pick)
				}
			}
		}
	}

	flatten := func(in []map[string]map[analysis.Source]bool) []map[string][]analysis.Source {
		dst := make([]map[string][]analysis.Source, len(in))
		for i, m := range in {
			dst[i] = map[string][]analysis.Source{}
			for tok, set := range m {
				dst[i][tok] = sorted(set)
			}
		}
		return dst
	}
	out.sv, out.back = flatten(sv), flatten(svBack)
	return out, nil
}
