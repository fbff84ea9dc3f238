package vet

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"ctdf/internal/analysis"
	"ctdf/internal/cfg"
	"ctdf/internal/dfg"
	"ctdf/internal/machcheck"
	"ctdf/internal/translate"
)

// placeInfo is the independently recomputed translation plan the
// validation passes diff the graph against: the switch placement and the
// per-loop circulating token sets, on the plan's token numbers.
type placeInfo struct {
	plan        *analysis.Plan
	err         error
	needEntries int // the entries of the need rows the plan read

	// ops lists the graph's routing operators by key, then node id (at
	// reads it); held is plan without the slots that hold no switch —
	// plan itself when all do.
	ops  []opNode
	held *analysis.Plan
}

// placementInfo recomputes switch placement from first principles —
// CD+ closures (analysis.ByIteratedCD, Definition 5), not the Figure 10
// worklist the translator itself ran — so agreement between the two is a
// genuine cross-check, iterated with loop needs by the fixpoint the
// translator runs too (analysis.Plan.PlaceWith), on the need the
// translator numbered. Cached per Unit.
func (u *Unit) placementInfo() *placeInfo {
	u.placeOnce.Do(func() {
		u.place = recomputePlacement(u.Res)
		if u.place.err == nil {
			u.place.indexOps(u.G, u.Res.CFG)
		}
	})
	return u.place
}

// opKey orders the routing operators by kind, originating statement, then
// token number: the token's position in the plan's universe or, for a
// token the universe lacks (a mutated or hand-written graph's), the
// universe's length plus its number in the graph's name table.
type opKey struct {
	kind      dfg.Kind
	stmt, tok int32
}

func (a opKey) compare(b opKey) int {
	if a.kind != b.kind {
		return cmp.Compare(a.kind, b.kind)
	}
	return cmp.Or(cmp.Compare(a.stmt, b.stmt), cmp.Compare(a.tok, b.tok))
}

// opNode is a routing operator under its key.
type opNode struct {
	opKey
	node int32
}

// indexOps fills ops with g's switches, merges, loop entries and loop
// exits, numbering each token of g's table once, and held. Placement
// marks start too (the conventional start→end edge makes it a fork for CD
// purposes), but the builder gives start no switch.
func (pi *placeInfo) indexOps(g *dfg.Graph, c *cfg.Graph) {
	universe := pi.plan.Placement.Universe
	nums := make([]int32, len(g.Names)+1) // per token of g's table, NoName first
	for tok := range nums {
		t, ok := slices.BinarySearch(universe, g.Name(int32(tok)))
		if nums[tok] = int32(t); !ok {
			nums[tok] = int32(len(universe) + tok)
		}
	}
	for _, n := range g.Nodes {
		switch n.Kind {
		case dfg.Switch, dfg.Merge, dfg.LoopEntry, dfg.LoopExit:
			pi.ops = append(pi.ops, opNode{opKey{n.Kind, n.Stmt, nums[n.Tok]}, n.ID})
		}
	}
	slices.SortFunc(pi.ops, func(a, b opNode) int { return cmp.Or(a.compare(b.opKey), cmp.Compare(a.node, b.node)) })
	pi.held = pi.plan.Without(func(f, t int) bool {
		return isFork(c, f) && len(pi.at(dfg.Switch, int32(f), int32(t))) == 0
	})
}

// at returns the operators of kind at (stmt, token number t), by node id.
func (pi *placeInfo) at(kind dfg.Kind, stmt, t int32) []opNode {
	i, _ := slices.BinarySearchFunc(pi.ops, opKey{kind, stmt, t}, opNode.compare)
	_, at := (&cursor{pi.ops[i:], kind}).upTo(stmt, t)
	return at
}

// cursor walks the operators of one kind in key order.
type cursor struct {
	ops  []opNode
	kind dfg.Kind
}

// cursor returns a cursor before the first operator of kind.
func (pi *placeInfo) cursor(kind dfg.Kind) *cursor {
	i, _ := slices.BinarySearchFunc(pi.ops, opKey{kind, math.MinInt32, 0}, opNode.compare)
	return &cursor{pi.ops[i:], kind}
}

// upTo returns the operators keyed before (stmt, t) and those keyed at
// it, and moves past both.
func (c *cursor) upTo(stmt, t int32) (before, at []opNode) {
	k, i := opKey{c.kind, stmt, t}, 0
	for i < len(c.ops) && c.ops[i].compare(k) < 0 {
		i++
	}
	j := i
	for j < len(c.ops) && c.ops[j].opKey == k {
		j++
	}
	before, at, c.ops = c.ops[:i], c.ops[i:j], c.ops[j:]
	return before, at
}

// rest returns the operators c has not passed.
func (c *cursor) rest() []opNode {
	before, _ := c.upTo(math.MaxInt32, 0)
	return before
}

func isFork(g *cfg.Graph, id int) bool {
	return id >= 0 && id < g.Len() && g.Nodes[id].Kind == cfg.KindFork
}

func recomputePlacement(res *translate.Result) *placeInfo {
	pi := &placeInfo{needEntries: res.Plan.Need().Entries()}
	if sc := res.Options.Schema; sc == translate.Schema2Opt || sc == translate.Schema3Opt {
		pi.plan, pi.err = res.Plan.PlaceWith(analysis.ByIteratedCD)
		return pi
	}
	// The contract of the unoptimized schemas is the translator's own
	// placement, every token at every fork; a copy keeps vet's work
	// counts its own.
	plan := *res.Plan
	plan.Work = analysis.Work{}
	pi.plan = &plan
	return pi
}

// MinimalPlacement recomputes the §4-optimized switch placement for res
// whatever its schema: the forks that genuinely need each token routed
// (Corollary 1 plus loop circulation needs). It is both the optimizer's
// sinking criterion (internal/opt removes a switch only where this
// placement has no entry) and the verifier's test of a switch absent from
// an edited graph (Theorem 1: the absence is sound iff this placement has
// no entry for the slot). Both sides call this one function, so neither
// checks the other: the independent cross-check is against the
// translator's own placement, the Figure 10 worklist
// (analysis.Figure10), whose switches the switch-placement pass diffs
// against this recomputation by iterated control dependence.
func MinimalPlacement(res *translate.Result) (*analysis.Placement, error) {
	if res == nil || res.Plan == nil {
		return nil, fmt.Errorf("vet: no translation metadata to recompute placement from")
	}
	pl, err := res.Plan.PlaceWith(analysis.ByIteratedCD)
	if err != nil {
		return nil, err
	}
	return pl.Placement, nil
}

// passSwitchPlacement diffs the switches the translator emitted against
// the independently recomputed placement. The comparison is keyed by
// (originating fork, token) via the nodes' Stmt provenance:
//
//   - a missing switch is unsound where the minimal placement requires it
//     (Theorem 1: the fork is in CD+ of a node referencing the token, so
//     the token MUST be routed by the branch — unrouted it arrives on an
//     untaken path and breaks determinacy). Where it does not, the
//     absence is sound: an edit pass (res.Opt set) may have removed the
//     switch with its merge. On a graph no pass edited it still breaks
//     the schema contract, and is an error;
//   - a redundant switch is legal but a missed §4 optimization (warning,
//     suppressed for the unoptimized schemas whose contract IS "a switch
//     at every fork for every token");
//   - a duplicated switch delivers two tokens per predicate evaluation.
func passSwitchPlacement(u *Unit) ([]Diagnostic, string) {
	if !u.hasMeta() {
		return nil, noMetaReason
	}
	pi := u.placementInfo()
	if pi.err != nil {
		return []Diagnostic{errorOf(machcheck.InvalidConfig, -1, "", "%v", pi.err)}, ""
	}
	g := u.Res.CFG

	// An absent slot is required where the minimal placement has it: the
	// contract itself under the optimized schemas, recomputed otherwise.
	// Should that fail, every contract slot counts as required.
	place := pi.plan.Placement
	minimal := place
	if sc := u.Res.Options.Schema; pi.held != pi.plan && sc != translate.Schema2Opt && sc != translate.Schema3Opt {
		if m, err := MinimalPlacement(u.Res); err == nil {
			minimal = m
		}
	}

	var ds []Diagnostic
	stray := func(ops []opNode) {
		for _, o := range ops {
			if tok := u.G.Name(u.G.Nodes[o.node].Tok); !isFork(g, int(o.stmt)) {
				ds = append(ds, errorOf(machcheck.Determinacy, int(o.node), tok, "switch has no originating fork (stmt %d)", o.stmt))
			} else {
				ds = append(ds, Diagnostic{
					Severity: SevWarning, Node: int(o.node), Tok: tok,
					Msg: fmt.Sprintf("redundant switch: fork %s is not in CD+ of any node referencing token %s (missed §4 optimization)", g.Nodes[o.stmt], tok),
				})
			}
		}
	}
	switches := pi.cursor(dfg.Switch)
	for f, row := range place.Needs {
		if !isFork(g, f) {
			continue
		}
		for _, t := range row {
			tok := place.Universe[t]
			before, ids := switches.upTo(int32(f), t)
			stray(before)
			switch {
			case len(ids) == 0 && minimal.NeedsSwitch(f, tok):
				ds = append(ds, errorOf(machcheck.Determinacy, -1, tok, "missing switch for token %s at fork %s: the fork is in CD+ of a node referencing it, so the token must be branch-routed", tok, g.Nodes[f]))
			case len(ids) == 0 && u.Res.Opt == nil:
				ds = append(ds, errorOf(machcheck.InvalidConfig, -1, tok, "missing switch for token %s at fork %s: the schema contract places one there, and no edit pass ran to remove it", tok, g.Nodes[f]))
			case len(ids) > 1:
				ds = append(ds, errorOf(machcheck.TagViolation, int(ids[1].node), tok, "token %s is switched %d times at fork %s: want exactly one switch", tok, len(ids), g.Nodes[f]))
			}
		}
	}
	stray(switches.rest())
	return ds, ""
}

// passSourceVectors recomputes the Figure 11 source vectors under the
// switches the graph holds and judges each merge by its arcs (row, arcs,
// fold). A row with several sources must hold one merge or be folded into
// one, and a merge needs a row with several sources. The loop entry/exit
// operators are checked against the circulating-token sets on the way.
func passSourceVectors(u *Unit) ([]Diagnostic, string) {
	if !u.hasMeta() {
		return nil, noMetaReason
	}
	pi := u.placementInfo()
	if pi.err != nil {
		return nil, "placement recomputation failed: " + pi.err.Error()
	}
	sv, err := pi.held.SourceVectors()
	if err != nil {
		return []Diagnostic{errorOf(machcheck.InvalidConfig, -1, "", "source-vector recomputation failed: %v", err)}, ""
	}
	u.work.SVCells = pi.held.Work.Cells
	j := &judge{u: u, pi: pi, sv: sv, merges: pi.cursor(dfg.Merge)}
	entries, exits := pi.cursor(dfg.LoopEntry), pi.cursor(dfg.LoopExit)
	g := u.Res.CFG
	for id := range g.Nodes {
		switch g.Nodes[id].Kind {
		case cfg.KindJoin, cfg.KindEnd:
			j.toks = sv.Merges(id, j.toks[:0])
			for _, t := range j.toks {
				j.row(int32(id), t, sv.Sources(id, t), nil)
			}
		case cfg.KindLoopEntry:
			for _, t := range sv.LoopNeed(id) {
				j.row(int32(id), t, sv.Sources(id, t), sv.BackSources(id, t))
				j.circulates("entry", entries, id, t)
			}
		case cfg.KindLoopExit:
			for _, t := range sv.LoopNeed(id) {
				j.circulates("exit", exits, id, t)
			}
		}
	}
	j.redundant(j.merges.rest())
	j.stray("entry", entries.rest())
	j.stray("exit", exits.rest())
	slices.Sort(j.folded)
	for _, k := range j.empty {
		if _, ok := slices.BinarySearch(j.folded, k); !ok {
			tok := sv.Universe[uint32(k)]
			j.ds = append(j.ds, errorOf(machcheck.TagViolation, -1, tok, "missing merge for token %s at %s: |SV| > 1, so several sources would collide on one port", tok, stmtLabel(g, int(k>>32))))
		}
	}
	u.work.MergeArms = j.arms
	return j.ds, ""
}

// judge is the state of the source-vectors pass. Its scratch is reused
// from merge to merge: the arm keys of a merge's producers and sources, a
// join's merging tokens, and (by slotKey) the rows holding no merge and
// the joins folded into one.
type judge struct {
	u             *Unit
	pi            *placeInfo
	sv            *analysis.SourceVectors
	merges        *cursor
	have, want    []int64
	toks          []int32
	empty, folded []uint64
	arms          int // the merge arms judged
	ds            []Diagnostic
}

func slotKey(stmt, t int32) uint64 { return uint64(uint32(stmt))<<32 | uint64(uint32(t)) }

// arm keys a producer or a source: its statement, and whether it is the
// false arm of a fork — for a producer, port 1 of a switch.
func arm(stmt int32, falseArm bool) int64 {
	if falseArm {
		return 2*int64(stmt) + 1
	}
	return 2 * int64(stmt)
}

// producer returns the arm key of arc a's producer among nodes.
func producer(nodes []*dfg.Node, a dfg.Arc) int64 {
	return arm(nodes[a.From].Stmt, nodes[a.From].Kind == dfg.Switch && a.FromPort == 1)
}

// row judges the merges of token t at statement stmt: a merge is on the
// back row of stmt's loop entry when it feeds the entry's back port, on
// the front row otherwise, and the rows have the sources given (back nil
// but at a loop entry). The merges the cursor passes on the way are on
// rows with one source.
func (j *judge) row(stmt, t int32, front, back []analysis.Source) {
	before, at := j.merges.upTo(stmt, t)
	j.redundant(before)
	var held [2]int // merges on the front and the back row
	for _, m := range at {
		r, srcs := 0, front
		if outs := j.u.Out(m.node, 0); len(outs) > 0 {
			if a := j.u.G.Arcs[outs[0]]; a.ToPort == 1 && j.u.G.Nodes[a.To].Kind == dfg.LoopEntry && j.u.G.Nodes[a.To].Stmt == stmt {
				r, srcs = 1, back
			}
		}
		if held[r]++; len(srcs) < 2 || held[r] > 1 {
			j.redundant([]opNode{m})
		} else {
			j.arcs(m.node, t, srcs)
		}
	}
	if len(front) > 1 && held[0] == 0 || len(back) > 1 && held[1] == 0 {
		j.empty = append(j.empty, slotKey(stmt, t))
	}
}

// arcs judges merge m of token t by its arms: their producers must be the
// row's sources srcs, as a multiset (arm, fold). A token carrying its
// variable's value (§6.1) is judged by its arm count alone: a read does
// not regenerate it, so its producers are not the sources Figure 11 names.
func (j *judge) arcs(m, t int32, srcs []analysis.Source) {
	j.have, j.want = j.have[:0], j.fold(j.want[:0], t, srcs)
	for _, a := range j.u.In(m, 0) {
		j.have = append(j.have, producer(j.u.G.Nodes, j.u.G.Arcs[a]))
	}
	j.arms += len(j.have)
	tok := j.sv.Universe[t]
	same := len(j.have) == len(j.want)
	if j.u.Res.ValueTokens[tok] == "" {
		slices.Sort(j.have)
		slices.Sort(j.want)
		same = slices.Equal(j.have, j.want)
	}
	if !same {
		j.ds = append(j.ds, errorOf(machcheck.TagViolation, int(m), tok, "merge for token %s at %s takes arms from %s, but its sources are %s", tok, stmtLabel(j.u.Res.CFG, int(j.u.G.Nodes[m].Stmt)), arms(j.have), arms(j.want)))
	}
}

// fold appends the arm keys of srcs, of token t, to keys. A join holding
// no merge for t, as merge collapsing leaves it, stands for its own
// sources, and is recorded as folded into the merge judged.
func (j *judge) fold(keys []int64, t int32, srcs []analysis.Source) []int64 {
	for _, s := range srcs {
		if j.u.Res.CFG.Nodes[s.Node].Kind != cfg.KindJoin || len(j.pi.at(dfg.Merge, s.Node, t)) > 0 {
			keys = append(keys, arm(s.Node, !s.Dir))
			continue
		}
		j.folded = append(j.folded, slotKey(s.Node, t))
		keys = j.fold(keys, t, j.sv.Sources(int(s.Node), t))
	}
	return keys
}

// redundant reports the merges ms as ones their rows do not want.
func (j *judge) redundant(ms []opNode) {
	for _, m := range ms {
		tok := j.u.G.Name(j.u.G.Nodes[m.node].Tok)
		j.ds = append(j.ds, errorOf(machcheck.InvalidConfig, int(m.node), tok, "redundant merge for token %s at %s: its row has a single source, or another merge", tok, stmtLabel(j.u.Res.CFG, int(m.stmt))))
	}
}

// circulates checks that loop cursor c holds one operator of token t at
// id (§3's tag discipline: exactly the circulated tokens get fresh
// iteration tags); those it passes circulate a token their loop does not.
func (j *judge) circulates(kind string, c *cursor, id int, t int32) {
	before, at := c.upTo(int32(id), t)
	if j.stray(kind, before); len(at) != 1 {
		tok := j.sv.Universe[t]
		j.ds = append(j.ds, errorOf(machcheck.TagViolation, -1, tok, "loop %s at %s must circulate token %s exactly once: found %d operators", kind, stmtLabel(j.u.Res.CFG, id), tok, len(at)))
	}
}

func (j *judge) stray(kind string, ops []opNode) {
	for _, o := range ops {
		tok := j.u.G.Name(j.u.G.Nodes[o.node].Tok)
		j.ds = append(j.ds, errorOf(machcheck.TagViolation, -1, tok, "loop %s operator for token %s at %s, but the loop does not circulate that token", kind, tok, stmtLabel(j.u.Res.CFG, int(o.stmt))))
	}
}

// arms renders sorted arm keys.
func arms(keys []int64) string {
	s := make([]string, len(keys))
	for i, k := range keys {
		if s[i] = fmt.Sprintf("n%d", k>>1); k&1 != 0 {
			s[i] += "/f"
		}
	}
	return fmt.Sprint(s)
}

func stmtLabel(g *cfg.Graph, stmt int) string {
	if stmt >= 0 && stmt < g.Len() {
		return g.Nodes[stmt].String()
	}
	return fmt.Sprintf("stmt %d", stmt)
}
