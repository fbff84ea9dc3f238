package vet

import (
	"cmp"
	"fmt"
	"slices"

	"ctdf/internal/analysis"
	"ctdf/internal/cfg"
	"ctdf/internal/dfg"
	"ctdf/internal/machcheck"
	"ctdf/internal/translate"
)

// slot keys graph operators by provenance: the originating CFG statement
// and the number of the access token served.
type slot struct{ stmt, tok int32 }

// tokNumbers returns, per token of g's table (NoName first), its position
// in the sorted universe known, or -1 where known has no such name.
func tokNumbers(g *dfg.Graph, known []string) []int32 {
	nums := make([]int32, len(g.Names)+1)
	for tok := range nums {
		t, ok := slices.BinarySearch(known, g.Name(int32(tok)))
		nums[tok] = int32(t)
		if !ok {
			nums[tok] = -1
		}
	}
	return nums
}

// slotNames numbers a graph's tokens as the recomputed plan does, by
// their position in its sorted universe (known), and a token the plan
// does not know (a mutated or hand-written graph's) after them, in the
// order met.
type slotNames struct {
	g     *dfg.Graph
	known []string
	nums  []int32 // per graph token, its number once met (tokNumbers)
	names []string
}

func newSlotNames(g *dfg.Graph, known []string) *slotNames {
	return &slotNames{g: g, known: known, nums: tokNumbers(g, known)}
}

func (s *slotNames) slot(stmt, tok int32) slot {
	if s.nums[tok] < 0 {
		s.nums[tok] = int32(len(s.known) + len(s.names))
		s.names = append(s.names, s.g.Name(tok))
	}
	return slot{stmt, s.nums[tok]}
}

func (s *slotNames) name(t int32) string {
	if int(t) < len(s.known) {
		return s.known[t]
	}
	return s.names[int(t)-len(s.known)]
}

func sortedSlots[T any](m map[slot]T) []slot {
	out := make([]slot, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.SortFunc(out, func(a, b slot) int { return cmp.Or(cmp.Compare(a.stmt, b.stmt), cmp.Compare(a.tok, b.tok)) })
	return out
}

// placeInfo is the independently recomputed translation plan the
// validation passes diff the graph against: the switch placement and the
// per-loop circulating token sets, on the plan's token numbers.
type placeInfo struct {
	plan        *analysis.Plan
	err         error
	needEntries int // the entries of the need rows the plan read

	// switches lists the graph's switches by (fork, token number), then
	// node id (switchesAt reads it); held is plan without the slots that
	// hold none — plan itself when all do.
	switches []slotNode
	held     *analysis.Plan
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
			u.place.indexSwitches(u.G, u.Res.CFG)
		}
	})
	return u.place
}

// indexSwitches fills switches and held from g. Placement marks start
// too (the conventional start→end edge makes it a fork for CD purposes),
// but the builder gives start no switch.
func (pi *placeInfo) indexSwitches(g *dfg.Graph, c *cfg.Graph) {
	nums := tokNumbers(g, pi.plan.Placement.Universe)
	for _, n := range g.Nodes {
		if n.Kind != dfg.Switch {
			continue
		}
		if t := nums[n.Tok]; t >= 0 {
			pi.switches = append(pi.switches, slotNode{slotKey(int(n.Stmt), int(t)), int(n.ID)})
		}
	}
	slices.SortFunc(pi.switches, func(a, b slotNode) int { return cmp.Or(cmp.Compare(a.slot, b.slot), cmp.Compare(a.node, b.node)) })
	pi.held = pi.plan.Without(func(f, t int) bool {
		return isFork(c, f) && len(pi.switchesAt(f, t)) == 0
	})
}

// slotNode is a node under its slot's key (slotKey).
type slotNode struct {
	slot uint64
	node int
}

// slotKey orders slots by statement, then token number.
func slotKey(stmt, tok int) uint64 { return uint64(uint32(stmt))<<32 | uint64(uint32(tok)) }

// switchesAt returns the switches of slot (fork, token number), by node
// id.
func (pi *placeInfo) switchesAt(f, t int) []slotNode {
	k := slotKey(f, t)
	lo, _ := slices.BinarySearchFunc(pi.switches, k, func(s slotNode, k uint64) int { return cmp.Compare(s.slot, k) })
	hi := lo
	for hi < len(pi.switches) && pi.switches[hi].slot == k {
		hi++
	}
	return pi.switches[lo:hi]
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
		return []Diagnostic{{Severity: SevError, Check: machcheck.InvalidConfig, Node: -1, Msg: pi.err.Error()}}, ""
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
	for f, row := range place.Needs {
		if !isFork(g, f) {
			continue
		}
		for _, t := range row {
			tok := place.Universe[t]
			switch ids := pi.switchesAt(f, int(t)); {
			case len(ids) == 0 && minimal.NeedsSwitch(f, tok):
				ds = append(ds, Diagnostic{
					Severity: SevError, Check: machcheck.Determinacy, Node: -1, Tok: tok,
					Msg: fmt.Sprintf("missing switch for token %s at fork %s: the fork is in CD+ of a node referencing it, so the token must be branch-routed", tok, g.Nodes[f]),
				})
			case len(ids) == 0 && u.Res.Opt == nil:
				ds = append(ds, Diagnostic{
					Severity: SevError, Check: machcheck.InvalidConfig, Node: -1, Tok: tok,
					Msg: fmt.Sprintf("missing switch for token %s at fork %s: the schema contract places one there, and no edit pass ran to remove it", tok, g.Nodes[f]),
				})
			case len(ids) > 1:
				ds = append(ds, Diagnostic{
					Severity: SevError, Check: machcheck.TagViolation, Node: ids[1].node, Tok: tok,
					Msg: fmt.Sprintf("token %s is switched %d times at fork %s: want exactly one switch", tok, len(ids), g.Nodes[f]),
				})
			}
		}
	}
	for _, n := range u.G.Nodes {
		stmt, tok := int(n.Stmt), u.G.Name(n.Tok)
		if n.Kind != dfg.Switch || (isFork(g, stmt) && place.NeedsSwitch(stmt, tok)) {
			continue
		}
		if !isFork(g, stmt) {
			ds = append(ds, Diagnostic{
				Severity: SevError, Check: machcheck.Determinacy, Node: int(n.ID), Tok: tok,
				Msg: fmt.Sprintf("switch has no originating fork (stmt %d)", n.Stmt),
			})
			continue
		}
		ds = append(ds, Diagnostic{
			Severity: SevWarning, Node: int(n.ID), Tok: tok,
			Msg: fmt.Sprintf("redundant switch: fork %s is not in CD+ of any node referencing token %s (missed §4 optimization)", g.Nodes[stmt], tok),
		})
	}
	return ds, ""
}

// passSourceVectors recomputes the Figure 11 source vectors under the
// switches the graph holds and checks the merge set: a dataflow merge
// exists exactly where a token has more than one source — at joins and
// end, and at the initial and back ports of the loop entries of the
// tokens each loop circulates. A merge the vectors do not expect means
// the graph and this second computation of Figure 11 disagree, and is an
// error as a missing one is. The one accepted shortfall is the shape
// merge collapsing leaves: a join with no merge whose token feeds a merge
// slot of the same token that holds one, directly or through a chain of
// such joins (determinacy judges where the arms landed). The same vectors
// check the loop entry/exit operator sets against the circulating-token
// sets.
func passSourceVectors(u *Unit) ([]Diagnostic, string) {
	if !u.hasMeta() {
		return nil, noMetaReason
	}
	pi := u.placementInfo()
	if pi.err != nil {
		return nil, "placement recomputation failed: " + pi.err.Error()
	}
	g := u.Res.CFG
	sv, err := pi.held.SourceVectors()
	if err != nil {
		return []Diagnostic{{Severity: SevError, Check: machcheck.InvalidConfig, Node: -1,
			Msg: "source-vector recomputation failed: " + err.Error()}}, ""
	}
	u.work.SVCells = pi.held.Work.Cells
	names := newSlotNames(u.G, sv.Universe)

	expected := map[slot]int{}
	for id := range g.Nodes {
		switch g.Nodes[id].Kind {
		case cfg.KindJoin, cfg.KindEnd:
			for _, t := range sv.Merges(id, nil) {
				expected[slot{int32(id), t}]++
			}
		case cfg.KindLoopEntry:
			for _, t := range sv.LoopNeed(id) {
				if len(sv.Sources(id, t)) > 1 {
					expected[slot{int32(id), t}]++
				}
				if len(sv.BackSources(id, t)) > 1 {
					expected[slot{int32(id), t}]++
				}
			}
		}
	}
	actual := map[slot]int{}
	for _, n := range u.G.Nodes {
		if n.Kind == dfg.Merge {
			actual[names.slot(n.Stmt, n.Tok)]++
		}
	}
	// collapsed reports whether slot k, holding no merge, is a join whose
	// token feeds a merge slot that holds one, directly or through joins
	// holding none either. Its index of which slot each join feeds is
	// built at the first shortfall.
	var feeds map[slot]slot
	collapsed := func(k slot) bool {
		if feeds == nil {
			feeds = map[slot]slot{}
			for s := range expected {
				for _, srcs := range [...][]analysis.Source{sv.Sources(int(s.stmt), s.tok), sv.BackSources(int(s.stmt), s.tok)} {
					for _, src := range srcs {
						if len(srcs) > 1 && g.Nodes[src.Node].Kind == cfg.KindJoin {
							feeds[slot{src.Node, s.tok}] = s
						}
					}
				}
			}
		}
		for range len(feeds) {
			next, ok := feeds[k]
			if !ok || actual[next] > 0 {
				return ok
			}
			k = next
		}
		return false
	}
	var ds []Diagnostic
	keys := map[slot]bool{}
	for k := range expected {
		keys[k] = true
	}
	for k := range actual {
		keys[k] = true
	}
	for _, k := range sortedSlots(keys) {
		want, got, tok, stmt := expected[k], actual[k], names.name(k.tok), int(k.stmt)
		switch {
		case got < want && (got > 0 || !collapsed(k)):
			ds = append(ds, Diagnostic{
				Severity: SevError, Check: machcheck.TagViolation, Node: -1, Tok: tok,
				Msg: fmt.Sprintf("missing merge for token %s at %s: |SV| > 1, so several sources would collide on one port (want %d merges, found %d)", tok, stmtLabel(g, stmt), want, got),
			})
		case got > want:
			ds = append(ds, Diagnostic{
				Severity: SevError, Check: machcheck.InvalidConfig, Node: mergeNodeAt(u, stmt, tok), Tok: tok,
				Msg: fmt.Sprintf("redundant merge for token %s at %s: the source vector has a single element (want %d merges, found %d)", tok, stmtLabel(g, stmt), want, got),
			})
		}
	}

	// Loop circulation: one entry and one exit operator per circulated
	// token, none for bypassing tokens.
	ds = append(ds, checkLoopCirculation(u, sv, names)...)
	return ds, ""
}

// checkLoopCirculation diffs the loop entry/exit operators against the
// recomputed per-loop circulating token sets (§3's tag discipline: exactly
// the circulated tokens get fresh iteration tags).
func checkLoopCirculation(u *Unit, sv *analysis.SourceVectors, names *slotNames) []Diagnostic {
	g := u.Res.CFG
	count := func(kind dfg.Kind) map[slot]int {
		m := map[slot]int{}
		for _, n := range u.G.Nodes {
			if n.Kind == kind {
				m[names.slot(n.Stmt, n.Tok)]++
			}
		}
		return m
	}
	entries, exits := count(dfg.LoopEntry), count(dfg.LoopExit)
	var ds []Diagnostic
	check := func(kind string, stmt int, actual map[slot]int) {
		for _, t := range sv.LoopNeed(stmt) {
			k, tok := slot{int32(stmt), t}, sv.Universe[t]
			if actual[k] != 1 {
				ds = append(ds, Diagnostic{
					Severity: SevError, Check: machcheck.TagViolation, Node: -1, Tok: tok,
					Msg: fmt.Sprintf("loop %s at %s must circulate token %s exactly once: found %d operators", kind, stmtLabel(g, stmt), tok, actual[k]),
				})
			}
			delete(actual, k)
		}
	}
	for id := range g.Nodes {
		switch g.Nodes[id].Kind {
		case cfg.KindLoopEntry:
			check("entry", id, entries)
		case cfg.KindLoopExit:
			check("exit", id, exits)
		}
	}
	stray := func(kind string, left map[slot]int) {
		for _, k := range sortedSlots(left) {
			tok := names.name(k.tok)
			ds = append(ds, Diagnostic{
				Severity: SevError, Check: machcheck.TagViolation, Node: -1, Tok: tok,
				Msg: fmt.Sprintf("loop %s operator for token %s at %s, but the loop does not circulate that token", kind, tok, stmtLabel(g, int(k.stmt))),
			})
		}
	}
	stray("entry", entries)
	stray("exit", exits)
	return ds
}

func stmtLabel(g *cfg.Graph, stmt int) string {
	if stmt >= 0 && stmt < g.Len() {
		return g.Nodes[stmt].String()
	}
	return fmt.Sprintf("stmt %d", stmt)
}

// mergeNodeAt finds a merge node with the given provenance, for anchoring
// a diagnostic; -1 when none exists.
func mergeNodeAt(u *Unit, stmt int, tok string) int {
	for _, n := range u.G.Nodes {
		if n.Kind == dfg.Merge && int(n.Stmt) == stmt && u.G.Name(n.Tok) == tok {
			return int(n.ID)
		}
	}
	return -1
}
