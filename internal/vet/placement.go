package vet

import (
	"fmt"
	"maps"
	"sort"

	"ctdf/internal/analysis"
	"ctdf/internal/cfg"
	"ctdf/internal/dfg"
	"ctdf/internal/machcheck"
	"ctdf/internal/translate"
)

// stmtTok keys graph operators by provenance: the originating CFG
// statement and the access token served.
type stmtTok struct {
	stmt int
	tok  string
}

func sortedSlots[T any](m map[stmtTok]T) []stmtTok {
	out := make([]stmtTok, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].stmt != out[j].stmt {
			return out[i].stmt < out[j].stmt
		}
		return out[i].tok < out[j].tok
	})
	return out
}

// placeInfo is the independently recomputed translation plan the
// validation passes diff the graph against: the extended need function,
// the switch placement, and the per-loop circulating token sets.
type placeInfo struct {
	need     analysis.NeedFunc
	place    *analysis.Placement
	loopNeed map[int]map[string]bool
	err      error

	// switches indexes the graph's switches by (fork, token); held is
	// place without the slots that hold none — place itself when all do.
	switches map[stmtTok][]int
	held     *analysis.Placement
}

// placementInfo recomputes switch placement from first principles —
// CD+ closures (analysis.PlaceByIteratedCD, Definition 5), not the Figure 10
// worklist the translator itself ran — so agreement between the two is a
// genuine cross-check, iterated with loop needs by the fixpoint the
// translator runs too (analysis.PlaceWithLoopControl). Cached per Unit.
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
	pi.switches = map[stmtTok][]int{}
	for _, n := range g.Nodes {
		if n.Kind == dfg.Switch {
			k := stmtTok{n.Stmt, n.Tok}
			pi.switches[k] = append(pi.switches[k], n.ID)
		}
	}
	pi.held = pi.place
	for f, toks := range pi.place.Needs {
		for tok := range toks {
			if !isFork(c, f) || len(pi.switches[stmtTok{f, tok}]) > 0 {
				continue
			}
			if pi.held == pi.place {
				pi.held = &analysis.Placement{Needs: map[int]map[string]bool{}}
				for id, set := range pi.place.Needs {
					pi.held.Needs[id] = maps.Clone(set)
				}
			}
			delete(pi.held.Needs[f], tok)
		}
	}
}

func isFork(g *cfg.Graph, id int) bool {
	return id >= 0 && id < g.Len() && g.Nodes[id].Kind == cfg.KindFork
}

func recomputePlacement(res *translate.Result) *placeInfo {
	base := baseNeed(res)
	if sc := res.Options.Schema; sc == translate.Schema2Opt || sc == translate.Schema3Opt {
		return minimalFixpoint(res, base)
	}
	place := analysis.AllSwitches(res.CFG, res.Universe)
	return &placeInfo{need: base, place: place, loopNeed: analysis.LoopNeeds(res.CFG, res.Loops, base, place)}
}

// minimalFixpoint computes the §4-optimized placement — CD+ closures
// iterated with loop needs to their fixpoint — regardless of the schema
// the graph was built under.
func minimalFixpoint(res *translate.Result, base analysis.NeedFunc) *placeInfo {
	pi := &placeInfo{}
	pi.need, pi.place, pi.loopNeed, pi.err = analysis.PlaceWithLoopControl(res.CFG, res.Loops, base, analysis.PlaceByIteratedCD)
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
// (analysis.PlaceSwitches), whose switches the switch-placement pass
// diffs against this recomputation by iterated control dependence.
func MinimalPlacement(res *translate.Result) (*analysis.Placement, error) {
	if res == nil || res.CFG == nil || res.TokensOf == nil {
		return nil, fmt.Errorf("vet: no translation metadata to recompute placement from")
	}
	pi := minimalFixpoint(res, baseNeed(res))
	if pi.err != nil {
		return nil, pi.err
	}
	return pi.place, nil
}

// baseNeed mirrors the translator's need derivation: a node needs the
// union of the token sets of the variables it references (I-structure
// arrays have none), plus the completion token of any §6.3-parallelized
// store it carries.
func baseNeed(res *translate.Result) analysis.NeedFunc {
	istructs := map[string]bool{}
	for _, a := range res.IStructures {
		istructs[a] = true
	}
	doneAt := map[int][]string{}
	for _, ps := range res.ParallelStores {
		doneAt[ps.StoreStmt] = append(doneAt[ps.StoreStmt], ps.DoneToken())
	}
	// Worked out once per node: the placement fixpoint asks again on
	// every round.
	needs := make([][]string, res.CFG.Len())
	for id := range needs {
		set := map[string]bool{}
		for v := range res.CFG.Refs(id) {
			if istructs[v] {
				continue
			}
			for _, tok := range res.TokensOf[v] {
				set[tok] = true
			}
		}
		for _, tok := range doneAt[id] {
			set[tok] = true
		}
		needs[id] = sortedKeys(set)
	}
	return func(id int) []string { return needs[id] }
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
	minimal := pi.place
	if sc := u.Res.Options.Schema; pi.held != pi.place && sc != translate.Schema2Opt && sc != translate.Schema3Opt {
		if m, err := MinimalPlacement(u.Res); err == nil {
			minimal = m
		}
	}

	var ds []Diagnostic
	for _, f := range sortedIntKeys(pi.place.Needs) {
		if !isFork(g, f) {
			continue
		}
		for _, tok := range sortedKeys(pi.place.Needs[f]) {
			switch ids := pi.switches[stmtTok{f, tok}]; {
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
					Severity: SevError, Check: machcheck.TagViolation, Node: ids[1], Tok: tok,
					Msg: fmt.Sprintf("token %s is switched %d times at fork %s: want exactly one switch", tok, len(ids), g.Nodes[f]),
				})
			}
		}
	}
	for _, n := range u.G.Nodes {
		if n.Kind != dfg.Switch || (isFork(g, n.Stmt) && pi.place.NeedsSwitch(n.Stmt, n.Tok)) {
			continue
		}
		if !isFork(g, n.Stmt) {
			ds = append(ds, Diagnostic{
				Severity: SevError, Check: machcheck.Determinacy, Node: n.ID, Tok: n.Tok,
				Msg: fmt.Sprintf("switch has no originating fork (stmt %d)", n.Stmt),
			})
			continue
		}
		ds = append(ds, Diagnostic{
			Severity: SevWarning, Node: n.ID, Tok: n.Tok,
			Msg: fmt.Sprintf("redundant switch: fork %s is not in CD+ of any node referencing token %s (missed §4 optimization)", g.Nodes[n.Stmt], n.Tok),
		})
	}
	return ds, ""
}

// passSourceVectors recomputes the Figure 11 source vectors under the
// switches the graph holds and checks the merge set: a dataflow merge
// exists exactly where a token has more than one source — at joins and
// end, and at the initial and back ports of the loop entries of the
// tokens each loop circulates. The one accepted shortfall is the shape
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
	res := u.Res
	g := res.CFG
	sv, err := analysis.ComputeSourceVectors(g, res.Loops, res.Universe, pi.need, pi.held)
	if err != nil {
		return []Diagnostic{{Severity: SevError, Check: machcheck.InvalidConfig, Node: -1,
			Msg: "source-vector recomputation failed: " + err.Error()}}, ""
	}

	expected := map[stmtTok]int{}
	for id := range g.Nodes {
		switch g.Nodes[id].Kind {
		case cfg.KindJoin, cfg.KindEnd:
			for _, tok := range sv.Merges(id, nil) {
				expected[stmtTok{id, tok}]++
			}
		case cfg.KindLoopEntry:
			for tok := range sv.LoopNeed[id] {
				if len(sv.Sources(id, tok)) > 1 {
					expected[stmtTok{id, tok}]++
				}
				if len(sv.BackSources(id, tok)) > 1 {
					expected[stmtTok{id, tok}]++
				}
			}
		}
	}
	actual := map[stmtTok]int{}
	for _, n := range u.G.Nodes {
		if n.Kind == dfg.Merge {
			actual[stmtTok{n.Stmt, n.Tok}]++
		}
	}
	// collapsed reports whether slot k, holding no merge, is a join whose
	// token feeds a merge slot that holds one, directly or through joins
	// holding none either. Its index of which slot each join feeds is
	// built at the first shortfall.
	var feeds map[stmtTok]stmtTok
	collapsed := func(k stmtTok) bool {
		if feeds == nil {
			feeds = map[stmtTok]stmtTok{}
			for slot := range expected {
				for _, srcs := range [...][]analysis.Source{sv.Sources(slot.stmt, slot.tok), sv.BackSources(slot.stmt, slot.tok)} {
					for _, s := range srcs {
						if len(srcs) > 1 && g.Nodes[s.Node].Kind == cfg.KindJoin {
							feeds[stmtTok{int(s.Node), slot.tok}] = slot
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
	keys := map[stmtTok]bool{}
	for k := range expected {
		keys[k] = true
	}
	for k := range actual {
		keys[k] = true
	}
	for _, k := range sortedSlots(keys) {
		want, got := expected[k], actual[k]
		switch {
		case got < want && (got > 0 || !collapsed(k)):
			ds = append(ds, Diagnostic{
				Severity: SevError, Check: machcheck.TagViolation, Node: -1, Tok: k.tok,
				Msg: fmt.Sprintf("missing merge for token %s at %s: |SV| > 1, so several sources would collide on one port (want %d merges, found %d)", k.tok, stmtLabel(g, k.stmt), want, got),
			})
		case got > want:
			ds = append(ds, Diagnostic{
				Severity: SevWarning, Node: mergeNodeAt(u, k.stmt, k.tok), Tok: k.tok,
				Msg: fmt.Sprintf("redundant merge for token %s at %s: the source vector has a single element (want %d merges, found %d)", k.tok, stmtLabel(g, k.stmt), want, got),
			})
		}
	}

	// Loop circulation: one entry and one exit operator per circulated
	// token, none for bypassing tokens.
	ds = append(ds, checkLoopCirculation(u, sv)...)
	return ds, ""
}

// checkLoopCirculation diffs the loop entry/exit operators against the
// recomputed per-loop circulating token sets (§3's tag discipline: exactly
// the circulated tokens get fresh iteration tags).
func checkLoopCirculation(u *Unit, sv *analysis.SourceVectors) []Diagnostic {
	g := u.Res.CFG
	count := func(kind dfg.Kind) map[stmtTok]int {
		m := map[stmtTok]int{}
		for _, n := range u.G.Nodes {
			if n.Kind == kind {
				m[stmtTok{n.Stmt, n.Tok}]++
			}
		}
		return m
	}
	entries, exits := count(dfg.LoopEntry), count(dfg.LoopExit)
	var ds []Diagnostic
	check := func(kind string, stmt int, actual map[stmtTok]int) {
		for _, tok := range sortedKeys(sv.LoopNeed[stmt]) {
			k := stmtTok{stmt, tok}
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
	stray := func(kind string, left map[stmtTok]int) {
		for _, k := range sortedSlots(left) {
			ds = append(ds, Diagnostic{
				Severity: SevError, Check: machcheck.TagViolation, Node: -1, Tok: k.tok,
				Msg: fmt.Sprintf("loop %s operator for token %s at %s, but the loop does not circulate that token", kind, k.tok, stmtLabel(g, k.stmt)),
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
		if n.Kind == dfg.Merge && n.Stmt == stmt && n.Tok == tok {
			return n.ID
		}
	}
	return -1
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedIntKeys(m map[int]map[string]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
