// Package dfg defines the dataflow graph intermediate representation the
// translation schemas produce and the execution engines run: operator
// nodes connected by token-carrying arcs, in the explicit-token-store
// style of paper §2.2 (switch, merge, synch trees, split-phase loads and
// stores that consume and regenerate dummy access tokens, and the loop
// entry/exit operators of §3).
package dfg

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"ctdf/internal/lang"
)

// Kind classifies dataflow operators.
type Kind uint8

// Dataflow operator kinds and their port conventions:
//
//	Start     out 0: one dummy token per arc at program start
//	End       in 0..NIns-1: fires (terminates) when all have arrived
//	Const     in 0: trigger → out 0: the constant Val
//	BinOp     in 0, 1 → out 0
//	UnOp      in 0 → out 0
//	Switch    in 0: data, in 1: control → out 0 (control≠0) / out 1
//	Merge     in 0 (any number of arcs): every token forwarded → out 0
//	Synch     in 0..NIns-1: all required → out 0: dummy
//	Load      in 0: access → out 0: value of Var, out 1: access
//	Store     in 0: value, in 1: access → out 0: access
//	LoadIdx   in 0: index, in 1: access → out 0: value of Var[index], out 1: access
//	StoreIdx  in 0: index, in 1: value, in 2: access → out 0: access
//	LoopEntry in 0: initial, in 1: back (either fires) → out 0, tag pushed/advanced
//	LoopExit  in 0 → out 0, tag popped
//	ILoad     in 0: index → out 0: value of Var[index]; the read defers at
//	          the memory until the cell is written (I-structure, §6.3)
//	IStore    in 0: index, in 1: value → no outputs; writing a full cell
//	          is a write-once violation
//	Apply     procedure call site: in 0..NIns-1: caller access tokens →
//	          out 0..NIns-1: the same tokens at return; out NIns..NOuts-1:
//	          entry arcs into the callee's Param nodes (fired with a fresh
//	          activation frame pushed on the tag)
//	Param     callee-side entry of one access token; in 0 accepts arcs from
//	          every call site (any-arrival) → out 0
//	ProcReturn callee-side exit: in 0..NIns-1 collect the callee's tokens;
//	          firing pops the activation frame and emits on the calling
//	          Apply's return ports (no static outputs)
//	Fused     optimizer-built super-operator: in 0..NIns-1 collect the
//	          external operands of a fused pure expression tree, then the
//	          whole step program (Graph.Fusions) evaluates in one firing
//	          → out 0..NOuts-1 emit the designated step results. Strictly
//	          matched like BinOp; tag-preserving; never touches memory.
const (
	Start Kind = iota
	End
	Const
	BinOp
	UnOp
	Switch
	Merge
	Synch
	Load
	Store
	LoadIdx
	StoreIdx
	LoopEntry
	LoopExit
	ILoad
	IStore
	Apply
	Param
	ProcReturn
	Fused
)

var kindNames = map[Kind]string{
	Start: "start", End: "end", Const: "const", BinOp: "binop", UnOp: "unop",
	Switch: "switch", Merge: "merge", Synch: "synch", Load: "load",
	Store: "store", LoadIdx: "loadidx", StoreIdx: "storeidx",
	LoopEntry: "loop-entry", LoopExit: "loop-exit",
	ILoad: "iload", IStore: "istore",
	Apply: "apply", Param: "param", ProcReturn: "proc-return",
	Fused: "fused",
}

func (k Kind) String() string { return kindNames[k] }

// numOuts returns the number of output ports of each kind; Apply nodes
// carry their own count (see Node.NOuts).
func numOuts(k Kind) int {
	switch k {
	case End, IStore, ProcReturn:
		return 0
	case Switch, Load, LoadIdx:
		return 2
	default:
		return 1
	}
}

// OutPorts returns the node's output port count (Apply and Fused nodes
// carry their own; every other kind derives it from Kind).
func (n *Node) OutPorts() int {
	if n.Kind == Apply || n.Kind == Fused {
		return int(n.NOuts)
	}
	return numOuts(n.Kind)
}

// fixedIns returns the input port count for fixed-arity kinds, or -1 for
// variable arity (End, Synch).
func fixedIns(k Kind) int32 {
	switch k {
	case Start:
		return 0
	case Const, UnOp, Merge, LoopExit, Load, ILoad, Param:
		return 1
	case BinOp, Switch, Store, LoopEntry, LoadIdx, IStore:
		return 2
	case StoreIdx:
		return 3
	default:
		return -1
	}
}

// Node is a dataflow operator: 40 bytes and pointer-free, its ids 32-bit
// and its names numbers in the graph's name table (Graph.Names,
// Graph.Name).
type Node struct {
	Val int64 // Const
	ID  int32
	// Var is the variable or array a memory operator touches, or the
	// procedure of an Apply, Param or ProcReturn; NoName otherwise.
	Var int32
	// Tok is the access token this operator serves (switch/merge/synch/
	// loop control, a procedure's Param); NoName otherwise.
	Tok  int32
	NIns int32 // number of input ports
	// NOuts is the output port count for Apply nodes (return ports then
	// callee-entry ports); other kinds derive it from Kind.
	NOuts int32
	// Stmt is the originating CFG node (provenance), or -1.
	Stmt int32
	Kind Kind
	Op   lang.Op // BinOp, UnOp
}

// NoName is the Var or Tok of a node that names no variable or token.
const NoName int32 = 0

// The firing-rule classes of §2.2 — when an operator is enabled, as
// opposed to what it then computes (interp.Step). Every engine takes them
// from here.

// FiresPerToken reports whether every arriving token fires the node on
// its own: the any-arrival operators (merge, loop entry, param — the
// arrival port is part of the firing) and every operator with at most
// one input. The rest rendezvous all NIns operands under one tag.
func (n *Node) FiresPerToken() bool {
	return n.Kind == Merge || n.Kind == LoopEntry || n.Kind == Param || n.NIns <= 1
}

// MatchSite reports whether token conservation is checked where the
// node's tokens land — a rendezvous of two or more operands, or end — so
// a dropped, duplicated or tag-corrupted token there is provably visible.
func (n *Node) MatchSite() bool {
	return n.Kind == End || (n.NIns >= 2 && !n.FiresPerToken())
}

// SplitPhase reports whether the node is a memory operation, whose
// result returns after the memory latency.
func (n *Node) SplitPhase() bool {
	switch n.Kind {
	case Load, Store, LoadIdx, StoreIdx, ILoad, IStore:
		return true
	}
	return false
}

// Operand references inside a FusedOp step: values ≥ 0 name the result
// of a prior step; values < 0 name an external input port of the fused
// node, encoded as -(port+1).
const fusedInputBias = 1

// FusedInput encodes external input port p as a step operand reference.
func FusedInput(p int32) int32 { return -(p + fusedInputBias) }

// FusedInputPort decodes a reference produced by FusedInput (call only
// when r < 0).
func FusedInputPort(r int32) int32 { return -r - fusedInputBias }

// FusedOp is one step of a fused operator's internal program, 24 bytes.
// Only the pure value kinds appear: Const (consumes its trigger operand
// A, produces Val), UnOp (operand A), BinOp (operands A, B). Operands are
// encoded per FusedInput.
type FusedOp struct {
	Kind Kind
	Op   lang.Op
	Val  int64
	A, B int32
}

// FusedInfo is the side-table entry describing one Fused node (the
// analogue of CallInfo for Apply): the step program evaluated per
// firing, and for each output port the step whose result it emits.
type FusedInfo struct {
	Node  int32
	Steps []FusedOp
	Outs  []int32
}

// Name returns name id of the graph's name table, "" for NoName.
func (g *Graph) Name(id int32) string {
	if id == NoName {
		return ""
	}
	return g.Names[id-1]
}

// Label renders node n of the graph for diagnostics.
func (g *Graph) Label(n *Node) string {
	switch n.Kind {
	case Const:
		return fmt.Sprintf("d%d: const %d", n.ID, n.Val)
	case BinOp, UnOp:
		return fmt.Sprintf("d%d: %s %s", n.ID, n.Kind, n.Op)
	case Load, Store, LoadIdx, StoreIdx, ILoad, IStore, Apply, Param, ProcReturn:
		if n.Tok != NoName {
			return fmt.Sprintf("d%d: %s %s[%s]", n.ID, n.Kind, g.Name(n.Var), g.Name(n.Tok))
		}
		return fmt.Sprintf("d%d: %s %s", n.ID, n.Kind, g.Name(n.Var))
	case Switch, Merge, Synch, LoopEntry, LoopExit:
		if n.Tok != NoName {
			return fmt.Sprintf("d%d: %s[%s]", n.ID, n.Kind, g.Name(n.Tok))
		}
	case Fused:
		return fmt.Sprintf("d%d: fused/%d", n.ID, n.NIns)
	}
	return fmt.Sprintf("d%d: %s", n.ID, n.Kind)
}

// Arc is a token-carrying edge, 20 bytes. Dummy marks access-token
// (synchronization only) arcs — the dotted arcs of the paper's figures.
type Arc struct {
	From     int32
	FromPort int32
	To       int32
	ToPort   int32
	Dummy    bool
}

// CallInfo links one Apply node to its callee's entry/exit structure in a
// linked (separately compiled) graph.
type CallInfo struct {
	// Apply is the call-site node; Proc the callee's name.
	Apply int32
	Proc  string
	// InTokens names the caller-side access tokens, one per Apply
	// input port; return port i signals the same token.
	InTokens []string
	// Params[j] is the callee's Param node for its j-th token. The arc
	// feeding Params[j] leaves Apply output port len(InTokens)+j.
	Params []int32
	// Return is the callee's ProcReturn node.
	Return int32
	// Bindings maps each formal of the callee to the caller-scope name
	// bound at this site.
	Bindings map[string]string
}

// Graph is a dataflow program graph: a flat table of nodes and a flat
// table of arcs, both append-only. Who is wired to whom is read through
// Index.
type Graph struct {
	Nodes []*Node
	Arcs  []Arc
	// Names is the table Node.Var and Node.Tok number from 1: a
	// translated graph's token universe, in the translator's order, then
	// the other names its nodes carry, as first met.
	Names []string

	// Calls holds the call linkage of separately compiled procedures
	// (empty for inlined translations).
	Calls []CallInfo

	// Fusions holds the step programs of Fused nodes, in node-id order
	// (empty for unoptimized translations); OpTable finds a node's.
	Fusions []FusedInfo

	// index and table are the adjacency and the operator table of the
	// graph as it stood when a reader last asked for them (Index,
	// OpTable); valid the size at which it last passed Validate.
	index atomic.Pointer[Index]
	table atomic.Pointer[OpTable]
	valid atomic.Pointer[[4]int]

	StartID int32
	EndID   int32

	// Prog supplies the variable universe for execution (array sizes,
	// alias declarations).
	Prog *lang.Program
}

// NewGraph creates an empty dataflow graph for prog.
func NewGraph(prog *lang.Program) *Graph {
	return &Graph{Prog: prog, StartID: -1, EndID: -1}
}

// Add appends a node, assigning its ID. For variable-arity kinds (End,
// Synch) the caller must set NIns before adding arcs; fixed-arity kinds
// get NIns filled in automatically.
func (g *Graph) Add(n *Node) *Node {
	if fi := fixedIns(n.Kind); fi >= 0 {
		n.NIns = fi
	}
	n.ID = int32(len(g.Nodes))
	g.Nodes = append(g.Nodes, n)
	switch n.Kind {
	case Start:
		g.StartID = n.ID
	case End:
		g.EndID = n.ID
	}
	return n
}

// Connect adds an arc from (from, fromPort) to (to, toPort). The
// endpoints are not checked here: Validate reports an arc that names no
// port, and Index leaves it out.
func (g *Graph) Connect(from, fromPort, to, toPort int32, dummy bool) {
	g.Arcs = appendDoubling(g.Arcs, Arc{From: from, FromPort: fromPort, To: to, ToPort: toPort, Dummy: dummy})
}

// appendDoubling appends v to a node or arc table, doubling a full one:
// append grows a table this long by a quarter at a time, copying it four
// times over on the way to its final length.
func appendDoubling[T any](table []T, v T) []T {
	if len(table) == cap(table) {
		table = slices.Grow(table, max(len(table), 64))
	}
	return append(table, v)
}

// OutArcs returns the ids of the arcs leaving (node, port), in arc order:
// a row of the graph's Index, to be read and not written.
func (g *Graph) OutArcs(node int32, port int) []int32 { return g.Index().Out(node, port) }

// InDegree returns the number of arcs entering (node, port).
func (g *Graph) InDegree(node int32, port int) int { return len(g.Index().In(node, port)) }

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.Nodes) }

// NumArcs returns the arc count.
func (g *Graph) NumArcs() int { return len(g.Arcs) }

// CountKind returns how many nodes have the given kind.
func (g *Graph) CountKind(k Kind) int {
	c := 0
	for _, n := range g.Nodes {
		if n.Kind == k {
			c++
		}
	}
	return c
}

// Stats summarizes graph size for the experiments (§3: the Schema 2 graph
// is O(E·V)).
type Stats struct {
	Nodes    int
	Arcs     int
	Switches int
	Merges   int
	Synchs   int
	Loads    int
	Stores   int
	ByKind   map[Kind]int
}

// Stats computes size statistics.
func (g *Graph) Stats() Stats {
	s := Stats{Nodes: len(g.Nodes), Arcs: len(g.Arcs), ByKind: map[Kind]int{}}
	for _, n := range g.Nodes {
		s.ByKind[n.Kind]++
	}
	s.Switches = s.ByKind[Switch]
	s.Merges = s.ByKind[Merge]
	s.Synchs = s.ByKind[Synch]
	s.Loads = s.ByKind[Load] + s.ByKind[LoadIdx] + s.ByKind[ILoad]
	s.Stores = s.ByKind[Store] + s.ByKind[StoreIdx] + s.ByKind[IStore]
	return s
}

// Validate checks structural sanity: port indices in range, every input
// port of every node fed by exactly one arc (any number for merge port 0
// and at least one for End ports), switches' control ports connected, and
// a start and end node present. Like Index, a graph that passed is not
// checked again until it grows (a node, an arc, a step program or a call
// record): a compile, its verification and every run share one check.
func (g *Graph) Validate() error {
	size := [4]int{len(g.Nodes), len(g.Arcs), len(g.Fusions), len(g.Calls)}
	if v := g.valid.Load(); v != nil && *v == size {
		return nil
	}
	if err := g.validate(); err != nil {
		return err
	}
	g.valid.Store(&size)
	return nil
}

func (g *Graph) validate() error {
	if g.StartID < 0 || g.EndID < 0 {
		return fmt.Errorf("dfg: missing start or end node")
	}
	for _, n := range g.Nodes {
		if uint32(n.Var) > uint32(len(g.Names)) || uint32(n.Tok) > uint32(len(g.Names)) {
			return fmt.Errorf("dfg: d%d names %d and %d in a table of %d", n.ID, n.Var, n.Tok, len(g.Names))
		}
	}
	x := g.Index()
	for ai, a := range g.Arcs {
		if a.From < 0 || int(a.From) >= len(g.Nodes) || a.To < 0 || int(a.To) >= len(g.Nodes) {
			return fmt.Errorf("dfg: arc %+v out of node range", a)
		}
		if a.FromPort < 0 || int(a.FromPort) >= g.Nodes[a.From].OutPorts() {
			return fmt.Errorf("dfg: arc from %s port %d out of range", g.Label(g.Nodes[a.From]), a.FromPort)
		}
		if a.ToPort < 0 || a.ToPort >= g.Nodes[a.To].NIns {
			return fmt.Errorf("dfg: arc into %s port %d out of range (NIns=%d)", g.Label(g.Nodes[a.To]), a.ToPort, g.Nodes[a.To].NIns)
		}
		// Duplicate endpoints would deliver the same token twice (and once
		// delivered twice under one tag, the ETS matching rules of §2.2 are
		// violated); reject them statically. The dummy flag is not part of
		// the endpoint identity. An out-port's arc list is short and in
		// arc order, so the earlier arcs of a's own list are the only
		// possible duplicates.
		for _, bi := range x.Out(a.From, int(a.FromPort)) {
			if int(bi) >= ai {
				break
			}
			if b := g.Arcs[bi]; b.To == a.To && b.ToPort == a.ToPort {
				return fmt.Errorf("dfg: duplicate arc %s port %d → %s port %d", g.Label(g.Nodes[a.From]), a.FromPort, g.Label(g.Nodes[a.To]), a.ToPort)
			}
		}
	}
	for _, n := range g.Nodes {
		// Input arity must match the operator kind: a switch with three
		// inputs or a two-input unary op would silently drop or never match
		// operands at execution time.
		if fi := fixedIns(n.Kind); fi >= 0 && n.NIns != fi {
			return fmt.Errorf("dfg: %s has NIns=%d, kind %s requires %d", g.Label(n), n.NIns, n.Kind, fi)
		}
	}
	for _, n := range g.Nodes {
		for p := 0; p < int(n.NIns); p++ {
			deg := len(x.In(n.ID, p))
			switch {
			case n.Kind == Merge && p == 0:
				if deg < 2 {
					return fmt.Errorf("dfg: %s has %d input arcs; a merge needs at least 2", g.Label(n), deg)
				}
			case n.Kind == End:
				if deg < 1 {
					return fmt.Errorf("dfg: end port %d unconnected", p)
				}
			case n.Kind == Param:
				if deg < 1 {
					return fmt.Errorf("dfg: %s never fed by any call site", g.Label(n))
				}
			default:
				if deg != 1 {
					return fmt.Errorf("dfg: %s input port %d has %d arcs, want exactly 1", g.Label(n), p, deg)
				}
			}
		}
		if n.Kind == Synch && n.NIns < 1 {
			return fmt.Errorf("dfg: %s has no inputs", g.Label(n))
		}
	}
	// Memory operators must name declared storage of the right shape:
	// the engines' stores index by name without rechecking, so a load of
	// an undeclared scalar would fault inside the run instead of here.
	scalars := map[string]bool{}
	arrays := map[string]bool{}
	if g.Prog != nil {
		for _, v := range g.Prog.Vars {
			scalars[v.Name] = true
		}
		for _, a := range g.Prog.Arrays {
			arrays[a.Name] = true
		}
		// Linked graphs carry callee subgraphs whose memory nodes name
		// procedure formals (by-reference scalars, paper §5).
		for _, pr := range g.Prog.Procedures {
			for _, f := range pr.Params {
				scalars[f] = true
			}
		}
		for _, al := range g.Prog.Aliases {
			if !scalars[al.A] && !arrays[al.A] || !scalars[al.B] && !arrays[al.B] {
				return fmt.Errorf("dfg: alias %s ~ %s references an undeclared name", al.A, al.B)
			}
		}
	}
	for _, n := range g.Nodes {
		switch n.Kind {
		case Load, Store:
			if !scalars[g.Name(n.Var)] {
				return fmt.Errorf("dfg: %s references undeclared scalar %q", g.Label(n), g.Name(n.Var))
			}
		case LoadIdx, StoreIdx, ILoad, IStore:
			if !arrays[g.Name(n.Var)] {
				return fmt.Errorf("dfg: %s references undeclared array %q", g.Label(n), g.Name(n.Var))
			}
		}
	}
	return g.validateFusions()
}

// validateFusions checks the Fused side table: every Fused node has a
// step program and vice versa, step operand references are in range and
// acyclic (prior steps only), and the operand count fits the engines'
// 64-bit matching bitmask.
func (g *Graph) validateFusions() error {
	seen := make([]bool, len(g.Nodes))
	for i := range g.Fusions {
		fi := &g.Fusions[i]
		if fi.Node < 0 || int(fi.Node) >= len(g.Nodes) || g.Nodes[fi.Node].Kind != Fused {
			return fmt.Errorf("dfg: fusion entry %d names d%d, which is not a fused node", i, fi.Node)
		}
		if seen[fi.Node] {
			return fmt.Errorf("dfg: duplicate fusion entry for %s", g.Label(g.Nodes[fi.Node]))
		}
		seen[fi.Node] = true
		n := g.Nodes[fi.Node]
		if n.NIns > 64 {
			return fmt.Errorf("dfg: %s has %d inputs; strict matching is limited to 64", g.Label(n), n.NIns)
		}
		if len(fi.Steps) == 0 {
			return fmt.Errorf("dfg: %s has an empty step program", g.Label(n))
		}
		ref := func(step int, r int32) error {
			if r >= 0 {
				if int(r) >= step {
					return fmt.Errorf("dfg: %s step %d references step %d (must be a prior step)", g.Label(n), step, r)
				}
				return nil
			}
			if p := FusedInputPort(r); p < 0 || p >= n.NIns {
				return fmt.Errorf("dfg: %s step %d references input port %d (NIns=%d)", g.Label(n), step, p, n.NIns)
			}
			return nil
		}
		for s, op := range fi.Steps {
			switch op.Kind {
			case Const, UnOp:
				if err := ref(s, op.A); err != nil {
					return err
				}
			case BinOp:
				if err := ref(s, op.A); err != nil {
					return err
				}
				if err := ref(s, op.B); err != nil {
					return err
				}
			default:
				return fmt.Errorf("dfg: %s step %d has kind %s; only const/unop/binop fuse", g.Label(n), s, op.Kind)
			}
		}
		if len(fi.Outs) != int(n.NOuts) || n.NOuts < 1 {
			return fmt.Errorf("dfg: %s emits %d ports but fusion lists %d outs", g.Label(n), n.NOuts, len(fi.Outs))
		}
		for p, s := range fi.Outs {
			if s < 0 || int(s) >= len(fi.Steps) {
				return fmt.Errorf("dfg: %s out port %d names step %d of %d", g.Label(n), p, s, len(fi.Steps))
			}
		}
	}
	for _, n := range g.Nodes {
		if n.Kind == Fused && !seen[n.ID] {
			return fmt.Errorf("dfg: %s has no fusion entry", g.Label(n))
		}
	}
	return nil
}

// DOT renders the dataflow graph in Graphviz format; dummy (access token)
// arcs are dashed, as in the paper's figures.
func (g *Graph) DOT() string {
	var b strings.Builder
	b.WriteString("digraph dfg {\n  node [fontname=\"monospace\"];\n")
	for _, n := range g.Nodes {
		shape := "box"
		switch n.Kind {
		case Switch:
			shape = "invtriangle"
		case Merge:
			shape = "triangle"
		case Synch:
			shape = "house"
		case Start, End:
			shape = "ellipse"
		case LoopEntry, LoopExit:
			shape = "hexagon"
		case Const:
			shape = "plaintext"
		case Fused:
			shape = "box3d"
		}
		fmt.Fprintf(&b, "  d%d [label=%q, shape=%s];\n", n.ID, g.Label(n), shape)
	}
	for _, a := range g.Arcs {
		style := ""
		if a.Dummy {
			style = ", style=dashed"
		}
		fmt.Fprintf(&b, "  d%d -> d%d [label=\"%d→%d\"%s];\n", a.From, a.To, a.FromPort, a.ToPort, style)
	}
	b.WriteString("}\n")
	return b.String()
}

// Meta is the stable, serializable description of one node that the
// observability layer (internal/obs) uses to attribute measurements:
// the node id, its operator kind, the diagnostic label, and — where the
// kind carries them — the scalar operator, the variable or array the
// operation touches, the access token it serves, and the originating
// CFG statement (provenance; -1 when synthetic). Field names are part
// of the NDJSON event-stream format documented in OBSERVABILITY.md.
type Meta struct {
	Node  int    `json:"node"`
	Kind  string `json:"kind"`
	Label string `json:"label"`
	Op    string `json:"op,omitempty"`
	Var   string `json:"var,omitempty"`
	Tok   string `json:"tok,omitempty"`
	Stmt  int    `json:"stmt"`
	Ins   int    `json:"ins"`
}

// Meta returns the per-node attribution metadata, indexed by node id.
func (g *Graph) Meta() []Meta {
	out := make([]Meta, len(g.Nodes))
	for i, n := range g.Nodes {
		m := Meta{Node: int(n.ID), Kind: n.Kind.String(), Label: g.Label(n), Var: g.Name(n.Var), Tok: g.Name(n.Tok), Stmt: int(n.Stmt), Ins: int(n.NIns)}
		if n.Kind == BinOp || n.Kind == UnOp {
			m.Op = n.Op.String()
		}
		out[i] = m
	}
	return out
}
