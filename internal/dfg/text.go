package dfg

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"ctdf/internal/lang"
)

// This file defines a textual format for dataflow program graphs — the
// paper notes "there is no standard textual representation of dataflow
// programs"; this one makes the graphs storable, diffable artifacts and
// doubles as the simulator's loadable "assembly":
//
//	ctdf-dataflow v1
//	var x
//	array a 8
//	alias x z
//	node d0 start
//	node d3 binop op=+
//	node d4 load var=x stmt=2
//	arc d0.0 -> d3.0
//	arc d4.1 -> d5.1 dummy
//
// WriteText and ParseText round-trip exactly.
//
// ParseText bounds array sizes and node arity so a hostile (or fuzzed)
// graph file cannot allocate unbounded storage before Validate runs.
const (
	maxArraySize = 1 << 20
	maxNodeIns   = 4096
)

var opByName = map[string]lang.Op{}

func init() {
	for _, op := range []lang.Op{
		lang.OpAdd, lang.OpSub, lang.OpMul, lang.OpDiv, lang.OpMod,
		lang.OpLt, lang.OpLe, lang.OpGt, lang.OpGe, lang.OpEq, lang.OpNe,
		lang.OpAnd, lang.OpOr,
	} {
		opByName[op.String()] = op
	}
	// Unary operators share symbols with binary ones; qualify them.
	opByName["neg"] = lang.OpNeg
	opByName["not"] = lang.OpNot
}

func opName(k Kind, op lang.Op) string {
	if k == UnOp {
		if op == lang.OpNeg {
			return "neg"
		}
		return "not"
	}
	return op.String()
}

var kindByName = func() map[string]Kind {
	m := map[string]Kind{}
	for k, n := range kindNames {
		m[n] = k
	}
	return m
}()

// WriteText serializes the graph. Linked procedure graphs (with Apply
// call sites) are not expressible in format v1.
func WriteText(w io.Writer, g *Graph) error {
	if len(g.Calls) > 0 {
		return fmt.Errorf("dfg: linked procedure graphs are not serializable in format v1")
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "ctdf-dataflow v1")
	for _, v := range g.Prog.Vars {
		fmt.Fprintf(bw, "var %s\n", v.Name)
	}
	for _, a := range g.Prog.Arrays {
		fmt.Fprintf(bw, "array %s %d\n", a.Name, a.Size)
	}
	for _, al := range g.Prog.Aliases {
		fmt.Fprintf(bw, "alias %s %s\n", al.A, al.B)
	}
	for _, n := range g.Nodes {
		fmt.Fprintf(bw, "node d%d %s", n.ID, n.Kind)
		switch n.Kind {
		case Const:
			fmt.Fprintf(bw, " val=%d", n.Val)
		case BinOp, UnOp:
			fmt.Fprintf(bw, " op=%s", opName(n.Kind, n.Op))
		case Load, Store, LoadIdx, StoreIdx, ILoad, IStore:
			fmt.Fprintf(bw, " var=%s", g.Name(n.Var))
		}
		if n.Tok != NoName {
			fmt.Fprintf(bw, " tok=%s", g.Name(n.Tok))
		}
		if n.Kind == End || n.Kind == Synch || n.Kind == Fused {
			fmt.Fprintf(bw, " ins=%d", n.NIns)
		}
		if n.Kind == Fused {
			fmt.Fprintf(bw, " outs=%d", n.NOuts)
		}
		if n.Stmt != 0 {
			fmt.Fprintf(bw, " stmt=%d", n.Stmt)
		}
		fmt.Fprintln(bw)
	}
	for i := range g.Fusions {
		fi := &g.Fusions[i]
		fmt.Fprintf(bw, "fused d%d", fi.Node)
		for _, op := range fi.Steps {
			switch op.Kind {
			case Const:
				fmt.Fprintf(bw, " const:%d:%s", op.Val, fusedRef(op.A))
			case UnOp:
				fmt.Fprintf(bw, " %s:%s", opName(UnOp, op.Op), fusedRef(op.A))
			case BinOp:
				fmt.Fprintf(bw, " %s:%s:%s", op.Op, fusedRef(op.A), fusedRef(op.B))
			}
		}
		outs := make([]string, len(fi.Outs))
		for p, s := range fi.Outs {
			outs[p] = strconv.Itoa(int(s))
		}
		fmt.Fprintf(bw, " out=%s\n", strings.Join(outs, ","))
	}
	for _, a := range g.Arcs {
		fmt.Fprintf(bw, "arc d%d.%d -> d%d.%d", a.From, a.FromPort, a.To, a.ToPort)
		if a.Dummy {
			fmt.Fprint(bw, " dummy")
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// Text renders the graph to a string.
func Text(g *Graph) string {
	var b strings.Builder
	_ = WriteText(&b, g)
	return b.String()
}

// ParseText reads a graph serialized by WriteText.
func ParseText(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	next := func() (string, bool) {
		for sc.Scan() {
			lineNo++
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			return line, true
		}
		return "", false
	}
	fail := func(format string, args ...any) error {
		return fmt.Errorf("dfg: line %d: %s", lineNo, fmt.Sprintf(format, args...))
	}

	header, ok := next()
	if !ok || header != "ctdf-dataflow v1" {
		return nil, fail("missing 'ctdf-dataflow v1' header")
	}

	prog := &lang.Program{}
	var g *Graph
	ensureGraph := func() *Graph {
		if g == nil {
			g = NewGraph(prog)
		}
		return g
	}
	names := map[string]int32{} // the name table, numbered as first met
	name := func(s string) int32 {
		id, ok := names[s]
		if !ok {
			g.Names = append(g.Names, s)
			id = int32(len(g.Names))
			names[s] = id
		}
		return id
	}

	for {
		line, ok := next()
		if !ok {
			break
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "var":
			if g != nil {
				return nil, fail("declarations must precede nodes")
			}
			if len(fields) != 2 {
				return nil, fail("var takes one name")
			}
			prog.Vars = append(prog.Vars, lang.VarDecl{Name: fields[1]})
		case "array":
			if g != nil {
				return nil, fail("declarations must precede nodes")
			}
			if len(fields) != 3 {
				return nil, fail("array takes name and size")
			}
			size, err := strconv.Atoi(fields[2])
			if err != nil || size <= 0 || size > maxArraySize {
				return nil, fail("bad array size %q (must be 1..%d)", fields[2], maxArraySize)
			}
			prog.Arrays = append(prog.Arrays, lang.ArrayDecl{Name: fields[1], Size: size})
		case "alias":
			if g != nil {
				return nil, fail("declarations must precede nodes")
			}
			if len(fields) != 3 {
				return nil, fail("alias takes two names")
			}
			prog.Aliases = append(prog.Aliases, lang.AliasDecl{A: fields[1], B: fields[2]})
		case "node":
			if len(fields) < 3 {
				return nil, fail("node takes an id and a kind")
			}
			gg := ensureGraph()
			id, err := parseNodeID(fields[1])
			if err != nil {
				return nil, fail("%v", err)
			}
			if id != len(gg.Nodes) {
				return nil, fail("node ids must be dense and ascending (got d%d, want d%d)", id, len(gg.Nodes))
			}
			kind, ok := kindByName[fields[2]]
			if !ok {
				return nil, fail("unknown node kind %q", fields[2])
			}
			n := &Node{Kind: kind}
			insSet := false
			for _, attr := range fields[3:] {
				kv := strings.SplitN(attr, "=", 2)
				if len(kv) != 2 {
					return nil, fail("bad attribute %q", attr)
				}
				switch kv[0] {
				case "val":
					v, err := strconv.ParseInt(kv[1], 10, 64)
					if err != nil {
						return nil, fail("bad val %q", kv[1])
					}
					n.Val = v
				case "op":
					op, ok := opByName[kv[1]]
					if !ok {
						return nil, fail("unknown op %q", kv[1])
					}
					n.Op = op
				case "var":
					n.Var = name(kv[1])
				case "tok":
					n.Tok = name(kv[1])
				case "ins":
					v, err := strconv.Atoi(kv[1])
					if err != nil || v < 0 || v > maxNodeIns {
						return nil, fail("bad ins %q (must be 0..%d)", kv[1], maxNodeIns)
					}
					n.NIns = int32(v)
					insSet = true
				case "outs":
					v, err := strconv.Atoi(kv[1])
					if err != nil || v < 0 || v > maxNodeIns {
						return nil, fail("bad outs %q (must be 0..%d)", kv[1], maxNodeIns)
					}
					if kind != Fused {
						return nil, fail("outs= is only valid on fused nodes")
					}
					n.NOuts = int32(v)
				case "stmt":
					v, err := strconv.ParseInt(kv[1], 10, 32)
					if err != nil {
						return nil, fail("bad stmt %q", kv[1])
					}
					n.Stmt = int32(v)
				default:
					return nil, fail("unknown attribute %q", kv[0])
				}
			}
			// Add silently normalizes NIns for fixed-arity kinds; an ins=
			// attribute contradicting the kind (a three-input switch, a
			// two-input unary op) is a malformed file, not a request.
			if fi := fixedIns(kind); insSet && fi >= 0 && n.NIns != fi {
				return nil, fail("kind %s has fixed arity %d, got ins=%d", kind, fi, n.NIns)
			}
			gg.Add(n)
		case "fused":
			if g == nil {
				return nil, fail("fused before any node")
			}
			if len(fields) < 4 {
				return nil, fail("fused takes a node id, steps, and out=")
			}
			id, err := parseNodeID(fields[1])
			if err != nil {
				return nil, fail("%v", err)
			}
			if id < 0 || id >= len(g.Nodes) || g.Nodes[id].Kind != Fused {
				return nil, fail("fused directive for d%d, which is not a declared fused node", id)
			}
			fi := FusedInfo{Node: int32(id)}
			for _, f := range fields[2 : len(fields)-1] {
				parts := strings.Split(f, ":")
				var op FusedOp
				switch {
				case parts[0] == "const" && len(parts) == 3:
					v, err := strconv.ParseInt(parts[1], 10, 64)
					if err != nil {
						return nil, fail("bad fused const %q", f)
					}
					op = FusedOp{Kind: Const, Val: v}
					if op.A, err = parseFusedRef(parts[2]); err != nil {
						return nil, fail("%v", err)
					}
				case len(parts) == 2:
					o, ok := opByName[parts[0]]
					if !ok || (o != lang.OpNeg && o != lang.OpNot) {
						return nil, fail("bad fused unop %q", f)
					}
					op = FusedOp{Kind: UnOp, Op: o}
					var err error
					if op.A, err = parseFusedRef(parts[1]); err != nil {
						return nil, fail("%v", err)
					}
				case len(parts) == 3:
					o, ok := opByName[parts[0]]
					if !ok {
						return nil, fail("bad fused binop %q", f)
					}
					op = FusedOp{Kind: BinOp, Op: o}
					var err error
					if op.A, err = parseFusedRef(parts[1]); err != nil {
						return nil, fail("%v", err)
					}
					if op.B, err = parseFusedRef(parts[2]); err != nil {
						return nil, fail("%v", err)
					}
				default:
					return nil, fail("bad fused step %q", f)
				}
				fi.Steps = append(fi.Steps, op)
				if len(fi.Steps) > maxNodeIns {
					return nil, fail("fused step program too long")
				}
			}
			last := fields[len(fields)-1]
			if !strings.HasPrefix(last, "out=") {
				return nil, fail("fused line must end with out=")
			}
			for _, s := range strings.Split(strings.TrimPrefix(last, "out="), ",") {
				v, err := strconv.ParseInt(s, 10, 32)
				if err != nil || v < 0 {
					return nil, fail("bad fused out %q", s)
				}
				fi.Outs = append(fi.Outs, int32(v))
			}
			g.Fusions = append(g.Fusions, fi)
		case "arc":
			if g == nil {
				return nil, fail("arc before any node")
			}
			// arc dA.p -> dB.q [dummy]
			if len(fields) < 4 || fields[2] != "->" {
				return nil, fail("bad arc line %q", line)
			}
			from, fp, err := parseEndpoint(fields[1])
			if err != nil {
				return nil, fail("%v", err)
			}
			to, tp, err := parseEndpoint(fields[3])
			if err != nil {
				return nil, fail("%v", err)
			}
			dummy := len(fields) == 5 && fields[4] == "dummy"
			if from < 0 || from >= len(g.Nodes) || to < 0 || to >= len(g.Nodes) {
				return nil, fail("arc references unknown node")
			}
			if fp < 0 || fp >= g.Nodes[from].OutPorts() || tp < 0 || tp >= int(g.Nodes[to].NIns) {
				return nil, fail("arc references out-of-range port")
			}
			g.Connect(int32(from), int32(fp), int32(to), int32(tp), dummy)
		default:
			return nil, fail("unknown directive %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("dfg: empty graph")
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// fusedRef renders a FusedOp operand reference: s<k> for the result of
// step k, i<p> for external input port p.
func fusedRef(r int32) string {
	if r >= 0 {
		return fmt.Sprintf("s%d", r)
	}
	return fmt.Sprintf("i%d", FusedInputPort(r))
}

func parseFusedRef(s string) (int32, error) {
	if len(s) < 2 {
		return 0, fmt.Errorf("bad fused operand %q", s)
	}
	v, err := strconv.ParseInt(s[1:], 10, 32)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad fused operand %q", s)
	}
	switch s[0] {
	case 's':
		return int32(v), nil
	case 'i':
		return FusedInput(int32(v)), nil
	}
	return 0, fmt.Errorf("bad fused operand %q", s)
}

func parseNodeID(s string) (int, error) {
	if !strings.HasPrefix(s, "d") {
		return 0, fmt.Errorf("bad node id %q", s)
	}
	return strconv.Atoi(s[1:])
}

func parseEndpoint(s string) (int, int, error) {
	dot := strings.LastIndex(s, ".")
	if dot < 0 {
		return 0, 0, fmt.Errorf("bad endpoint %q", s)
	}
	id, err := parseNodeID(s[:dot])
	if err != nil {
		return 0, 0, err
	}
	port, err := strconv.Atoi(s[dot+1:])
	if err != nil {
		return 0, 0, fmt.Errorf("bad port in %q", s)
	}
	return id, port, nil
}

// Listing renders a per-node "assembly" view: each node with its operands
// and destinations, in ID order — a readable machine-code-like artifact.
func Listing(g *Graph) string {
	var b strings.Builder
	for _, n := range g.Nodes {
		fmt.Fprintf(&b, "%-28s", g.Label(n))
		var dests []string
		for p := 0; p < n.OutPorts(); p++ {
			for _, ai := range g.OutArcs(n.ID, p) {
				a := g.Arcs[ai]
				d := fmt.Sprintf("d%d.%d", a.To, a.ToPort)
				if n.OutPorts() > 1 {
					d = fmt.Sprintf("%d→%s", p, d)
				}
				dests = append(dests, d)
			}
		}
		sort.Strings(dests)
		if len(dests) > 0 {
			fmt.Fprintf(&b, " => %s", strings.Join(dests, " "))
		}
		b.WriteString("\n")
	}
	return b.String()
}
