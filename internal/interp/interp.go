// Package interp executes control-flow graphs with the standard sequential
// operational semantics of imperative programs — a program counter walking
// the CFG and a global updatable store. It is the semantics oracle against
// which every dataflow translation and execution engine is checked.
package interp

import (
	"fmt"
	"sort"

	"ctdf/internal/cfg"
	"ctdf/internal/lang"
)

// Store is the memory state of a program: scalar variables and arrays.
// Aliased scalars share a location (see NewStore).
type Store struct {
	// loc maps a variable name to its location index.
	loc map[string]int
	// cells holds scalar locations.
	cells []int64
	// arrays maps array names to their backing storage. Aliased arrays
	// share a slice.
	arrays map[string][]int64
	names  []string
}

// Binding fixes, for one execution, which variable names actually denote
// the same memory location. It maps each name to a canonical
// representative; names with the same representative share a location. The
// alias relation of the program (paper Definition 6) constrains which
// bindings are legal: names may share only if they are declared aliases.
// The relation is deliberately NOT transitive — with [X]={X,Z},
// [Y]={Y,Z}, the binding {X=Z} is legal and so is {Y=Z}, but {X=Y=Z} is
// not — so a single execution realizes one legal binding, and correctness
// of a translation means correctness under every legal binding.
type Binding map[string]string

// IdentityBinding is the binding in which every name is its own location.
var IdentityBinding = Binding(nil)

func (b Binding) canon(name string) string {
	if b == nil {
		return name
	}
	if c, ok := b[name]; ok {
		return c
	}
	return name
}

// Validate checks that the binding is legal for the program: every group
// of names sharing a representative must be pairwise declared aliases, of
// the same kind, and (for arrays) of the same size.
func (b Binding) Validate(prog *lang.Program) error {
	if b == nil {
		return nil
	}
	rel := map[[2]string]bool{}
	for _, al := range prog.Aliases {
		rel[[2]string{al.A, al.B}] = true
		rel[[2]string{al.B, al.A}] = true
	}
	groups := map[string][]string{}
	for _, n := range prog.AllNames() {
		c := b.canon(n)
		groups[c] = append(groups[c], n)
	}
	for _, g := range groups {
		for i := 0; i < len(g); i++ {
			for j := i + 1; j < len(g); j++ {
				if !rel[[2]string{g[i], g[j]}] {
					return fmt.Errorf("interp: binding shares %s and %s which are not declared aliases", g[i], g[j])
				}
				if prog.IsArray(g[i]) != prog.IsArray(g[j]) {
					return fmt.Errorf("interp: binding shares scalar and array (%s, %s)", g[i], g[j])
				}
				if prog.IsArray(g[i]) && prog.ArraySize(g[i]) != prog.ArraySize(g[j]) {
					return fmt.Errorf("interp: binding shares arrays of different sizes (%s, %s)", g[i], g[j])
				}
			}
		}
	}
	return nil
}

// NewStore allocates storage with the identity binding (no two names share
// a location).
func NewStore(prog *lang.Program) *Store {
	return NewStoreWithBinding(prog, IdentityBinding)
}

// NewStoreWithBinding allocates storage in which names with the same
// binding representative share one location. The binding should have been
// validated against the program.
func NewStoreWithBinding(prog *lang.Program, b Binding) *Store {
	s := &Store{loc: map[string]int{}, arrays: map[string][]int64{}}
	canonLoc := map[string]int{}
	for _, v := range prog.Vars {
		c := b.canon(v.Name)
		idx, ok := canonLoc[c]
		if !ok {
			idx = len(s.cells)
			s.cells = append(s.cells, 0)
			canonLoc[c] = idx
		}
		s.loc[v.Name] = idx
	}
	canonArr := map[string][]int64{}
	for _, a := range prog.Arrays {
		c := b.canon(a.Name)
		arr, ok := canonArr[c]
		if !ok {
			arr = make([]int64, a.Size)
			canonArr[c] = arr
		}
		s.arrays[a.Name] = arr
	}
	s.names = prog.AllNames()
	return s
}

// Get reads scalar variable name.
func (s *Store) Get(name string) int64 { return s.cells[s.loc[name]] }

// Set writes scalar variable name.
func (s *Store) Set(name string, v int64) { s.cells[s.loc[name]] = v }

// GetIdx reads array element name[i].
func (s *Store) GetIdx(name string, i int64) (int64, error) {
	arr := s.arrays[name]
	if i < 0 || i >= int64(len(arr)) {
		return 0, fmt.Errorf("interp: index %d out of range for array %s[%d]", i, name, len(arr))
	}
	return arr[i], nil
}

// SetIdx writes array element name[i].
func (s *Store) SetIdx(name string, i, v int64) error {
	arr := s.arrays[name]
	if i < 0 || i >= int64(len(arr)) {
		return fmt.Errorf("interp: index %d out of range for array %s[%d]", i, name, len(arr))
	}
	arr[i] = v
	return nil
}

// Array returns a copy of the named array's contents.
func (s *Store) Array(name string) []int64 {
	return append([]int64(nil), s.arrays[name]...)
}

// Snapshot renders the entire final state deterministically — scalar
// values and array contents by name — so executions can be compared. It
// leaves out cfg.Selector, which only a dispatch rewrite declares: the
// rewritten graph's store then reads as the original graph's.
func (s *Store) Snapshot() string {
	names := append([]string(nil), s.names...)
	sort.Strings(names)
	out := ""
	for _, n := range names {
		if n == cfg.Selector {
			continue
		}
		if arr, ok := s.arrays[n]; ok {
			out += fmt.Sprintf("%s=%v\n", n, arr)
		} else {
			out += fmt.Sprintf("%s=%d\n", n, s.Get(n))
		}
	}
	return out
}

// Result is the outcome of an execution: the final store and the number of
// statements executed.
type Result struct {
	Store      *Store
	Statements int
}

// Options configures the interpreter.
type Options struct {
	// MaxSteps bounds execution (0 means the default of 10 million).
	MaxSteps int
	// Binding selects which aliased names share a location this run
	// (nil = identity binding).
	Binding Binding
}

// Run executes the CFG from start to end and returns the final store.
func Run(g *cfg.Graph, opts Options) (*Result, error) {
	max := opts.MaxSteps
	if max == 0 {
		max = 10_000_000
	}
	if err := opts.Binding.Validate(g.Prog); err != nil {
		return nil, err
	}
	st := NewStoreWithBinding(g.Prog, opts.Binding)
	cur := g.Start
	steps := 0
	for {
		if steps++; steps > max {
			return nil, fmt.Errorf("interp: exceeded %d steps (non-terminating program?)", max)
		}
		n := g.Nodes[cur]
		switch n.Kind {
		case cfg.KindStart:
			cur = n.Succs[0] // Succs[1] is the conventional start→end edge
		case cfg.KindEnd:
			return &Result{Store: st, Statements: steps}, nil
		case cfg.KindAssign:
			v, err := Eval(n.RHS, st)
			if err != nil {
				return nil, err
			}
			if n.TargetIndex != nil {
				idx, err := Eval(n.TargetIndex, st)
				if err != nil {
					return nil, err
				}
				if err := st.SetIdx(n.Target, idx, v); err != nil {
					return nil, err
				}
			} else {
				st.Set(n.Target, v)
			}
			cur = n.Succs[0]
		case cfg.KindFork:
			v, err := Eval(n.Cond, st)
			if err != nil {
				return nil, err
			}
			if v != 0 {
				cur = n.Succs[0]
			} else {
				cur = n.Succs[1]
			}
		case cfg.KindJoin, cfg.KindLoopEntry, cfg.KindLoopExit:
			cur = n.Succs[0]
		default:
			return nil, fmt.Errorf("interp: unknown node kind %v", n.Kind)
		}
	}
}

// Eval evaluates an expression against a store. Booleans are 0/1; division
// or modulus by zero is an error (the dataflow engines must agree).
func Eval(e lang.Expr, st *Store) (int64, error) {
	switch x := e.(type) {
	case *lang.IntLit:
		return x.Value, nil
	case *lang.VarRef:
		return st.Get(x.Name), nil
	case *lang.IndexRef:
		i, err := Eval(x.Index, st)
		if err != nil {
			return 0, err
		}
		return st.GetIdx(x.Name, i)
	case *lang.UnExpr:
		v, err := Eval(x.X, st)
		if err != nil {
			return 0, err
		}
		return ApplyUnary(x.Op, v)
	case *lang.BinExpr:
		l, err := Eval(x.L, st)
		if err != nil {
			return 0, err
		}
		r, err := Eval(x.R, st)
		if err != nil {
			return 0, err
		}
		return Apply(x.Op, l, r)
	}
	return 0, fmt.Errorf("interp: unknown expression type %T", e)
}
