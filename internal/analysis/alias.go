package analysis

import (
	"fmt"
	"sort"
	"strings"

	"ctdf/internal/lang"
)

// AliasStructure is the pair ⟨V, ~⟩ of paper Definition 6: a variable name
// universe and a reflexive, symmetric (but NOT transitive) alias relation.
type AliasStructure struct {
	vars []string
	rel  map[string]map[string]bool
}

// NewAliasStructure builds the alias structure declared by a program.
func NewAliasStructure(prog *lang.Program) *AliasStructure {
	a := &AliasStructure{rel: map[string]map[string]bool{}}
	a.vars = append(a.vars, prog.AllNames()...)
	sort.Strings(a.vars)
	for _, v := range a.vars {
		a.rel[v] = map[string]bool{v: true} // reflexive
	}
	for _, al := range prog.Aliases {
		a.rel[al.A][al.B] = true
		a.rel[al.B][al.A] = true
	}
	return a
}

// Vars returns the variable universe V, sorted.
func (a *AliasStructure) Vars() []string { return append([]string(nil), a.vars...) }

// Related reports x ~ y.
func (a *AliasStructure) Related(x, y string) bool { return a.rel[x][y] }

// Class returns the alias class [x] = {y : y ~ x}, sorted.
func (a *AliasStructure) Class(x string) []string {
	return sortedNames(a.rel[x])
}

// HasAliases reports whether any two distinct names are related.
func (a *AliasStructure) HasAliases() bool {
	for x, m := range a.rel {
		for y := range m {
			if x != y {
				return true
			}
		}
	}
	return false
}

// CoverElement is one element of a cover: a named subset of V. One access
// token circulates per cover element (paper §5).
type CoverElement struct {
	Name string
	Vars map[string]bool
}

// Cover is a collection of subsets of V whose union is V (Definition 7).
// Schema 3 is parameterized by the choice of cover.
type Cover struct {
	Elements []CoverElement
}

// Validate checks Definition 7: every variable is covered, element names
// are unique and non-empty, and elements mention only universe variables.
func (c *Cover) Validate(a *AliasStructure) error {
	seen := map[string]bool{}
	inUniverse := map[string]bool{}
	for _, v := range a.vars {
		inUniverse[v] = true
	}
	covered := map[string]bool{}
	for _, e := range c.Elements {
		if e.Name == "" {
			return fmt.Errorf("analysis: cover element with empty name")
		}
		if seen[e.Name] {
			return fmt.Errorf("analysis: duplicate cover element name %q", e.Name)
		}
		seen[e.Name] = true
		if len(e.Vars) == 0 {
			return fmt.Errorf("analysis: cover element %q is empty", e.Name)
		}
		for v := range e.Vars {
			if !inUniverse[v] {
				return fmt.Errorf("analysis: cover element %q mentions unknown variable %q", e.Name, v)
			}
			covered[v] = true
		}
	}
	for _, v := range a.vars {
		if !covered[v] {
			return fmt.Errorf("analysis: variable %q not covered (Definition 7 requires the union to be V)", v)
		}
	}
	return nil
}

// TokenNames returns the sorted access-token names, one per cover element.
func (c *Cover) TokenNames() []string {
	out := make([]string, 0, len(c.Elements))
	for _, e := range c.Elements {
		out = append(out, e.Name)
	}
	sort.Strings(out)
	return out
}

// AccessSet returns C[x]: the names of the cover elements whose variable
// set intersects the alias class [x]. A memory operation on x must collect
// the access tokens of every element of C[x] before it starts, and
// regenerates them all when it completes.
func (c *Cover) AccessSet(a *AliasStructure, x string) []string {
	var out []string
	for _, e := range c.Elements {
		for v := range e.Vars {
			if a.Related(v, x) {
				out = append(out, e.Name)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// SynchCost returns the total number of token collections a program's
// references would perform under this cover: for each referenced variable
// occurrence, |C[x]|. Used to quantify the parallelism/synchronization
// tradeoff of §5.
func (c *Cover) SynchCost(a *AliasStructure, refs []string) int {
	cost := 0
	for _, x := range refs {
		cost += len(c.AccessSet(a, x))
	}
	return cost
}

// SingletonCover is the finest cover: one element per variable. It
// maximizes parallelism (unaliased variables never share a token) at the
// price of collecting |[x]| tokens per operation on aliased x. With no
// aliasing it degenerates to Schema 2.
func SingletonCover(a *AliasStructure) *Cover {
	c := &Cover{}
	for _, v := range a.vars {
		c.Elements = append(c.Elements, CoverElement{Name: v, Vars: map[string]bool{v: true}})
	}
	return c
}

// ClassCover has one element per distinct alias class [x].
func ClassCover(a *AliasStructure) *Cover {
	c := &Cover{}
	seen := map[string]bool{}
	for _, v := range a.vars {
		class := a.Class(v)
		key := strings.Join(class, ",")
		if seen[key] {
			continue
		}
		seen[key] = true
		vars := map[string]bool{}
		for _, y := range class {
			vars[y] = true
		}
		c.Elements = append(c.Elements, CoverElement{Name: "[" + v + "]", Vars: vars})
	}
	return c
}

// MonolithicCover is the coarsest cover: a single element holding all of
// V, so exactly one access token serializes every memory operation. It
// minimizes synchronization (each operation collects one token) and
// parallelism alike.
func MonolithicCover(a *AliasStructure) *Cover {
	vars := map[string]bool{}
	for _, v := range a.vars {
		vars[v] = true
	}
	return &Cover{Elements: []CoverElement{{Name: "V", Vars: vars}}}
}

func sortedNames(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
