package journal

import (
	"fmt"
	"sort"
	"strings"
)

// Cone is the result of a causal query: a set of firings (ids into the
// journal) reachable from one or more anchor firings by following
// provenance edges backward (Explain) or forward (Impact).
type Cone struct {
	j *Journal
	// Anchors are the query's starting firings.
	Anchors []int32
	// IDs holds every firing in the cone, anchors included, ascending.
	IDs []int32
	// Forward is true for an Impact cone.
	Forward bool
}

// Explain computes the backward cause cone of the given firings: every
// firing whose value transitively flowed into them. Because the graphs
// are determinate, this is THE set of operations that caused the
// anchors — on any engine and any schedule.
func Explain(j *Journal, anchors []int32) (*Cone, error) {
	return cone(j, anchors, false)
}

// Impact computes the forward slice: every firing the anchors
// transitively fed — what would change if the anchor's value did.
func Impact(j *Journal, anchors []int32) (*Cone, error) {
	return cone(j, anchors, true)
}

func cone(j *Journal, anchors []int32, forward bool) (*Cone, error) {
	if err := j.checkIDs(); err != nil {
		return nil, err
	}
	if len(anchors) == 0 {
		return nil, fmt.Errorf("journal: no anchor firings for causal query")
	}
	for _, a := range anchors {
		if a < 0 || int(a) >= len(j.Fires) {
			return nil, fmt.Errorf("journal: anchor firing %d out of range (have %d firings)", a, len(j.Fires))
		}
	}
	in := make([]bool, len(j.Fires))
	for _, a := range anchors {
		in[a] = true
	}
	if forward {
		// A single ascending sweep closes the forward slice: deps always
		// point strictly backward (checked by checkIDs), so by the time
		// firing i is visited every potential cause is already marked.
		for i := range j.Fires {
			if in[i] {
				continue
			}
			for _, d := range j.Deps(int32(i)) {
				if in[d] {
					in[i] = true
					break
				}
			}
		}
	} else {
		// Backward: one descending sweep for the same reason.
		for i := len(j.Fires) - 1; i >= 0; i-- {
			if !in[i] {
				continue
			}
			for _, d := range j.Deps(int32(i)) {
				in[d] = true
			}
		}
	}
	c := &Cone{j: j, Anchors: append([]int32(nil), anchors...), Forward: forward}
	for i := range in {
		if in[i] {
			c.IDs = append(c.IDs, int32(i))
		}
	}
	return c, nil
}

// Contains reports whether firing id is in the cone.
func (c *Cone) Contains(id int32) bool {
	i := sort.Search(len(c.IDs), func(i int) bool { return c.IDs[i] >= id })
	return i < len(c.IDs) && c.IDs[i] == id
}

// Nodes returns the distinct node ids appearing in the cone, ascending.
func (c *Cone) Nodes() []int {
	seen := map[int]bool{}
	for _, id := range c.IDs {
		seen[int(c.j.Fires[id].Node)] = true
	}
	out := make([]int, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// Text renders the cone as an indented causal tree rooted at the
// anchors, cycle-stamped, suitable for terminal output:
//
//	#42 d10: load x [tag 0.1] @cycle 9 (cost 4)
//	  #37 d8: i-read x [tag 0.1] @cycle 5
//	    #12 d3: store x [tag 0] @cycle 2
//
// Each firing is expanded at its first (shallowest) occurrence and
// referenced by id afterwards, so shared subtrees — the normal case in
// a DAG — do not explode the output. maxDepth <= 0 means unlimited.
func (c *Cone) Text(maxDepth int) string {
	var b strings.Builder
	expanded := make(map[int32]bool, len(c.IDs))
	var walk func(id int32, depth int)
	walk = func(id int32, depth int) {
		f := &c.j.Fires[id]
		indent := strings.Repeat("  ", depth)
		if expanded[id] {
			fmt.Fprintf(&b, "%s#%d (see above)\n", indent, id)
			return
		}
		expanded[id] = true
		fmt.Fprintf(&b, "%s#%d %s [tag %s] @cycle %d", indent, id, c.j.label(f.Node), c.j.tagName(f.Tag), f.Cycle)
		if f.Cost > 1 {
			fmt.Fprintf(&b, " (cost %d)", f.Cost)
		}
		b.WriteByte('\n')
		if maxDepth > 0 && depth+1 >= maxDepth {
			if len(c.next(id)) > 0 {
				fmt.Fprintf(&b, "%s  ...\n", indent)
			}
			return
		}
		for _, nxt := range c.next(id) {
			walk(nxt, depth+1)
		}
	}
	for _, a := range c.Anchors {
		walk(a, 0)
	}
	return b.String()
}

// next returns the firings one causal step from id in the cone's
// direction: producers for a backward cone, consumers for a forward one.
func (c *Cone) next(id int32) []int32 {
	if !c.Forward {
		return c.j.Deps(id)
	}
	var out []int32
	for _, cand := range c.IDs {
		if cand <= id {
			continue
		}
		for _, d := range c.j.Deps(cand) {
			if d == id {
				out = append(out, cand)
				break
			}
		}
	}
	return out
}

// Summary renders one line of cone vitals.
func (c *Cone) Summary() string {
	dir := "cause cone"
	if c.Forward {
		dir = "impact slice"
	}
	return fmt.Sprintf("%s: %d of %d firings across %d nodes",
		dir, len(c.IDs), len(c.j.Fires), len(c.Nodes()))
}

// ResolveAnchor parses an anchor spec of the form "NODE@TAG", "NODE"
// (all tags), or "#ID" (a raw firing id). NODE is either a dN node id or
// a label substring. It returns the matching firing ids.
func ResolveAnchor(j *Journal, spec string) ([]int32, error) {
	if spec == "" {
		return nil, fmt.Errorf("journal: empty anchor spec")
	}
	if strings.HasPrefix(spec, "#") {
		var id int32
		if _, err := fmt.Sscanf(spec, "#%d", &id); err != nil {
			return nil, fmt.Errorf("journal: bad firing id %q", spec)
		}
		if id < 0 || int(id) >= len(j.Fires) {
			return nil, fmt.Errorf("journal: firing %s out of range (have %d firings)", spec, len(j.Fires))
		}
		return []int32{id}, nil
	}
	nodeSpec, tag := spec, ""
	hasTag := false
	if i := strings.IndexByte(spec, '@'); i >= 0 {
		nodeSpec, tag, hasTag = spec[:i], spec[i+1:], true
		if tag == "root" {
			tag = ""
		}
	}
	var nodes []int
	var n int
	if _, err := fmt.Sscanf(nodeSpec, "d%d", &n); err == nil && fmt.Sprintf("d%d", n) == nodeSpec {
		if n < 0 || n >= len(j.Nodes) {
			return nil, fmt.Errorf("journal: node %s out of range (have %d nodes)", nodeSpec, len(j.Nodes))
		}
		nodes = []int{n}
	} else {
		nodes = j.NodesByLabel(nodeSpec)
		if len(nodes) == 0 {
			return nil, fmt.Errorf("journal: no node matches %q", nodeSpec)
		}
	}
	var out []int32
	for i := range j.Fires {
		f := &j.Fires[i]
		if hasTag && j.Tags[f.Tag] != tag {
			continue
		}
		for _, nd := range nodes {
			if int(f.Node) == nd {
				out = append(out, int32(i))
				break
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("journal: no firings match %q", spec)
	}
	return out, nil
}
