package translate_test

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"ctdf"
	"ctdf/internal/dfg"
	"ctdf/internal/translate"
	"ctdf/internal/workloads"
)

var updateLinked = flag.Bool("update", false, "rewrite testdata/linked.golden from the current translator")

const linkedGolden = "testdata/linked.golden"

// pinnedCallGraphs are call graphs the generated programs do not draw:
// a nested chain whose innermost body alone names a global, two callers
// sharing a callee, a declared procedure no call reaches, and a callee
// whose body needs a dispatch header.
var pinnedCallGraphs = []workloads.Workload{
	{Name: "chain", Source: `
var a, b, g
proc c3(z) {
  z := z + g
  g := g * 2
}
proc c2(y) {
  call c3(y)
}
proc c1(x, w) {
  call c2(x)
  w := x + 1
}
a := 1
g := 3
call c1(a, b)
`},
	{Name: "diamond", Source: `
var a, b, h
proc leaf(p) {
  p := p + h
}
proc left(l) {
  call leaf(l)
}
proc right(r) {
  h := h + 1
  call leaf(r)
}
h := 2
call left(a)
call right(b)
call left(b)
`},
	{Name: "uncalled", Source: `
var a, g
proc used(x) {
  x := x + 1
}
proc unused(y) {
  g := y
  call used(y)
}
call used(a)
`},
	{Name: "irreducible-callee", Source: `
var x, y
proc bump(a, s) {
  if a == 0 then goto p else goto q
  p:
  s := s + 1
  goto q2
  q:
  s := s + 2
  goto p2
  p2:
  if s < 10 then goto p else goto done
  q2:
  if s < 20 then goto q else goto done
  done:
  a := s
}
call bump(x, y)
`},
}

// TestLinkedGraphsPinned pins separate compilation byte for byte: for the
// proc-* workloads, RandomProcs(s, 1+s%5) for s = 1…300 and the call
// graphs above, the SHA-256 of the linked graph's listing, of its call
// linkage and of the main unit's token universe. -update rewrites the
// file, for an intended change of the linked graphs only.
func TestLinkedGraphsPinned(t *testing.T) {
	var progs []workloads.Workload
	for _, w := range workloads.All() {
		if strings.HasPrefix(w.Name, "proc-") {
			progs = append(progs, w)
		}
	}
	for s := int64(1); s <= 300; s++ {
		progs = append(progs, workloads.RandomProcs(s, 1+int(s%5)))
	}
	progs = append(progs, pinnedCallGraphs...)

	sum := func(s string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(s))) }
	var got []string
	for _, w := range progs {
		res, err := translate.TranslateLinked(w.Parse())
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		// The main universe as the library reports it.
		p, err := ctdf.Compile(w.Source)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		d, err := p.TranslateLinked()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		got = append(got, fmt.Sprintf("%s listing=%s calls=%s universe=%s", w.Name,
			sum(dfg.Listing(res.Graph)), sum(fmt.Sprintf("%+v", res.Graph.Calls)), sum(strings.Join(d.Tokens(), " "))))
	}

	if *updateLinked {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(linkedGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(linkedGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want = append(want, sc.Text())
	}
	if len(want) != len(got) {
		t.Fatalf("%s has %d lines, the translator gives %d", linkedGolden, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("linked graph changed:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
