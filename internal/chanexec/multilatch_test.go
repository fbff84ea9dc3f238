package chanexec_test

import (
	"fmt"
	"testing"
	"time"

	"ctdf/internal/cfg"
	"ctdf/internal/chanexec"
	"ctdf/internal/interp"
	"ctdf/internal/machine"
	"ctdf/internal/opt"
	"ctdf/internal/translate"
	"ctdf/internal/workloads"
)

// multiLatchOptions is every schema, plus memory elimination on the one
// that offers it: §4's source vectors feed the -opt schemas, the rest
// switch every token at every fork.
var multiLatchOptions = []translate.Options{
	{Schema: translate.Schema1},
	{Schema: translate.Schema2},
	{Schema: translate.Schema2Opt},
	{Schema: translate.Schema3},
	{Schema: translate.Schema3Opt},
	{Schema: translate.Schema2Opt, EliminateMemory: true},
}

// agreesEverywhere translates w under every option of multiLatchOptions,
// plain and optimized, and holds the machine's and the channel engine's
// final stores to sequential interpretation.
func agreesEverywhere(t *testing.T, w workloads.Workload) {
	t.Helper()
	g, err := cfg.Build(w.Parse())
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	want, err := interp.Run(g, interp.Options{})
	if err != nil {
		t.Fatalf("%s: interp: %v", w.Name, err)
	}
	for _, o := range multiLatchOptions {
		for _, optimize := range []bool{false, true} {
			name := fmt.Sprintf("%s/%v/elim=%v/optimize=%v", w.Name, o.Schema, o.EliminateMemory, optimize)
			res, err := translate.Translate(g, o)
			if err != nil {
				t.Errorf("%s: translate: %v", name, err)
				continue
			}
			if optimize {
				if _, err := opt.Run(res); err != nil {
					t.Errorf("%s: optimize: %v", name, err)
					continue
				}
			}
			mo, err := machine.Run(res.Graph, machine.Config{})
			if err != nil {
				t.Errorf("%s: machine: %v", name, err)
				continue
			}
			co, err := chanexec.Run(res.Graph, chanexec.Config{Deadline: 10 * time.Second})
			if err != nil {
				t.Errorf("%s: channels: %v", name, err)
				continue
			}
			for engine, got := range map[string]string{
				"machine":  translate.FinalSnapshot(res, mo.Store, mo.EndValues),
				"channels": translate.FinalSnapshot(res, co.Store, co.EndValues),
			} {
				if got != want.Store.Snapshot() {
					t.Errorf("%s: %s computes\n%s\ninterp\n%s", name, engine, got, want.Store.Snapshot())
				}
			}
		}
	}
}

// TestMultiLatchLoops: a reducible loop whose back-edges part at a fork
// that does not switch the loop's tokens. §4 forwards such a token to the
// fork's immediate postdominator, here the loop entry itself, and it must
// land on the entry's back-edge port, not its initial one; the -opt
// schemas used to reject both programs with "loop entry … has no back-edge
// source for u" (for n in the dispatch loop).
func TestMultiLatchLoops(t *testing.T) {
	for _, w := range []workloads.Workload{
		{Name: "split-latch", Source: `var x, u
h:
u := u + 1
if u > 5 then goto end else goto c
c:
if x == 0 then goto s else goto t
s:
x := 1
goto h
t:
x := 0
goto h
`},
		{Name: "dispatch-3", Source: `var s, n, x
s := 1
h:
n := n + 1
if n > 30 then goto end else goto d
d:
if s == 1 then goto a else goto d2
d2:
if s == 2 then goto b else goto c
a:
x := x + 1
s := 2
goto h
b:
x := x * 2
s := 3
goto h
c:
x := x - 3
s := 1
goto h
`},
	} {
		agreesEverywhere(t, w)
	}
}

// TestMultiLatchGenerated sweeps workloads.RandomMultiLatch — continues
// from inside forks and 2-, 3- and 4-way dispatch loops — through the same
// lattice.
func TestMultiLatchGenerated(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		agreesEverywhere(t, workloads.RandomMultiLatch(seed, 1+int(seed)%3))
	}
}

// TestMultiLevelExits: a goto that leaves two nested loops at once passes
// the inner loop's exit statement before the outer one's. With the order
// reversed, the token reaches end still carrying the inner loop's
// context, and every schema aborted on both engines.
func TestMultiLevelExits(t *testing.T) {
	agreesEverywhere(t, workloads.TwoLevelExit)
	// Ends with s = 1041.
	agreesEverywhere(t, workloads.Workload{Name: "exit-two-loops", Source: `
var i, j, s
i := 0
outer:
i := i + 1
j := 0
inner:
j := j + 1
s := s + j
if s > 40 then goto done else goto next
next:
if j < 4 then goto inner else goto tail
tail:
if i < 10 then goto outer else goto done
done:
s := s + 1000
`})
}
