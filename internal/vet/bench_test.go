package vet_test

import (
	"testing"

	"ctdf/internal/analysis"
	"ctdf/internal/cfg"
	"ctdf/internal/opt"
	"ctdf/internal/translate"
	"ctdf/internal/vet"
	"ctdf/internal/workloads"
)

// compile translates w under o and, when optimize is set, runs the graph
// optimizer, so the graph lacks the switches and merges it removed and
// res.Opt says an edit pass ran.
func compile(tb testing.TB, w workloads.Workload, o translate.Options, optimize bool) *translate.Result {
	tb.Helper()
	g, err := cfg.Build(w.Parse())
	if err != nil {
		tb.Fatalf("%s: build: %v", w.Name, err)
	}
	res, err := translate.Translate(g, o)
	if err != nil {
		tb.Fatalf("%s: translate: %v", w.Name, err)
	}
	if optimize {
		if _, err := opt.Run(res); err != nil {
			tb.Fatalf("%s: optimize: %v", w.Name, err)
		}
	}
	return res
}

var benchSink *vet.Report

// BenchmarkVet times vet.Run on the program shapes of benchmark/'s four
// workloads (same generators, sizes and options: the aliased program under
// the class cover, the narrow loop nest without memory elimination), so a
// profile of the verifier can be taken without the rest of the pipeline
// around it. Vet runs its passes concurrently; -cpu 1,2 reads the serial
// and the two-core figure. structured-1000 is no ruler shape: at 1 000
// statements any table dense in nodes × tokens or nodes × memory
// operations dominates the bytes per op (-benchmem).
func BenchmarkVet(b *testing.B) {
	structured := translate.Options{Schema: translate.Schema2Opt}
	aliased := workloads.RandomAliased(1990, 32, 3)
	classCover := translate.Options{Schema: translate.Schema3Opt, Cover: analysis.ClassCover(analysis.NewAliasStructure(aliased.Parse()))}
	for _, c := range []struct {
		name     string
		w        workloads.Workload
		o        translate.Options
		optimize bool
	}{
		{"structured-40", workloads.Random(1990, 40, 3), structured, true},
		{"structured-56", workloads.Random(1991, 56, 3), structured, true},
		{"unstructured-48", workloads.RandomUnstructured(1990, 48), structured, false},
		{"aliased-32", aliased, classCover, false},
		{"wide-64", workloads.Wide(64, 4000), translate.Options{Schema: translate.Schema2Opt, EliminateMemory: true}, false},
		{"narrow-8", workloads.Wide(8, 8000), structured, false},
		{"structured-1000", workloads.Random(7, 1000, 3), structured, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			res := compile(b, c.w, c.o, c.optimize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = vet.Run(res.Graph, res)
			}
			if !benchSink.Clean() {
				b.Fatalf("not clean:\n%s", benchSink)
			}
		})
	}
}

// vetAllocBudget bounds the allocations of one vet.Run on the budget
// program. The run made 983 k when every pass kept its sets in maps, 61 k
// after the passes moved onto one index and two dense solvers, 19.9 k
// while the alias-cover trace kept two maps per node for its memo, and
// makes 9.4 k now that the memo is keyed by the output rows of the graph's
// index and a single-source port shares its source's token set. (Reading
// the graph's index instead of counting-sorting two private copies of
// every arc saved bytes, 5.6 → 3.9 MB, not counts.) Ordering along token
// lines brought it to 4.1 k, walking each operation's synch tree back
// in place of that memo to 3.3 k, and numbering the recomputed plan's
// tokens by their place in the universe, with no name sets rebuilt, to
// 1.75 k, computing its source vectors in one walk over the order, in
// place of a sweep per token, to 1.63 k, and placing on the translator's
// own need and control dependences, in place of deriving both again, to
// 858. The gate is that count (under
// -race, which allocates a little more) × 1.25. Allocation counts repeat
// exactly, so this gate is deterministic where wall time is not.
const vetAllocBudget = 1_075

func TestVetAllocBudget(t *testing.T) {
	res := compile(t, workloads.Random(1990, 40, 3), translate.Options{Schema: translate.Schema2Opt}, true)
	got := testing.AllocsPerRun(3, func() { benchSink = vet.Run(res.Graph, res) })
	if got > vetAllocBudget {
		t.Errorf("vet.Run allocates %.0f times per run, budget %d", got, vetAllocBudget)
	}
	t.Logf("vet.Run: %.0f allocs per run (budget %d)", got, vetAllocBudget)
}
