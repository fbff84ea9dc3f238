package lang_test

import (
	"runtime"
	"testing"

	"ctdf/internal/lang"
	"ctdf/internal/workloads"
)

// BenchmarkParse times Parse on the programs of the benchmark's compile
// workloads (same generators and sizes as the root BenchmarkCompile).
func BenchmarkParse(b *testing.B) {
	for _, c := range []struct {
		name string
		w    workloads.Workload
	}{
		{"structured-40", workloads.Random(1990, 40, 3)},
		{"unstructured-48a", workloads.RandomUnstructured(1990, 48)},
		{"aliased-32a", workloads.RandomAliased(1990, 32, 3)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(c.w.Source)))
			for i := 0; i < b.N; i++ {
				if _, err := lang.Parse(c.w.Source); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// parseAllocBudget and parseByteBudget bound the allocations of one Parse
// of the budget program (TestCompileAllocBudget's, in the root package),
// 13 171 source bytes. It took 8 056 allocations (590 kB) while the lexer
// converted the source to a []rune, materialised every token and
// allocated each identifier, and the parser allocated every node and
// grew every statement list; it takes 443 (210 kB) now that tokens are
// read in place through a two-token window and the frequent nodes and the
// lists are carved from chunks. Each gate is that figure × 1.25; the
// previous front end trips both.
const (
	parseAllocBudget = 555
	parseByteBudget  = 263_000
)

func TestParseAllocBudget(t *testing.T) {
	src := workloads.Random(1990, 40, 3).Source
	parse := func() {
		if _, err := lang.Parse(src); err != nil {
			t.Fatal(err)
		}
	}
	got := testing.AllocsPerRun(3, parse)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	parse()
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	if got > parseAllocBudget || bytes > parseByteBudget {
		t.Errorf("Parse allocates %.0f times and %d bytes per run, budget %d and %d", got, bytes, parseAllocBudget, parseByteBudget)
	}
	t.Logf("Parse: %.0f allocs and %d bytes of %d source bytes (budget %d and %d)", got, bytes, len(src), parseAllocBudget, parseByteBudget)
}
