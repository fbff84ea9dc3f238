package lang_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ctdf/internal/lang"
	"ctdf/internal/workloads"
)

// frontEndFragments are what the random inputs of
// TestParseMatchesReference are strung from: every token of the language,
// the ones that only lex in pairs, comments, and the characters that take
// the lexer off its ASCII path — a letter and a digit outside ASCII, two
// spaces outside ASCII (U+00A0, U+2028), a lone continuation byte, a
// truncated sequence and an invalid byte.
var frontEndFragments = []string{
	"var", "array", "alias", "proc", "call", "if", "then", "else", "goto", "while", "end",
	"x", "y", "a", "l", "_t1", "é", "xé", "٣", "x٣",
	"0", "1", "42", "99999999999999999999",
	":=", ":", "==", "=", "!=", "!", "<", "<=", ">", ">=", "&&", "&", "||", "|",
	"+", "-", "*", "/", "%", "~", "[", "]", "{", "}", "(", ")", ",",
	"//", "#", " ", "\t", "\n", "\n", "\r\n", "\u00a0", "\u2028",
	"\x80", "\xc3", "\xff",
}

// frontEndInputs returns the differential test's inputs: the committed
// workloads, 20 seeds of every generator, the FuzzParse seeds and the
// committed fuzz corpora of FuzzParse and FuzzCompileVet, then n random
// strings — half strung from frontEndFragments, half workload sources
// with fragments spliced in, so that errors are also met deep in a program.
func frontEndInputs(t *testing.T, n int) []string {
	var in []string
	var sources []string
	for _, w := range workloads.All() {
		sources = append(sources, w.Source)
	}
	for seed := int64(0); seed < 20; seed++ {
		for _, w := range []workloads.Workload{
			workloads.Random(seed, 24, 3),
			workloads.RandomAliased(seed, 16, 3),
			workloads.RandomUnstructured(seed, 16),
			workloads.RandomMultiLatch(seed, 16),
			workloads.RandomIrreducible(seed, 16),
			workloads.RandomMultiExit(seed, 16),
			workloads.RandomProcs(seed, 4),
			workloads.KEntry(int(seed%6) + 2),
			workloads.Wide(int(seed%4)+1, int(seed)+1),
		} {
			sources = append(sources, w.Source)
		}
	}
	in = append(in, sources...)
	in = append(in, lang.ParseSeeds...)
	for _, dir := range []string{"testdata/fuzz/FuzzParse", "../../testdata/fuzz/FuzzCompileVet"} {
		in = append(in, corpus(t, dir)...)
	}

	rng := rand.New(rand.NewSource(1))
	frag := func() string { return frontEndFragments[rng.Intn(len(frontEndFragments))] }
	for i := 0; i < n; i++ {
		var b strings.Builder
		if i%2 == 0 {
			for k := rng.Intn(40); k > 0; k-- {
				b.WriteString(frag())
				if rng.Intn(3) == 0 {
					b.WriteByte(' ')
				}
			}
		} else {
			src := sources[rng.Intn(len(sources))]
			for k := rng.Intn(3) + 1; k > 0; k-- {
				at := rng.Intn(len(src) + 1)
				cut := at + rng.Intn(3)
				if cut > len(src) {
					cut = len(src)
				}
				src = src[:at] + frag() + src[cut:]
			}
			b.WriteString(src)
		}
		in = append(in, b.String())
	}
	return in
}

// corpus reads the string inputs of a committed fuzz corpus directory;
// a missing directory has none.
func corpus(t *testing.T, dir string) []string {
	files, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			lit, ok := strings.CutPrefix(line, "string(")
			if !ok {
				continue
			}
			s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
			if err != nil {
				t.Fatalf("%s: %v", f.Name(), err)
			}
			out = append(out, s)
		}
	}
	return out
}

// TestParseMatchesReference holds Parse to the reference front end (the
// lexer over a []rune and the parser over a materialised token slice,
// kept in ref_test.go): on every input, the same program with the same
// positions, or the same error string.
func TestParseMatchesReference(t *testing.T) {
	inputs := frontEndInputs(t, 20_000)
	bad := 0
	for _, src := range inputs {
		if d := lang.DiffParse(src); d != "" {
			t.Errorf("%q: %s", src, d)
			if bad++; bad == 10 {
				t.Fatal("too many differences")
			}
		}
	}
	t.Logf("%d inputs", len(inputs))
}
