package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// TestMain lets a test re-execute its own binary as the ctdf command
// (CTDF_TEST_MAIN=1), for what only a process can show: the per-command
// -h text, printed just before flag parsing exits.
func TestMain(m *testing.M) {
	if os.Getenv("CTDF_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// goldenCommands are the pinned command lines of one golden file; "$w"
// stands for the file's workload and "$j" for a journal path shared by
// the lines of one file, so a trace that writes it can precede the
// replay that reads it.
var goldenCommands = []string{
	"run -workload $w",
	"run -workload $w -engine channels",
	"run -workload $w -engine interp",
	"dot -workload $w -graph cfg",
	"dot -workload $w -graph dfg -format dot",
	"dot -workload $w -graph dfg -format text",
	"dot -workload $w -graph dfg -format listing",
	"stats -workload $w",
	"opt -workload $w -explain -format text",
	"vet -workload $w",
	"profile -workload $w -events none",
	"trace -workload $w -explain d6 -depth 3",
	"trace -workload $w -impact d3 -depth 3",
	"trace -workload $w -journal $j",
	"replay $j",
}

// goldenVariants pin the flags the commands share, each set away from
// its default, and the JSON and chart renderings.
var goldenVariants = []string{
	"run -workload running-example -schema schema2 -latency 4 -procs 2 -workers 2 -profile",
	"run -workload fortran-alias -schema schema3 -cover class -binding x=z",
	"run -workload fig14-array-stores -elim -parreads -parstores -istructs",
	"run -workload proc-fortran -linked",
	"run -workload fortran-alias -schema schema3 -binding x=z -engine interp",
	"dot -workload fig9-bypass -schema schema2 -elim -format text",
	"opt -workload running-example -schema schema3 -cover monolithic -format listing",
	"vet -workload running-example -schema schema3-opt -json",
	"vet -workload proc-fortran -linked",
	"profile -workload running-example -schema schema2 -events none -latency 3 -procs 2 -workers 2 -vs schema1 -top 3",
	"profile -workload fortran-alias -schema schema3 -binding x=z -events none -json - -top 0",
	"profile -workload fib-iterative -engine channels -events none",
	"trace -workload fortran-alias -schema schema3 -binding x=z -latency 2 -procs 1 -workers 2 -explain d5 -depth 2",
	"aliases -workload proc-fortran",
	"explain -workload running-example",
	"explain -workload unstructured-two-exit -schema schema2 -latency 2",
}

func TestGoldenOutput(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "journal.ndjson")
	files := map[string][]string{"variants": goldenVariants}
	for _, w := range []string{"running-example", "unstructured-two-exit"} {
		for _, c := range goldenCommands {
			files[w] = append(files[w], strings.ReplaceAll(c, "$w", w))
		}
	}
	for name, lines := range files {
		t.Run(name, func(t *testing.T) {
			var got strings.Builder
			for _, line := range lines {
				out, err := capture(t, func() error {
					return dispatch(strings.Fields(strings.ReplaceAll(line, "$j", journal)))
				})
				if err != nil {
					t.Fatalf("ctdf %s: %v", line, err)
				}
				got.WriteString("$ ctdf " + line + "\n" + out)
			}
			checkGolden(t, name+".txt", got.String())
		})
	}
}

// TestGoldenFlags pins every command's flag names, types and defaults as
// `ctdf <cmd> -h` prints them (the help sentences are left free).
func TestGoldenFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("re-executes the test binary once per command")
	}
	entry := regexp.MustCompile(`^  -(\S+)( \S+)?`)
	def := regexp.MustCompile(` \(default .*\)$`)
	var got strings.Builder
	for _, cmd := range []string{
		"aliases", "chaos", "dot", "experiments", "explain", "opt", "profile",
		"replay", "run", "stats", "top", "trace", "vet",
	} {
		c := exec.Command(os.Args[0], cmd, "-h")
		c.Env = append(os.Environ(), "CTDF_TEST_MAIN=1")
		var stderr bytes.Buffer
		c.Stderr = &stderr
		if err := c.Run(); err != nil {
			t.Fatalf("ctdf %s -h: %v\n%s", cmd, err, stderr.String())
		}
		// A flag's entry is its "  -name type" line and the indented
		// usage lines after it; the default, when not the zero value,
		// closes the entry.
		var flagLine, lastLine string
		flush := func() {
			if flagLine != "" {
				got.WriteString(cmd + " " + flagLine + def.FindString(lastLine) + "\n")
			}
		}
		for _, line := range strings.Split(stderr.String(), "\n") {
			if m := entry.FindStringSubmatch(line); m != nil {
				flush()
				flagLine = "-" + m[1] + m[2]
			}
			lastLine = line
		}
		flush()
	}
	checkGolden(t, "flags.txt", got.String())
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the golden (run with -update to accept):\n%s", name, firstDiff(string(want), got))
	}
}

// firstDiff shows the first line where want and got part.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return "line " + strconv.Itoa(i+1) + ":\n  want: " + wl + "\n  got:  " + gl
		}
	}
	return "(lengths differ)"
}
