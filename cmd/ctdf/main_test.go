package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture runs f with os.Stdout redirected and returns what it printed.
func capture(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	ferr := f()
	w.Close()
	os.Stdout = old
	return <-done, ferr
}

func TestCmdRunWorkload(t *testing.T) {
	out, err := capture(t, func() error {
		return cmdRun([]string{"-workload", "running-example", "-schema", "schema2", "-latency", "4"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"schema: schema2", "cycles:", "x=5", "y=5"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdRunFile(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "p.cf")
	if err := os.WriteFile(file, []byte("var x\nx := 41 + 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error { return cmdRun([]string{file}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "x=42") {
		t.Errorf("output missing x=42:\n%s", out)
	}
}

func TestCmdRunInterp(t *testing.T) {
	out, err := capture(t, func() error {
		return cmdRun([]string{"-workload", "gcd", "-engine", "interp"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "a=21") || !strings.Contains(out, "interpreter") {
		t.Errorf("interp output wrong:\n%s", out)
	}
}

func TestCmdRunChannels(t *testing.T) {
	out, err := capture(t, func() error {
		return cmdRun([]string{"-workload", "fib-iterative", "-engine", "channels"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "a=144") || !strings.Contains(out, "ops:") {
		t.Errorf("channels output wrong:\n%s", out)
	}
}

// A linked graph goes through -legalize (it panicked before graphs were
// edited in one place) and computes what the unlegalized run prints.
func TestCmdRunLinkedLegalize(t *testing.T) {
	out, err := capture(t, func() error {
		return cmdRun([]string{"-workload", "proc-fortran", "-linked", "-legalize"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"a=6\n", "b=2\n", "c=20\n", "d=30\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdRunBinding(t *testing.T) {
	out, err := capture(t, func() error {
		return cmdRun([]string{"-workload", "fortran-alias", "-schema", "schema3", "-binding", "x=z"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "x=30") {
		t.Errorf("binding not applied:\n%s", out)
	}
}

func TestCmdDotFormats(t *testing.T) {
	for format, want := range map[string]string{
		"dot":     "digraph dfg",
		"text":    "ctdf-dataflow v1",
		"listing": "=>",
	} {
		out, err := capture(t, func() error {
			return cmdDot([]string{"-workload", "diamond", "-format", format})
		})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, want) {
			t.Errorf("format %s output missing %q", format, want)
		}
	}
	out, err := capture(t, func() error {
		return cmdDot([]string{"-workload", "diamond", "-graph", "cfg"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "digraph cfg") {
		t.Errorf("cfg dot wrong:\n%s", out)
	}
}

func TestCmdStats(t *testing.T) {
	out, err := capture(t, func() error {
		return cmdStats([]string{"-workload", "fig9-bypass"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"schema1", "schema2-opt", "switches"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdAliases(t *testing.T) {
	out, err := capture(t, func() error {
		return cmdAliases([]string{"-workload", "proc-fortran"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "[z] = {x, y, z}") {
		t.Errorf("aliases output wrong:\n%s", out)
	}
}

func TestCmdExplain(t *testing.T) {
	out, err := capture(t, func() error {
		return cmdExplain([]string{"-workload", "fig9-bypass"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"control-flow graph", "postdominators", "control dependences",
		"switch placement", "source vectors", "dataflow graph",
		"matches the sequential interpreter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q", want)
		}
	}
}

func TestCmdExplainWithLoops(t *testing.T) {
	out, err := capture(t, func() error {
		return cmdExplain([]string{"-workload", "running-example", "-schema", "schema2"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "interval transformation") || !strings.Contains(out, "loop entry") {
		t.Errorf("explain output missing loop sections:\n%s", out[:200])
	}
}

func TestCmdExperimentsSingle(t *testing.T) {
	out, err := capture(t, func() error { return cmdExperiments([]string{"E1"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "E1:") || strings.Contains(out, "E2:") {
		t.Errorf("experiment filter wrong:\n%s", out)
	}
}

func TestCmdWorkloads(t *testing.T) {
	out, err := capture(t, func() error { return cmdWorkloads() })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "running-example") || !strings.Contains(out, "Figure 1") {
		t.Errorf("workloads listing wrong:\n%s", out)
	}
}

func TestCmdErrors(t *testing.T) {
	if _, err := capture(t, func() error { return cmdRun([]string{"-workload", "nope"}) }); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := capture(t, func() error { return cmdRun([]string{"-schema", "zorp", "-workload", "gcd"}) }); err == nil {
		t.Error("unknown schema accepted")
	}
	if _, err := capture(t, func() error { return cmdRun([]string{"-binding", "x", "-workload", "gcd"}) }); err == nil {
		t.Error("bad binding accepted")
	}
	if _, err := capture(t, func() error { return cmdRun([]string{}) }); err == nil {
		t.Error("missing source accepted")
	}
	if _, err := capture(t, func() error { return cmdRun([]string{"-workload", "fib-iterative", "other.src"}) }); err == nil {
		t.Error("stray argument after -workload accepted")
	}
	if _, err := capture(t, func() error { return cmdDot([]string{"-workload", "gcd", "-format", "zorp"}) }); err == nil {
		t.Error("unknown format accepted")
	}
}

// TestUnknownCommandIsNamed: main prints a dispatch error to stderr and,
// for a usageError, the usage block after it — so a retired command (the
// bench subcommand) is named, not answered with the bare usage text.
func TestUnknownCommandIsNamed(t *testing.T) {
	err := dispatch([]string{"bench", "-smoke"})
	var bad usageError
	if !errors.As(err, &bad) || !strings.Contains(err.Error(), `unknown command "bench"`) {
		t.Errorf("dispatch(bench) = %v, want a usageError naming the command", err)
	}
	if err := dispatch(nil); !errors.As(err, &bad) {
		t.Errorf("dispatch() = %v, want a usageError", err)
	}
	if strings.Contains(usageText, "bench") {
		t.Errorf("usage still lists a bench command:\n%s", usageText)
	}
	for name := range commands {
		if !strings.Contains(usageText, "  ctdf "+name+" ") && !strings.Contains(usageText, "  ctdf "+name+"\n") {
			t.Errorf("usage does not list the %s command", name)
		}
	}
}
