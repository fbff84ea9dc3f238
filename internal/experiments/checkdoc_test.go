package experiments

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ctdf/internal/obs/telemetry"
)

// TestExperimentsDocInSync keeps EXPERIMENTS.md honest: every experiment's
// section must embed the experiment's current table output verbatim (the
// doc right-trims the final table line before the closing code fence),
// link the experiment's JSON artifact, and state its asserted metric.
// If a table goes stale, regenerate it with `go run ./cmd/ctdf experiments`.
func TestExperimentsDocInSync(t *testing.T) {
	s := readDoc(t, "EXPERIMENTS.md")
	for _, e := range All() {
		out, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		block := "```\n" + strings.TrimRight(out, " \n") + "\n```"
		if !strings.Contains(s, block) {
			t.Errorf("%s: EXPERIMENTS.md table is stale (regenerate with `go run ./cmd/ctdf experiments`)", e.ID)
		}
		if !strings.Contains(s, fmt.Sprintf("artifacts/%s", e.Artifact)) {
			t.Errorf("%s: EXPERIMENTS.md does not link artifact %q", e.ID, e.Artifact)
		}
		if !strings.Contains(s, e.Asserts) {
			t.Errorf("%s: EXPERIMENTS.md does not state the asserted metric %q", e.ID, e.Asserts)
		}
	}
}

// TestArtifactsDirInSync verifies the checked-in artifacts/ directory
// holds a current JSON artifact for every experiment.
func TestArtifactsDirInSync(t *testing.T) {
	for _, e := range All() {
		got, err := os.ReadFile("../../artifacts/" + e.Artifact)
		if err != nil {
			t.Fatalf("%s: %v (regenerate with `go run ./cmd/ctdf experiments -json artifacts`)", e.ID, err)
		}
		want, err := e.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if strings.TrimRight(string(got), "\n") != string(want) {
			t.Errorf("%s: artifacts/%s is stale (regenerate with `go run ./cmd/ctdf experiments -json artifacts`)", e.ID, e.Artifact)
		}
	}
}

func readDoc(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// internalPackages returns every directory under internal/ that directly
// contains Go source — i.e. every internal package, including nested
// ones like obs/journal.
func internalPackages(t *testing.T) []string {
	t.Helper()
	root := filepath.Join("..", "..", "internal")
	hasGo := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(d.Name(), ".go") {
			rel, err := filepath.Rel(root, filepath.Dir(path))
			if err != nil {
				return err
			}
			hasGo[filepath.ToSlash(rel)] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []string
	for rel := range hasGo {
		pkgs = append(pkgs, "internal/"+rel)
	}
	return pkgs
}

// TestArchitectureDocsCoverInternalPackages: the README repository
// layout and the DESIGN.md system inventory must each mention every
// internal package, so a new subsystem cannot land undocumented.
func TestArchitectureDocsCoverInternalPackages(t *testing.T) {
	docs := map[string]string{
		"README.md": readDoc(t, "README.md"),
		"DESIGN.md": readDoc(t, "DESIGN.md"),
	}
	for _, pkg := range internalPackages(t) {
		for name, body := range docs {
			if !strings.Contains(body, pkg) {
				t.Errorf("%s does not mention %s (add it to the subsystem map)", name, pkg)
			}
		}
	}
}

// TestTelemetryCatalogDocumented: OBSERVABILITY.md's engine-telemetry
// metric catalog must name every family in telemetry.Catalog(), so a
// metric cannot be added to the engines without a documented row.
func TestTelemetryCatalogDocumented(t *testing.T) {
	doc := readDoc(t, "OBSERVABILITY.md")
	for _, spec := range telemetry.Catalog() {
		if !strings.Contains(doc, "`"+spec.Name+"`") {
			t.Errorf("OBSERVABILITY.md metric catalog is missing %s", spec.Name)
		}
	}
}
