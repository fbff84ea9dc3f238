package ctdf

import (
	"ctdf/internal/vet"
)

// VetReport is the outcome of verifying one dataflow graph: the findings
// (Diags, grouped by pass in registry order), the passes that ran and
// those that skipped, and the error and warning counts.
type VetReport = vet.Report

// VetDiagnostic is one finding of one verification pass: its severity,
// the machine check the defect would trip at run time, the node it
// anchors to, and the paper's violated condition.
type VetDiagnostic = vet.Diagnostic

// VetSkip records a verification pass that could not run and why.
type VetSkip = vet.SkippedPass

// Vet statically verifies the dataflow graph against the paper's
// correctness conditions: structural invariants, token balance (§3),
// determinacy (§2.2/§5), switch placement (Theorem 1, Figure 10), source
// vectors (Figure 11), and alias-cover soundness (§5, Figure 13). A graph
// produced by Translate should always verify clean; diagnostics on a
// hand-edited or transformed graph locate the violated condition. See
// ANALYSIS.md for the pass and diagnostics reference.
func (d *Dataflow) Vet() *VetReport { return vet.Run(d.res.Graph, d.res) }
