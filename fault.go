package ctdf

import (
	"ctdf/internal/fault"
)

// FaultClass names one injectable fault class (see ROBUSTNESS.md and the
// `ctdf chaos` command). Fault injection exists to prove the machine
// checks have teeth: every injected fault must be caught by a named check
// or by oracle mismatch.
type FaultClass = fault.Class

// The fault classes.
const (
	// FaultDropToken discards a token delivered to a matching operator.
	FaultDropToken = fault.DropToken
	// FaultDupToken delivers such a token twice.
	FaultDupToken = fault.DupToken
	// FaultCorruptTag wraps such a token's tag in a bogus loop context.
	FaultCorruptTag = fault.CorruptTag
	// FaultLoseMemResponse discards a split-phase memory response
	// (EngineMachine only).
	FaultLoseMemResponse = fault.LoseMemResponse
	// FaultDelayMemResponse delays a split-phase memory response without
	// losing it (EngineMachine only) — the determinacy negative control:
	// the run must tolerate it and produce the oracle's exact result.
	FaultDelayMemResponse = fault.DelayMemResponse
	// FaultMisfireValue makes an arithmetic operator produce a wrong
	// value.
	FaultMisfireValue = fault.MisfireValue
	// FaultWedgeMailbox freezes an operator's mailbox (EngineChannels
	// only); with a Deadline set, the watchdog reports ErrDeadlock.
	FaultWedgeMailbox = fault.WedgeMailbox
)

// FaultClasses returns every fault class in stable order.
func FaultClasses() []FaultClass { return fault.Classes() }

// ParseFaultClass parses a fault class name.
func ParseFaultClass(s string) (FaultClass, error) { return fault.ParseClass(s) }

// FaultPlan selects one fault to inject into a run: its Class, the
// 1-based Site to hit (0 runs a counting pass that injects nothing but
// reports the site count in Result.Fault.Sites; pick a site from a seed
// with PickFaultSite), and the Delay of FaultDelayMemResponse.
type FaultPlan = fault.Plan

// FaultReport describes what the injector saw and did during a run.
type FaultReport struct {
	// Class is the planned fault class.
	Class FaultClass
	// Sites is the number of eligible injection sites the run offered.
	Sites int64
	// Injected reports whether the fault actually fired.
	Injected bool
}

// PickFaultSite maps a seed onto a 1-based site index given a counting
// pass's site count.
func PickFaultSite(seed, sites int64) int64 { return fault.PickSite(seed, sites) }
