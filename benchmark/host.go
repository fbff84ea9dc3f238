package main

import (
	"syscall"
	"time"
	"unsafe"
)

// The host the benchmark runs on is shared: for tens of minutes at a time
// its neighbours' cache and memory traffic slow every layer of the
// program together by 20–30 %, while a register-only loop barely notices.
// The calibration kernel is a fixed dependent pointer chase through 64 MB,
// far beyond the last-level cache, which feels that traffic about as much
// as the program does. It is timed before every pass, and every time-based
// metric of a phase is scaled by calibNominal over the phase's
// lower-quartile calibration time: the metrics read in seconds of a quiet
// host. Over 20-second windows that cuts the spread of identical code from
// 8–10 % to 2–3 % in a noisy phase and leaves a quiet phase as it was. The
// unscaled value of every scaled row is kept beside it as "raw".
const (
	calibEntries = 1 << 24 // uint32 each
	calibSteps   = 200_000
	// calibNominal is what the kernel takes on the 2-core reference host
	// when it is quiet. Any constant would do: it only fixes the scale.
	calibNominal = 0.025
)

type host struct {
	chase   []uint32
	at      uint32
	samples []float64
}

// newHost lays the chase out as one random cycle through all entries
// (Sattolo's shuffle, from a fixed generator: the kernel is the same work
// on every run). The entries are mapped outside the Go heap: 64 MB of
// live heap would raise the collector's goal and spare the measured
// program most of the collections a user's process pays for.
func newHost() (*host, error) {
	mem, err := syscall.Mmap(-1, 0, 4*calibEntries, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	h := &host{chase: unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), calibEntries)}
	for i := range h.chase {
		h.chase[i] = uint32(i)
	}
	x := uint64(88172645463325252)
	for i := len(h.chase) - 1; i > 0; i-- {
		x = x*6364136223846793005 + 1442695040888963407
		j := int((x >> 33) % uint64(i))
		h.chase[i], h.chase[j] = h.chase[j], h.chase[i]
	}
	return h, nil
}

// calibrate times the kernel once.
func (h *host) calibrate() {
	start := time.Now()
	at := h.at
	for i := 0; i < calibSteps; i++ {
		at = h.chase[at]
	}
	h.at = at
	h.samples = append(h.samples, time.Since(start).Seconds())
}

// factor is the scale that takes times measured since sample number from
// to quiet-host seconds.
func (h *host) factor(from int) float64 {
	return ratio(calibNominal, summarize(h.samples[from:]).P25)
}

// scaled is the row for samples under host factor f: times are
// multiplied by it, rates divided, everything else left alone.
func scaled(name, unit string, samples []float64, f float64) metric {
	switch unit {
	case "s":
	case "1/s", "B/s":
		f = 1 / f
	default:
		return sampled(name, unit, samples)
	}
	xs := make([]float64, len(samples))
	for i, x := range samples {
		xs[i] = x * f
	}
	m := sampled(name, unit, xs)
	m.Raw = m.Value / f
	return m
}
