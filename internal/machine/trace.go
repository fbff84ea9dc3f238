package machine

import "ctdf/internal/obs"

// ProfileChart renders the parallelism profile as an ASCII bar chart:
// time flows left to right (bucketed to fit width), bar height is the
// number of operations issued. The rendering lives in the shared
// observability package, like the historical trace-line format
// (obs.WriteTrace, rendered from a collector's record after the run).
func (s Stats) ProfileChart(width, height int) string {
	return obs.ProfileChart(s.Profile, s.Cycles, width, height)
}
