package telemetry

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// OpenMetrics renders the snapshot in the OpenMetrics text exposition
// format (the Prometheus scrape format, version 1.0.0): one metadata
// block per family (# TYPE, # UNIT for seconds families, # HELP),
// samples in series-creation order, and a terminal # EOF. Counter
// samples carry the _total suffix; histogram samples expose cumulative
// _bucket series plus _count and _sum. The output is byte-exact for a
// deterministic snapshot and pinned by goldens.
func (s *Snapshot) OpenMetrics() []byte {
	var b strings.Builder
	for _, f := range s.Families {
		name := f.Name
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, f.Kind)
		if f.Unit != "" {
			fmt.Fprintf(&b, "# UNIT %s %s\n", name, f.Unit)
		}
		fmt.Fprintf(&b, "# HELP %s %s\n", name, escapeHelp(f.Help))
		for _, ser := range f.Series {
			switch f.Kind {
			case KindCounter:
				fmt.Fprintf(&b, "%s_total%s %s\n", name, labelSet(f.Labels, ser.Labels, "", ""), strconv.FormatInt(ser.Value, 10))
			case KindGauge:
				fmt.Fprintf(&b, "%s%s %s\n", name, labelSet(f.Labels, ser.Labels, "", ""), strconv.FormatInt(ser.Value, 10))
			case KindHistogram:
				cum := int64(0)
				for i, n := range ser.Buckets {
					cum += n
					le := "+Inf"
					if i < len(f.Buckets) {
						le = formatValue(f.Buckets[i], f.Unit)
					}
					fmt.Fprintf(&b, "%s_bucket%s %s\n", name, labelSet(f.Labels, ser.Labels, "le", le), strconv.FormatInt(cum, 10))
				}
				fmt.Fprintf(&b, "%s_count%s %s\n", name, labelSet(f.Labels, ser.Labels, "", ""), strconv.FormatInt(ser.Count, 10))
				fmt.Fprintf(&b, "%s_sum%s %s\n", name, labelSet(f.Labels, ser.Labels, "", ""), formatValue(ser.Sum, f.Unit))
			}
		}
	}
	b.WriteString("# EOF\n")
	return []byte(b.String())
}

// formatValue renders a stored int64 in the family's exposition unit:
// seconds families store nanoseconds and render as float seconds.
func formatValue(v int64, unit string) string {
	if unit == "seconds" {
		return strconv.FormatFloat(float64(v)/1e9, 'g', -1, 64)
	}
	return strconv.FormatInt(v, 10)
}

// labelSet renders {k="v",...}, appending one extra pair (the
// histogram le label) when extraKey is non-empty.
func labelSet(keys, vals []string, extraKey, extraVal string) string {
	if len(keys) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(vals[i]))
		b.WriteByte('"')
	}
	if extraKey != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraKey)
		b.WriteString(`="`)
		b.WriteString(extraVal)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func escapeHelp(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

// PhaseTable renders the human profile: per-phase wall time, the run's
// counters, and the lane → shard traffic matrix. Shares are fractions of
// the total busy time accounted across all rows.
func (s *Snapshot) PhaseTable() string {
	b := s.MachineBreakdown()
	var out strings.Builder
	total := b.SelectNs
	for i := range b.FireNs {
		total += b.FireNs[i] + b.DeliverNs[i]
	}
	out.WriteString("phase breakdown (busy wall time)\n")
	out.WriteString("  phase    shard      time    share\n")
	row := func(phase, shard string, ns int64) {
		fmt.Fprintf(&out, "  %-8s %-5s %9s  %6s\n", phase, shard, fmtDur(ns), fmtShare(ns, total))
	}
	row("select", "seq", b.SelectNs)
	for i, ns := range b.FireNs {
		row("fire", strconv.Itoa(i), ns)
	}
	for i, ns := range b.DeliverNs {
		row("deliver", strconv.Itoa(i), ns)
	}
	fmt.Fprintf(&out, "  cycles %d  firings %d  tokens %d  matches %d\n",
		b.Cycles, b.Firings, b.Tokens, b.Matches)
	if len(b.Traffic) > 0 {
		out.WriteString(trafficMatrix(b))
	}
	return out.String()
}

// trafficMatrix renders the src→dst token matrix.
func trafficMatrix(b *MachineBreakdown) string {
	srcs, dsts := []string{}, []string{}
	cells := map[[2]string]int64{}
	seen := map[string]bool{}
	seenDst := map[string]bool{}
	for _, c := range b.Traffic {
		cells[[2]string{c.Src, c.Dst}] += c.Tokens
		if !seen[c.Src] {
			seen[c.Src] = true
			srcs = append(srcs, c.Src)
		}
		if !seenDst[c.Dst] {
			seenDst[c.Dst] = true
			dsts = append(dsts, c.Dst)
		}
	}
	sortLanes(srcs)
	sortLanes(dsts)
	var out strings.Builder
	out.WriteString("token traffic (src lane rows / dst shard columns)\n")
	fmt.Fprintf(&out, "  %6s", "src\\dst")
	for _, d := range dsts {
		fmt.Fprintf(&out, " %8s", d)
	}
	out.WriteByte('\n')
	for _, s := range srcs {
		fmt.Fprintf(&out, "  %6s", s)
		for _, d := range dsts {
			fmt.Fprintf(&out, " %8d", cells[[2]string{s, d}])
		}
		out.WriteByte('\n')
	}
	return out.String()
}

// sortLanes orders numeric shard ids numerically and places the seq
// and mem lanes after them.
func sortLanes(lanes []string) {
	rank := func(s string) (int, int) {
		if n, err := strconv.Atoi(s); err == nil {
			return 0, n
		}
		if s == "seq" {
			return 1, 0
		}
		return 2, 0
	}
	sort.Slice(lanes, func(i, j int) bool {
		ci, ni := rank(lanes[i])
		cj, nj := rank(lanes[j])
		if ci != cj {
			return ci < cj
		}
		return ni < nj
	})
}

func fmtDur(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.3fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.3fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

func fmtShare(part, total int64) string {
	if total <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(part)/float64(total))
}
