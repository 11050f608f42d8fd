package telemetry

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"strconv"
	"strings"

	"cpx/internal/order"
)

// RankSeries is one rank's completed time-series.
type RankSeries struct {
	Rank int `json:"rank"`
	// Samples are the stored boundary samples, in virtual-time order
	// (sample i sits at T = (i+1)*Interval until the storage cap).
	Samples []Sample `json:"samples"`
	// Dropped counts boundary samples discarded after the cap.
	Dropped int `json:"dropped,omitempty"`
	// Totals holds the cumulative counters at the rank's final clock
	// (Totals.T is the rank's exit time, off the sample grid).
	Totals Sample `json:"totals"`
}

// LabelSeries is an aggregated per-component time-series: the
// element-wise sum of the member ranks' samples.
type LabelSeries struct {
	Label   string   `json:"label"`
	Ranks   int      `json:"ranks"`
	Samples []Sample `json:"samples"`
	Totals  Sample   `json:"totals"`
}

// RunSeries is the complete metrics product of one run.
type RunSeries struct {
	Interval float64      `json:"interval_s"`
	Ranks    []RankSeries `json:"ranks"`
	// Components is the per-component aggregation, filled by callers
	// that know the rank→component mapping (the coupler).
	Components []LabelSeries `json:"components,omitempty"`
}

// Finalize assembles the RunSeries from a run's collectors (indexed by
// world rank), materialising each rank's mailbox-depth gauge from its
// receiver-side arrival buckets. Every input is a virtual timestamp or
// a count derived from one, so the result is a pure function of the
// run's virtual-time history.
func Finalize(collectors []*Collector) *RunSeries {
	if len(collectors) == 0 {
		return nil
	}
	rs := &RunSeries{Interval: collectors[0].interval, Ranks: make([]RankSeries, len(collectors))}
	for r, c := range collectors {
		ser := RankSeries{Rank: c.rank, Samples: c.samples, Dropped: c.dropped, Totals: c.cur}
		// Prefix-sum the arrival buckets onto the sample grid: depth at
		// sample k = arrivals with arrival <= k*interval − receives
		// completed by k*interval.
		buckets := c.arrivals
		arrived := uint64(0)
		totalArrived := uint64(0)
		for _, n := range buckets {
			totalArrived += n
		}
		next := 0
		for i := range ser.Samples {
			k := i + 1
			for next < len(buckets) && next <= k {
				arrived += buckets[next]
				next++
			}
			ser.Samples[i].MailboxDepth = int64(arrived) - int64(ser.Samples[i].MsgsRecv)
		}
		ser.Totals.MailboxDepth = int64(totalArrived) - int64(ser.Totals.MsgsRecv)
		rs.Ranks[r] = ser
	}
	return rs
}

// AggregateBy sums the per-rank series into one series per label (e.g.
// the coupled simulation's instance/unit names). Ranks whose series is
// shorter than the label's longest member contribute their final stored
// sample to the remaining points — the counters are cumulative, so a
// finished rank's contribution correctly stays flat. Labels are emitted
// in sorted order.
func (rs *RunSeries) AggregateBy(label func(rank int) string) []LabelSeries {
	members := make(map[string][]int)
	for r := range rs.Ranks {
		l := label(rs.Ranks[r].Rank)
		members[l] = append(members[l], r)
	}
	out := make([]LabelSeries, 0, len(members))
	for _, l := range order.SortedKeys(members) {
		ls := LabelSeries{Label: l, Ranks: len(members[l])}
		maxLen := 0
		for _, r := range members[l] {
			if n := len(rs.Ranks[r].Samples); n > maxLen {
				maxLen = n
			}
		}
		ls.Samples = make([]Sample, maxLen)
		for i := 0; i < maxLen; i++ {
			ls.Samples[i].T = float64(i+1) * rs.Interval
		}
		for _, r := range members[l] {
			ser := &rs.Ranks[r]
			for i := 0; i < maxLen; i++ {
				j := i
				if j >= len(ser.Samples) {
					j = len(ser.Samples) - 1
				}
				if j < 0 {
					continue
				}
				s := ser.Samples[j]
				s.T = 0 // keep the grid time set above
				ls.Samples[i].add(s)
			}
			ls.Totals.add(ser.Totals)
		}
		// add() has no business summing exit times; report the latest.
		t := 0.0
		for _, r := range members[l] {
			if rs.Ranks[r].Totals.T > t {
				t = rs.Ranks[r].Totals.T
			}
		}
		ls.Totals.T = t
		out = append(out, ls)
	}
	return out
}

// WriteJSON emits the series as indented JSON.
func (rs *RunSeries) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rs)
}

// csvHeader is the long-format CSV column set.
const csvHeader = "series,rank,t,compute_s,comm_s,wait_s,msgs_sent,msgs_recv,bytes_sent,bytes_recv,collectives,mailbox_depth\n"

// csvChunk is how many encoded bytes WriteCSV gathers before handing
// them to its writer.
const csvChunk = 64 << 10

// appendCSVRow appends one sample row whose series field is already
// CSV-encoded. Floats are shortest 'g', as fmt's %g writes them.
func appendCSVRow(b []byte, series string, rank int, s Sample) []byte {
	b = append(b, series...)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(rank), 10)
	for _, f := range [...]float64{s.T, s.Compute, s.Comm, s.Wait} {
		b = append(b, ',')
		b = strconv.AppendFloat(b, f, 'g', -1, 64)
	}
	for _, n := range [...]uint64{s.MsgsSent, s.MsgsRecv, s.BytesSent, s.BytesRecv, s.Collectives} {
		b = append(b, ',')
		b = strconv.AppendUint(b, n, 10)
	}
	b = append(b, ',')
	b = strconv.AppendInt(b, s.MailboxDepth, 10)
	return append(b, '\n')
}

// csvField returns s as encoding/csv writes a field: quoted, inner
// quotes doubled, only where it must be (a comma, quote or line break
// inside, or leading white space).
func csvField(s string) string {
	var sb strings.Builder
	cw := csv.NewWriter(&sb)
	cw.Write([]string{s}) // a strings.Builder does not fail
	cw.Flush()
	return strings.TrimSuffix(sb.String(), "\n")
}

// WriteCSV emits the series in long format: one row per sample, rank
// series first (series column "rank"), then any per-component
// aggregations (series column = the component label, rank -1). Rows go
// to w in chunks of about csvChunk bytes.
func (rs *RunSeries) WriteCSV(w io.Writer) error {
	buf := make([]byte, 0, csvChunk+1<<10)
	buf = append(buf, csvHeader...)
	row := func(series string, rank int, s Sample) error {
		buf = appendCSVRow(buf, series, rank, s)
		if len(buf) < csvChunk {
			return nil
		}
		_, err := w.Write(buf)
		buf = buf[:0]
		return err
	}
	for _, ser := range rs.Ranks {
		for _, s := range ser.Samples {
			if err := row("rank", ser.Rank, s); err != nil {
				return err
			}
		}
	}
	for _, ls := range rs.Components {
		label := csvField(ls.Label)
		for _, s := range ls.Samples {
			if err := row(label, -1, s); err != nil {
				return err
			}
		}
	}
	if len(buf) == 0 {
		return nil
	}
	_, err := w.Write(buf)
	return err
}
