package telemetry_test

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"cpx/internal/cluster"
	"cpx/internal/coupler"
	"cpx/internal/mpi"
	"cpx/internal/telemetry"
)

// refCSVHeader is the long-format CSV column set.
const refCSVHeader = "series,rank,t,compute_s,comm_s,wait_s,msgs_sent,msgs_recv,bytes_sent,bytes_recv,collectives,mailbox_depth\n"

func refWriteCSVRow(w io.Writer, series string, rank int, s telemetry.Sample) error {
	_, err := fmt.Fprintf(w, "%s,%d,%g,%g,%g,%g,%d,%d,%d,%d,%d,%d\n",
		series, rank, s.T, s.Compute, s.Comm, s.Wait,
		s.MsgsSent, s.MsgsRecv, s.BytesSent, s.BytesRecv, s.Collectives, s.MailboxDepth)
	return err
}

// referenceWriteCSV is the row-at-a-time fmt encoder WriteCSV replaced.
// WriteCSV must write its bytes exactly wherever a label needs no CSV
// quoting.
func referenceWriteCSV(rs *telemetry.RunSeries, w io.Writer) error {
	if _, err := io.WriteString(w, refCSVHeader); err != nil {
		return err
	}
	for _, ser := range rs.Ranks {
		for _, s := range ser.Samples {
			if err := refWriteCSVRow(w, "rank", ser.Rank, s); err != nil {
				return err
			}
		}
	}
	for _, ls := range rs.Components {
		for _, s := range ls.Samples {
			if err := refWriteCSVRow(w, ls.Label, -1, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func checkCSVMatchesReference(t *testing.T, rs *telemetry.RunSeries) {
	t.Helper()
	var got, want bytes.Buffer
	if err := rs.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if err := referenceWriteCSV(rs, &want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("output differs from the reference:\n got  %q\n want %q", got.String(), want.String())
	}
}

func TestWriteCSVMatchesReference(t *testing.T) {
	negZero := math.Copysign(0, -1)
	odd := telemetry.Sample{T: 5e-324, Compute: math.NaN(), Comm: math.Inf(1), Wait: math.Inf(-1),
		MsgsSent: math.MaxUint64, MailboxDepth: math.MinInt64}
	many := make([]telemetry.Sample, 2000) // several chunks
	for i := range many {
		many[i] = telemetry.Sample{T: float64(i+1) * 1e-3, Compute: float64(i) / 7, Comm: 1e-5 * float64(i),
			Wait: 1e21 * float64(i), MsgsSent: uint64(i), MsgsRecv: uint64(2 * i), BytesSent: uint64(i) << 20,
			BytesRecv: 3, Collectives: uint64(i % 9), MailboxDepth: int64(i%5 - 2)}
	}
	cases := map[string]*telemetry.RunSeries{
		"empty":      {},
		"no samples": {Ranks: []telemetry.RankSeries{{Rank: 3}}, Components: []telemetry.LabelSeries{{Label: "x"}}},
		"odd values": {
			Ranks: []telemetry.RankSeries{{Rank: -1, Samples: []telemetry.Sample{
				odd, {T: negZero, Compute: 1e-5, Comm: 123456.789, Wait: 1e21}, {T: 1e20, Compute: 1 / 3.0, Comm: 1e-4, Wait: 100000},
			}}},
			Components: []telemetry.LabelSeries{{Label: "", Samples: []telemetry.Sample{odd}}},
		},
		"chunks": {
			Ranks:      []telemetry.RankSeries{{Rank: 0, Samples: many}, {Rank: 1, Samples: many[:7]}},
			Components: []telemetry.LabelSeries{{Label: "row1 (24M)", Samples: many}, {Label: "CU rows 1-2 (sliding)", Samples: many[:3]}},
		},
	}
	for name, rs := range cases {
		t.Run(name, func(t *testing.T) { checkCSVMatchesReference(t, rs) })
	}
}

// TestWriteCSVMatchesReferenceOnCoupledRun replays a coupled run's
// metric series, two MG-CFD instances and a sliding-plane unit,
// through both encoders.
func TestWriteCSVMatchesReferenceOnCoupledRun(t *testing.T) {
	sim := &coupler.Simulation{
		Instances: []coupler.InstanceSpec{
			{Name: "small", Kind: coupler.KindMGCFD, MeshCells: 1024, Ranks: 4, Seed: 1},
			{Name: "big", Kind: coupler.KindMGCFD, MeshCells: 262144, Ranks: 4, Seed: 2},
		},
		Units: []coupler.UnitSpec{
			{Name: "cu", A: 0, B: 1, Kind: coupler.SlidingPlane, Points: 2000, Ranks: 2, Search: coupler.Tree, ExchangeEvery: 2},
		},
		DensitySteps:    3,
		RotationPerStep: 0.001,
		Scale:           coupler.Scale{MaxPointsPerSide: 256},
	}
	rep, err := sim.Run(mpi.Config{Machine: cluster.SmallCluster(),
		Metrics: &telemetry.Config{Interval: 1e-3}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Metrics.Components) != 3 || len(rep.Metrics.Components[0].Samples) < 10 {
		t.Fatalf("coupled run has %d component series, want 3 of at least 10 samples", len(rep.Metrics.Components))
	}
	checkCSVMatchesReference(t, rep.Metrics)
}

// TestWriteCSVQuotesComponentLabels: any instance or unit name may be a
// component label, and the CSV must read back through encoding/csv with
// every label intact.
func TestWriteCSVQuotesComponentLabels(t *testing.T) {
	labels := []string{`row 1, "hp"`, "plain", " leading space", "line\nbreak", `say "hi"`, "", `\.`, "a,b"}
	rs := &telemetry.RunSeries{Ranks: []telemetry.RankSeries{{Rank: 0, Samples: []telemetry.Sample{{T: 1}}}}}
	for _, l := range labels {
		rs.Components = append(rs.Components, telemetry.LabelSeries{Label: l, Samples: []telemetry.Sample{{T: 1}, {T: 2}}})
	}
	var buf strings.Builder
	if err := rs.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(buf.String())).ReadAll()
	if err != nil {
		t.Fatalf("metrics CSV does not parse: %v\n%s", err, buf.String())
	}
	if len(recs) != 1+1+2*len(labels) {
		t.Fatalf("%d records, want %d", len(recs), 1+1+2*len(labels))
	}
	for i, l := range labels {
		for _, rec := range recs[2+2*i : 4+2*i] {
			if rec[0] != l || rec[1] != "-1" {
				t.Errorf("component row %q, want label %q at rank -1", rec, l)
			}
		}
	}
}
