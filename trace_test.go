package aequitas

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"aequitas/internal/qos"
	"aequitas/internal/rpc"
	"aequitas/internal/sim"
)

func TestTraceWriter(t *testing.T) {
	var buf bytes.Buffer
	cfg := SimConfig{
		Hosts:       4,
		Seed:        3,
		Duration:    5 * time.Millisecond,
		Warmup:      time.Millisecond,
		TraceWriter: NewCSVTrace(&buf),
		Traffic: []HostTraffic{{
			AvgLoad: 0.3,
			Classes: []TrafficClass{
				{Priority: PC, Share: 0.6, FixedBytes: 8 << 10},
				{Priority: BE, Share: 0.4, FixedBytes: 32 << 10},
			},
		}},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := csv.NewReader(&buf)
	records, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) < 2 {
		t.Fatalf("trace has %d rows", len(records))
	}
	header := strings.Join(records[0], ",")
	if header != traceCSVHeader {
		t.Fatalf("header = %q", header)
	}
	// Row count matches completions counted by the collector.
	if int64(len(records)-1) != res.Completed {
		t.Errorf("trace rows %d != completed %d", len(records)-1, res.Completed)
	}
	lastT := 0.0
	for i, rec := range records[1:] {
		if len(rec) != 11 {
			t.Fatalf("row %d has %d fields", i, len(rec))
		}
		ts, err := strconv.ParseFloat(rec[0], 64)
		if err != nil || ts < lastT {
			t.Fatalf("row %d: bad/unordered timestamp %q", i, rec[0])
		}
		lastT = ts
		if src, _ := strconv.Atoi(rec[1]); src < 0 || src > 3 {
			t.Fatalf("row %d: src %q", i, rec[1])
		}
		switch rec[7] {
		case "admit", "downgrade":
		default:
			t.Fatalf("row %d: decision %q", i, rec[7])
		}
		p, err := strconv.ParseFloat(rec[8], 64)
		if err != nil || p < 0 || p > 1 {
			t.Fatalf("row %d: p_admit %q", i, rec[8])
		}
		rnl, err := strconv.ParseFloat(rec[10], 64)
		if err != nil || rnl <= 0 {
			t.Fatalf("row %d: rnl %q", i, rec[10])
		}
		switch rec[3] {
		case "PC", "NC", "BE":
		default:
			t.Fatalf("row %d: priority %q", i, rec[3])
		}
	}
}

// fullDisk accepts room bytes, then fails every write, counting the
// writes it was asked for after the first failure.
type fullDisk struct{ room, late int }

var errDiskFull = errors.New("disk full")

func (d *fullDisk) Write(p []byte) (int, error) {
	if d.room < 0 {
		d.late++
		return 0, errDiskFull
	}
	if len(p) > d.room {
		n := d.room
		d.room = -1
		return n, errDiskFull
	}
	d.room -= len(p)
	return len(p), nil
}

// TestTraceWriterError: a per-RPC CSV sink that fails mid-run fails the
// run with the sink's error, and no row is written after the failure.
func TestTraceWriterError(t *testing.T) {
	disk := &fullDisk{room: 4096}
	_, err := Run(SimConfig{
		Hosts:       4,
		Seed:        3,
		Duration:    5 * time.Millisecond,
		Warmup:      time.Millisecond,
		TraceWriter: NewCSVTrace(disk),
		Traffic: []HostTraffic{{
			AvgLoad: 0.3,
			Classes: []TrafficClass{{Priority: PC, Share: 1, FixedBytes: 8 << 10}},
		}},
	})
	if !errors.Is(err, errDiskFull) || !strings.HasPrefix(err.Error(), "aequitas: trace csv: ") {
		t.Fatalf("Run error = %v, want aequitas: trace csv: disk full", err)
	}
	if disk.room >= 0 || disk.late != 0 {
		t.Errorf("room left %d, %d writes after the failure", disk.room, disk.late)
	}
}

// TestCSVTraceHeaderOnce: a CSVTrace sink reused across two runs gets
// exactly one header line (satellite: retried runs must not duplicate it).
func TestCSVTraceHeaderOnce(t *testing.T) {
	var buf bytes.Buffer
	sink := NewCSVTrace(&buf)
	cfg := SimConfig{
		Hosts:       3,
		Seed:        7,
		Duration:    2 * time.Millisecond,
		Warmup:      time.Millisecond,
		TraceWriter: sink,
		Traffic: []HostTraffic{{
			AvgLoad: 0.2,
			Classes: []TrafficClass{{Priority: PC, Share: 1, FixedBytes: 4 << 10}},
		}},
	}
	for run := 0; run < 2; run++ {
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	if n := strings.Count(buf.String(), traceCSVHeader); n != 1 {
		t.Errorf("header appears %d times, want 1", n)
	}
}

// traceRowFormat is the Fprintf call collector.trace made for every row
// before it appended the fields with strconv; the bytes must be the same.
const traceRowFormat = "%.9f,%d,%d,%s,%s,%s,%t,%s,%.4f,%d,%.3f\n"

// TestTraceRowBytes holds the appended trace row to the old format string
// over every priority, class and verdict a completed RPC can have and the
// values a fixed-precision float can get wrong (zero, below a microsecond,
// rounding up into the next digit, nine significant digits of seconds, an
// id outside the named classes), and to zero allocations per row.
func TestTraceRowBytes(t *testing.T) {
	var buf bytes.Buffer
	sink := NewCSVTrace(&buf)
	sink.claimHeader() // rows only
	c := newCollector(&SimConfig{TraceWriter: sink, Duration: 24 * time.Hour, QoSWeights: []float64{8, 4, 1}})
	s := sim.New(1)
	rows := []rpc.RPC{
		{Dst: 1, Priority: qos.PC, QoSRequested: qos.High, QoSRun: qos.High, PAdmit: 1, Bytes: 32 << 10, CompleteTime: 123_456_789_000, RNL: 25 * sim.Microsecond},
		{Dst: 7, Priority: qos.PC, QoSRequested: qos.High, QoSRun: qos.Low, Downgraded: true, PAdmit: 0.01, Bytes: 1, CompleteTime: 1, RNL: 0},
		{Dst: 0, Priority: qos.NC, QoSRequested: qos.Medium, QoSRun: qos.Medium, PAdmit: 0.99995, Bytes: 1436, CompleteTime: 999_999_999_500, RNL: 250},
		{Dst: 31, Priority: qos.NC, QoSRequested: qos.Medium, QoSRun: qos.Low, Downgraded: true, PAdmit: 0.12345, Bytes: 16 << 20, CompleteTime: 3 * sim.Time(sim.Second), RNL: 999_500},
		{Dst: 2, Priority: qos.BE, QoSRequested: qos.Low, QoSRun: qos.Low, PAdmit: 1, Bytes: 4096, CompleteTime: 86_399_123_456_789_012, RNL: 8 * sim.Millisecond},
		{Dst: 2, Priority: qos.Priority(5), QoSRequested: qos.Class(5), QoSRun: qos.Class(4), PAdmit: 0.5, Bytes: 4096, CompleteTime: 12_345, RNL: 1_234_567},
	}
	for src, r := range rows {
		buf.Reset()
		c.trace(s, src, &r)
		want := fmt.Sprintf(traceRowFormat, r.CompleteTime.Seconds(), src, r.Dst, r.Priority, r.QoSRequested,
			r.QoSRun, r.Downgraded, rpc.Decision{Downgraded: r.Downgraded}.Verdict(), r.PAdmit, r.Bytes, r.RNL.Micros())
		if buf.String() != want {
			t.Errorf("row %d is %q, Fprintf wrote %q", src, buf.String(), want)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		buf.Reset()
		c.trace(s, 3, &rows[3])
	})
	if allocs != 0 {
		t.Errorf("%v allocations per trace row, want 0", allocs)
	}
}
