package flight

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf8"
)

// Schema tags every dump header line.
const Schema = "aequitas.flight/v1"

// Meta describes one dump: why it was taken and how to render it.
type Meta struct {
	// Trigger is the cause recorded in the header.
	Trigger Trigger
	// Label names the producing run or server (e.g. the sweep point).
	Label string
	// PeerName optionally resolves peer ids to names; resolved names are
	// emitted as a peer_name field alongside the numeric id.
	PeerName func(int32) string
}

// WriteDump writes one flight dump: a header line carrying the schema
// tag, the trigger, and the ring counters, followed by one NDJSON line
// per record in snapshot order. Multiple dumps may share a stream; each
// header starts a new dump.
func WriteDump(w io.Writer, meta Meta, recs []Record, st Stats) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var b []byte
	b = append(b, `{"schema":"`...)
	b = append(b, Schema...)
	b = append(b, `","trigger":`...)
	b = AppendJSONString(b, meta.Trigger.Kind.String())
	if meta.Trigger.Detail != "" {
		b = append(b, `,"detail":`...)
		b = AppendJSONString(b, meta.Trigger.Detail)
	}
	if meta.Label != "" {
		b = append(b, `,"label":`...)
		b = AppendJSONString(b, meta.Label)
	}
	b = append(b, `,"ts_us":`...)
	b = strconv.AppendFloat(b, meta.Trigger.At.Micros(), 'f', 3, 64)
	b = append(b, `,"records":`...)
	b = strconv.AppendInt(b, int64(len(recs)), 10)
	b = append(b, `,"offered":`...)
	b = strconv.AppendUint(b, st.Offered, 10)
	b = append(b, `,"sampled_out":`...)
	b = strconv.AppendUint(b, st.SampledOut, 10)
	// A dump drops no record; v1 readers still expect the field.
	b = append(b, `,"dropped_frozen":0}`+"\n"...)
	if _, err := bw.Write(b); err != nil {
		return err
	}
	for i := range recs {
		b = appendRecord(b[:0], int64(i), &recs[i], meta.PeerName)
		b = append(b, '\n')
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// AppendJSONString appends s to b as a JSON string, as both NDJSON writers
// (here and in package obs) quote text: quote and backslash escaped,
// control bytes as \u00XX, each run of bytes that is not UTF-8 as one
// U+FFFD (as /metrics label values have them), the rest as it is — for
// printable ASCII what strconv.Quote writes.
func AppendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i, bad := 0, false; i < len(s); {
		r, n := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && n == 1:
			if !bad {
				b = append(b, "\uFFFD"...)
			}
		case r == '"' || r == '\\':
			b = append(b, '\\', byte(r))
		case r < ' ':
			b = append(b, '\\', 'u', '0', '0', "0123456789abcdef"[r>>4], "0123456789abcdef"[r&15])
		default:
			b = append(b, s[i:i+n]...)
		}
		bad = r == utf8.RuneError && n == 1
		i += n
	}
	return append(b, '"')
}

// appendRecord renders one record as a dump line.
func appendRecord(b []byte, seq int64, r *Record, peerName func(int32) string) []byte {
	num := func(b []byte, key string, v int64) []byte {
		b = append(b, ',', '"')
		b = append(b, key...)
		b = append(b, '"', ':')
		return strconv.AppendInt(b, v, 10)
	}
	b = append(b, `{"seq":`...)
	b = strconv.AppendInt(b, seq, 10)
	b = append(b, `,"ts_us":`...)
	b = strconv.AppendFloat(b, r.TS.Micros(), 'f', 3, 64)
	b = append(b, `,"kind":`...)
	b = AppendJSONString(b, r.Kind.String())
	b = append(b, `,"verdict":`...)
	b = AppendJSONString(b, r.Verdict.String())
	b = num(b, "src", int64(r.Src))
	b = num(b, "peer", int64(r.Peer))
	if peerName != nil {
		if name := peerName(r.Peer); name != "" {
			b = append(b, `,"peer_name":`...)
			b = AppendJSONString(b, name)
		}
	}
	b = num(b, "req", int64(r.Requested))
	b = num(b, "class", int64(r.Class))
	b = append(b, `,"p_admit":`...)
	b = strconv.AppendFloat(b, r.PAdmit, 'g', -1, 64)
	b = num(b, "size_mtus", int64(r.SizeMTUs))
	if r.Kind == KindComplete {
		b = append(b, `,"lat_us":`...)
		b = strconv.AppendFloat(b, r.LatencyUS, 'f', 3, 64)
	}
	if r.Quota != QuotaNone {
		b = append(b, `,"quota":`...)
		b = AppendJSONString(b, r.Quota.String())
	}
	return append(b, '}')
}

// decisionVerdicts and completeVerdicts are the verdict names legal for
// each record kind.
var (
	decisionVerdicts = map[string]bool{"admit": true, "downgrade": true, "drop": true, "expired": true}
	completeVerdicts = map[string]bool{"slo_met": true, "slo_miss": true}
)

// ValidateDump checks a flight-dump stream with Summarize's one pass and
// returns the number of dumps and records.
func ValidateDump(r io.Reader) (dumps, records int, err error) {
	sum, err := Summarize(r)
	if err != nil {
		return 0, 0, err
	}
	return len(sum.Dumps), sum.Records, nil
}

// DumpSummary condenses one dump for reports.
type DumpSummary struct {
	Trigger string  `json:"trigger"`
	Detail  string  `json:"detail,omitempty"`
	TSUS    float64 `json:"ts_us"`
	Records int     `json:"records"`
}

// Summary condenses a flight-dump stream for obsreport: per-dump
// triggers plus verdict totals and extremes across all records.
type Summary struct {
	Schema     string         `json:"schema"`
	Dumps      []DumpSummary  `json:"dumps"`
	Records    int            `json:"records"`
	ByVerdict  map[string]int `json:"by_verdict"`
	MinPAdmit  float64        `json:"min_p_admit"`
	MaxLatUS   float64        `json:"max_lat_us"`
	SampledOut uint64         `json:"sampled_out"`
}

// count reads a JSON number that must be a non-negative integer a float64
// holds exactly.
func count(v any) (float64, bool) {
	n, ok := v.(float64)
	return n, ok && n >= 0 && n <= 1<<53 && n == math.Trunc(n)
}

// Summarize is the one reader of the flight-dump stream: one streaming
// pass that checks the stream as it condenses it. Every dump starts with
// an aequitas.flight/v1 header naming a known trigger, whose record count
// matches the lines that follow and whose counters are non-negative
// integers satisfying the retention invariant records + sampled_out +
// dropped_frozen <= offered (the gap is ring-wrap eviction). Record
// sequence numbers are integers contiguous from zero, timestamps are
// non-negative and non-decreasing within a dump, kinds and verdicts are
// known and consistent (decisions carry admission verdicts, completions
// carry SLO verdicts and a latency), and probabilities lie in [0, 1].
// Errors name the physical line number and the field.
func Summarize(r io.Reader) (*Summary, error) {
	sum := &Summary{Schema: Schema, ByVerdict: map[string]int{}, MinPAdmit: 1}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	remaining, nextSeq := 0, 0 // record lines still expected for the current dump; next seq
	lastTS := -1.0
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal(line, &m); err != nil {
			return nil, fmt.Errorf("line %d: invalid JSON: %w", lineNo, err)
		}
		if remaining == 0 {
			// Expect a header.
			if schema, _ := m["schema"].(string); schema != Schema {
				return nil, fmt.Errorf("line %d: expected %q header, got schema %q", lineNo, Schema, schema)
			}
			ds := DumpSummary{}
			ds.Trigger, _ = m["trigger"].(string)
			if _, ok := triggerKinds[ds.Trigger]; !ok {
				return nil, fmt.Errorf("line %d: field \"trigger\": unknown trigger %q", lineNo, ds.Trigger)
			}
			var c [4]float64 // records, offered, sampled_out, dropped_frozen
			for i, f := range []string{"records", "offered", "sampled_out", "dropped_frozen"} {
				var ok bool
				if c[i], ok = count(m[f]); !ok {
					return nil, fmt.Errorf("line %d: field %q missing or not a count", lineNo, f)
				}
			}
			if c[0]+c[2]+c[3] > c[1] {
				return nil, fmt.Errorf("line %d: retention invariant violated: %g records + %g sampled_out + %g dropped_frozen > %g offered",
					lineNo, c[0], c[2], c[3], c[1])
			}
			var ok bool
			if ds.TSUS, ok = m["ts_us"].(float64); !ok {
				return nil, fmt.Errorf("line %d: header field \"ts_us\" missing", lineNo)
			}
			ds.Detail, _ = m["detail"].(string)
			ds.Records = int(c[0])
			sum.Dumps = append(sum.Dumps, ds)
			sum.SampledOut += uint64(c[2])
			remaining, nextSeq, lastTS = ds.Records, 0, -1
			continue
		}
		// Record line.
		if seq, ok := m["seq"].(float64); !ok || seq != float64(nextSeq) {
			return nil, fmt.Errorf("line %d: field \"seq\" missing or not contiguous (want %d)", lineNo, nextSeq)
		}
		ts, ok := m["ts_us"].(float64)
		if !ok || ts < 0 {
			return nil, fmt.Errorf("line %d: field \"ts_us\" missing or negative", lineNo)
		}
		if ts < lastTS {
			return nil, fmt.Errorf("line %d: field \"ts_us\" %.3f before previous %.3f", lineNo, ts, lastTS)
		}
		kind, _ := m["kind"].(string)
		verdict, _ := m["verdict"].(string)
		switch kind {
		case "decision":
			if !decisionVerdicts[verdict] {
				return nil, fmt.Errorf("line %d: field \"verdict\" %q invalid for a decision", lineNo, verdict)
			}
		case "complete":
			if !completeVerdicts[verdict] {
				return nil, fmt.Errorf("line %d: field \"verdict\" %q invalid for a completion", lineNo, verdict)
			}
			if lat, ok := m["lat_us"].(float64); !ok || lat < 0 {
				return nil, fmt.Errorf("line %d: field \"lat_us\" missing or negative on completion", lineNo)
			}
		default:
			return nil, fmt.Errorf("line %d: field \"kind\": unknown kind %q", lineNo, kind)
		}
		for _, f := range []string{"src", "peer", "req", "class", "size_mtus"} {
			if _, ok := m[f].(float64); !ok {
				return nil, fmt.Errorf("line %d: field %q missing", lineNo, f)
			}
		}
		p, ok := m["p_admit"].(float64)
		if !ok || p < 0 || p > 1 {
			return nil, fmt.Errorf("line %d: field \"p_admit\" missing or out of [0, 1]", lineNo)
		}
		sum.Records++
		sum.ByVerdict[verdict]++
		if p < sum.MinPAdmit {
			sum.MinPAdmit = p
		}
		if lat, ok := m["lat_us"].(float64); ok && lat > sum.MaxLatUS {
			sum.MaxLatUS = lat
		}
		remaining, nextSeq, lastTS = remaining-1, nextSeq+1, ts
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if remaining > 0 {
		return nil, fmt.Errorf("truncated dump: %d record lines missing", remaining)
	}
	return sum, nil
}

// Dump snapshots the ring and writes one dump of every record it holds,
// headed by its counters — the gather, render sequence every trigger path
// shares. With reset true the ring restarts empty afterwards, so
// consecutive dumps partition the timeline.
func (r *Ring) Dump(w io.Writer, meta Meta, reset bool) error {
	if r == nil || w == nil {
		return nil
	}
	recs := r.Snapshot(reset)
	return WriteDump(w, meta, recs, r.Stats())
}
