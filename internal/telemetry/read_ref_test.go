package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"mltcp/internal/sim"
)

// referenceRead is a frozen copy of the encoding/json trace reader that
// the schema-table decoder replaced: a kind probe, then a reflective
// decode into the wireEvent union. It exists only as FuzzRead's oracle.
func referenceRead(r io.Reader) (*Trace, error) {
	tr := &Trace{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var probe struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return nil, fmt.Errorf("telemetry: line %d: corrupt or truncated trace line: %w", lineNo, err)
		}
		switch probe.Kind {
		case "manifest":
			m := &Manifest{}
			if err := json.Unmarshal(line, m); err != nil {
				return nil, fmt.Errorf("telemetry: line %d: corrupt manifest: %w", lineNo, err)
			}
			if m.Schema != SchemaVersion {
				return nil, fmt.Errorf("telemetry: line %d: trace is v%d, reader supports v%d",
					lineNo, m.Schema, SchemaVersion)
			}
			tr.Manifest = m
		case "metrics":
			s := &Snapshot{}
			if err := json.Unmarshal(line, s); err != nil {
				return nil, fmt.Errorf("telemetry: line %d: corrupt metrics line: %w", lineNo, err)
			}
			tr.Metrics = s
		default:
			var w wireEvent
			if err := json.Unmarshal(line, &w); err != nil {
				return nil, fmt.Errorf("telemetry: line %d: corrupt or truncated trace line: %w", lineNo, err)
			}
			e, err := w.event()
			if err != nil {
				return nil, fmt.Errorf("telemetry: line %d: %w", lineNo, err)
			}
			tr.Events = append(tr.Events, e)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: after line %d: %w", lineNo, err)
	}
	return tr, nil
}

// wireEvent is the reference decoder's union of every event kind's
// fields.
type wireEvent struct {
	T        int64   `json:"t"`
	Kind     string  `json:"kind"`
	Flow     int     `json:"flow"`
	Link     string  `json:"link"`
	Cwnd     float64 `json:"cwnd"`
	Ssthresh float64 `json:"ssthresh"`
	SrttNS   int64   `json:"srtt_ns"`
	Seq      int64   `json:"seq"`
	RTONS    int64   `json:"rto_ns"`
	Ratio    float64 `json:"ratio"`
	Factor   float64 `json:"factor"`
	Bytes    float64 `json:"bytes"`
	Pkts     int64   `json:"pkts"`
	Iter     int64   `json:"iter"`
	CommNS   int64   `json:"comm_ns"`
	BucketNS int64   `json:"bucket_ns"`
}

func (w wireEvent) event() (Event, error) {
	k, ok := kindByName([]byte(w.Kind))
	if !ok {
		return Event{}, fmt.Errorf("telemetry: unknown event kind %q", w.Kind)
	}
	e := Event{At: sim.Time(w.T), Kind: k, Flow: w.Flow, Link: w.Link}
	switch k {
	case KindCwnd:
		e.V0, e.V1, e.N = w.Cwnd, w.Ssthresh, w.SrttNS
	case KindRetransmit:
		e.N = w.Seq
	case KindRTO:
		e.N, e.V0 = w.RTONS, w.Cwnd
	case KindFastRecovery:
		e.V0, e.V1 = w.Ssthresh, w.Cwnd
	case KindAgg:
		e.V0, e.V1 = w.Ratio, w.Factor
	case KindQueue:
		e.N, e.M = int64(w.Bytes), w.Pkts
	case KindDrop, KindECNMark:
		e.N = int64(w.Bytes)
	case KindIterStart:
		e.N = w.Iter
	case KindIterEnd:
		e.N, e.M = w.Iter, w.CommNS
	case KindBandwidth:
		e.M, e.V0 = w.BucketNS, w.Bytes
	}
	return e, nil
}
