package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"slices"
	"strconv"

	"mltcp/internal/sim"
)

// SchemaVersion is the trace format version, bumped on any incompatible
// change to the manifest or event encodings (pinned by the golden test).
const SchemaVersion = 1

// ManifestJob describes one job in the run manifest. Times are integer
// nanoseconds so trace consumers recompute derived quantities (ideals,
// interleave scores) exactly, with no float round-tripping.
type ManifestJob struct {
	// Flow is the job's flow ID, matching Event.Flow.
	Flow int `json:"flow"`
	// Name and Profile label the job and its model shape.
	Name    string `json:"name"`
	Profile string `json:"profile,omitempty"`
	// IdealNS is the isolated iteration time in ns.
	IdealNS int64 `json:"ideal_ns"`
	// BytesPerIter is the per-iteration communication volume at the
	// run's scale.
	BytesPerIter int64 `json:"bytes_per_iter"`
	// SrcRack, DstRack, and Links record the job's fabric placement and
	// the directed links its flow crosses. Topology runs only.
	SrcRack string   `json:"src_rack,omitempty"`
	DstRack string   `json:"dst_rack,omitempty"`
	Links   []string `json:"links,omitempty"`
}

// Manifest is the run's identity: everything needed to reproduce it and
// to interpret the event stream. It is the first line of a JSONL trace.
type Manifest struct {
	Kind     string `json:"kind"` // always "manifest"
	Schema   int    `json:"schema"`
	Scenario string `json:"scenario"`
	Backend  string `json:"backend"`
	Policy   string `json:"policy"`
	Seed     uint64 `json:"seed"`
	// CapacityGbps is the bottleneck rate at the backend's native scale.
	CapacityGbps float64 `json:"capacity_gbps"`
	// Scale is the packet-scale factor applied to the scenario (1 for
	// fluid and learned).
	Scale float64 `json:"scale"`
	// DurationNS is the simulated horizon in ns.
	DurationNS int64 `json:"duration_ns"`
	// Revision is the VCS revision of the producing binary, when known.
	Revision string `json:"revision,omitempty"`
	// Topology labels the cluster fabric ("fattree-4"), with its rack and
	// directed-link counts. Empty for the single-bottleneck model.
	Topology    string `json:"topology,omitempty"`
	Racks       int    `json:"racks,omitempty"`
	FabricLinks int    `json:"fabric_links,omitempty"`
	// Predicted marks a learned-backend run: the manifest describes model
	// predictions rather than a simulation, and the trace carries no
	// per-iteration events. omitempty keeps exact-backend traces
	// byte-identical to pre-learned golden files.
	Predicted bool          `json:"predicted,omitempty"`
	Jobs      []ManifestJob `json:"jobs"`
}

// Duration returns the simulated horizon.
func (m *Manifest) Duration() sim.Time { return sim.Time(m.DurationNS) }

// Revision returns the build's VCS revision ("" when the binary carries
// no build info, e.g. under `go test` without VCS stamping).
func Revision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	for _, s := range info.Settings {
		if s.Key == "vcs.revision" {
			return s.Value
		}
	}
	return ""
}

// slot names the Event payload field a wire field is stored in. N and
// M carry integers, V0 and V1 floats.
type slot uint8

const (
	slotN slot = iota
	slotM
	slotV0
	slotV1
)

func (s slot) isFloat() bool { return s >= slotV0 }

// appendValue appends the event's value in slot s, formatted as the
// JSONL encoding formats it: integers in decimal, floats in the shortest
// representation that parses back to the same bits.
func (s slot) appendValue(b []byte, e *Event) []byte {
	switch s {
	case slotN:
		return strconv.AppendInt(b, e.N, 10)
	case slotM:
		return strconv.AppendInt(b, e.M, 10)
	case slotV0:
		return strconv.AppendFloat(b, e.V0, 'g', -1, 64)
	default:
		return strconv.AppendFloat(b, e.V1, 'g', -1, 64)
	}
}

// schemaField is one payload field of an event kind's wire form.
type schemaField struct {
	key  string
	slot slot
}

// kindSchema is one event kind's wire form: its name and its payload
// fields in encoding order. Every event line is
// {"t":…,"kind":…[,"flow":…][,"link":…] then the payload fields}.
type kindSchema struct {
	name   string
	fields []schemaField
}

// schema is the JSONL event schema, indexed by Kind. Encoding
// (appendEvent), field listing (Event.Fields), and decoding
// (lineDecoder) all walk it, so a kind's wire form is defined once. The
// golden test pins the bytes it produces.
var schema = [...]kindSchema{
	KindCwnd:         {"cwnd", []schemaField{{"cwnd", slotV0}, {"ssthresh", slotV1}, {"srtt_ns", slotN}}},
	KindRetransmit:   {"retx", []schemaField{{"seq", slotN}}},
	KindRTO:          {"rto", []schemaField{{"rto_ns", slotN}, {"cwnd", slotV0}}},
	KindFastRecovery: {"recovery", []schemaField{{"ssthresh", slotV0}, {"cwnd", slotV1}}},
	KindAgg:          {"agg", []schemaField{{"ratio", slotV0}, {"factor", slotV1}}},
	KindQueue:        {"queue", []schemaField{{"bytes", slotN}, {"pkts", slotM}}},
	KindDrop:         {"drop", []schemaField{{"bytes", slotN}}},
	KindECNMark:      {"ecn", []schemaField{{"bytes", slotN}}},
	KindIterStart:    {"iter_start", []schemaField{{"iter", slotN}}},
	KindIterEnd:      {"iter_end", []schemaField{{"iter", slotN}, {"comm_ns", slotM}}},
	KindBandwidth:    {"bw", []schemaField{{"bucket_ns", slotM}, {"bytes", slotV0}}},
}

// schema returns the kind's row of the schema table.
func (k Kind) schema() (*kindSchema, bool) {
	if int(k) >= len(schema) || schema[k].name == "" {
		return nil, false
	}
	return &schema[k], true
}

// appendEvent encodes one event as a JSON line (no trailing newline).
// Encoding is hand-rolled: field order is fixed and floats use the
// shortest exact representation — the properties that make traces
// byte-identical across runs. A link name is json.Marshal'd, and the
// bytes kept in links when it is non-nil, so Write encodes each name
// once and a line allocates nothing beyond the destination buffer.
func appendEvent(b []byte, e Event, links map[string][]byte) ([]byte, error) {
	sc, ok := e.Kind.schema()
	if !ok {
		return b, fmt.Errorf("telemetry: cannot encode unknown event kind %d", e.Kind)
	}
	b = append(b, `{"t":`...)
	b = strconv.AppendInt(b, int64(e.At), 10)
	b = append(b, `,"kind":"`...)
	b = append(b, sc.name...)
	b = append(b, '"')
	if e.Flow != 0 {
		b = append(b, `,"flow":`...)
		b = strconv.AppendInt(b, int64(e.Flow), 10)
	}
	if e.Link != "" {
		lb, ok := links[e.Link]
		if !ok {
			var err error
			if lb, err = json.Marshal(e.Link); err != nil {
				return b, err
			}
			if links != nil {
				links[e.Link] = lb
			}
		}
		b = append(b, `,"link":`...)
		b = append(b, lb...)
	}
	for _, f := range sc.fields {
		b = append(b, ',', '"')
		b = append(b, f.key...)
		b = append(b, '"', ':')
		b = f.slot.appendValue(b, &e)
	}
	return append(b, '}'), nil
}

// EncodeEvent renders one event as its canonical JSON line — the exact
// bytes Write would emit for it, without the trailing newline. Trace
// analysis tools (internal/diagnose, cmd/mltcp-diff) use it to show
// decoded events in reports, so a report's rendering of an event is
// always the event's wire form.
func EncodeEvent(e Event) (string, error) {
	b, err := appendEvent(nil, e, nil)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// Field is one decoded payload field of an event: the schema's wire name
// and the value formatted exactly as the JSONL encoding formats it.
type Field struct {
	Name  string
	Value string
}

// Fields decodes the event's payload union into named fields, in wire
// order. They come from the same schema row appendEvent encodes with,
// so field lists in diagnostic reports match the trace one to one.
func (e Event) Fields() []Field {
	sc, ok := e.Kind.schema()
	if !ok {
		return nil
	}
	out := make([]Field, len(sc.fields))
	for i, f := range sc.fields {
		out[i] = Field{f.key, string(f.slot.appendValue(nil, &e))}
	}
	return out
}

// Write serializes a trace as JSONL: the manifest line (when m is
// non-nil), every event stably sorted by time, then a closing metrics
// line (when reg is non-nil). Events equal in time keep their emission
// order, so output is a pure function of the run. A run's buffer is a
// few ascending runs, the live stream and then each flow's replayed
// bandwidth buckets, so Write merges those runs rather than sorting;
// the order is the stable sort's for any input.
func Write(w io.Writer, m *Manifest, events []Event, reg *Registry) error {
	bw := bufio.NewWriter(w)
	if m != nil {
		mc := *m
		mc.Kind = "manifest"
		if mc.Schema == 0 {
			mc.Schema = SchemaVersion
		}
		line, err := json.Marshal(&mc)
		if err != nil {
			return err
		}
		bw.Write(line)
		bw.WriteByte('\n')
	}
	order := mergeOrder(events)
	var buf []byte
	links := map[string][]byte{}
	for _, i := range order {
		var err error
		buf, err = appendEvent(buf[:0], events[i], links)
		if err != nil {
			return err
		}
		bw.Write(buf)
		bw.WriteByte('\n')
	}
	if reg != nil {
		line, err := json.Marshal(struct {
			Kind string `json:"kind"`
			*Snapshot
		}{"metrics", reg.Snapshot()})
		if err != nil {
			return err
		}
		bw.Write(line)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// mergeOrder returns the indices of events in stable time order. It
// merges the maximal ascending runs of events through a min-heap of
// their heads, ordered by time and then index, so ties go to the earlier
// run, as a stable sort breaks them. That is O(n log k) for k runs, and
// a traced run's buffer has one more run than it has flows.
func mergeOrder(events []Event) []int {
	// heads[r] is the next unmerged index of run r and ends[r] its end;
	// a run leaves the heap when it is drained.
	heads, ends := []int{0}, []int{}
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			ends = append(ends, i)
			heads = append(heads, i)
		}
	}
	ends = append(ends, len(events))
	less := func(a, b int) bool {
		ta, tb := events[heads[a]].At, events[heads[b]].At
		return ta < tb || ta == tb && heads[a] < heads[b]
	}
	// siftDown restores the heap below r, swapping runs' heads and ends
	// together.
	siftDown := func(r int) {
		for {
			m := r
			if c := 2*r + 1; c < len(heads) && less(c, m) {
				m = c
			}
			if c := 2*r + 2; c < len(heads) && less(c, m) {
				m = c
			}
			if m == r {
				return
			}
			heads[r], heads[m] = heads[m], heads[r]
			ends[r], ends[m] = ends[m], ends[r]
			r = m
		}
	}
	for r := len(heads)/2 - 1; r >= 0; r-- {
		siftDown(r)
	}
	order := make([]int, len(events))
	for o := range order {
		order[o] = heads[0]
		heads[0]++
		if heads[0] == ends[0] {
			last := len(heads) - 1
			heads[0], ends[0] = heads[last], ends[last]
			heads, ends = heads[:last], ends[:last]
		}
		siftDown(0)
	}
	return order
}

// Trace is a decoded JSONL trace.
type Trace struct {
	Manifest *Manifest
	Events   []Event
	Metrics  *Snapshot
}

// Read decodes a JSONL trace written by Write. Manifest and metrics
// lines are optional; unknown event kinds are an error (the schema is
// versioned, not open-ended). Event lines are flat JSON objects, decoded
// in one pass per line without reflection (see lineDecoder), to values
// bit-identical to encoding/json's; an unknown, duplicated or mistyped
// field fails with the field's name. Manifest and metrics lines go
// through encoding/json. Every malformed line —
// truncated mid-write, corrupted on disk, or hand-edited — fails with
// its line number rather than decoding into a garbled partial trace, and
// a manifest from a different schema version is rejected with both
// versions named.
func Read(r io.Reader) (*Trace, error) {
	tr := &Trace{}
	d := newLineDecoder()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		e, err := d.decode(line)
		if err == errJSONLine {
			err = d.decodeJSONLine(tr, line)
		} else if err == nil {
			if len(tr.Events) == cap(tr.Events) {
				// Double the capacity: append grows a long slice by
				// only a quarter, copying the events ~4 times over.
				tr.Events = slices.Grow(tr.Events, max(len(tr.Events), 512))
			}
			tr.Events = append(tr.Events, e)
		}
		if err != nil {
			return nil, fmt.Errorf("telemetry: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: after line %d: %w", lineNo, err)
	}
	return tr, nil
}

// ReadTrace opens and decodes a JSONL trace file, annotating any decode
// error with the path — the standard entry point for trace-consuming
// tools (cmd/mltcp-trace, cmd/mltcp-diff, internal/diagnose callers).
func ReadTrace(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return tr, nil
}
