// Reading traces back in. cmd/tracestat works offline on the JSON that
// `smartdimm-sim -trace` wrote, so this file inverts the telemetry
// package's Perfetto exporter: thread_name metadata rebuilds the track
// table (tid−1 = TrackID), phases X/i/C/b/e map back onto event kinds,
// and timestamps parse as decimal strings — the exporter's "%d.%06d"
// µs form carries exact picoseconds, and going through a float64 would
// round them, breaking the byte-identical analysis gate.
package profile

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/telemetry"
)

// pfEvent is one trace_event line as our exporter writes it.
type pfEvent struct {
	Name string          `json:"name"`
	Ph   string          `json:"ph"`
	Tid  int             `json:"tid"`
	Ts   json.Number     `json:"ts"`
	Dur  json.Number     `json:"dur"`
	ID   string          `json:"id"`
	Args json.RawMessage `json:"args"`
}

// ReadPerfetto parses a trace_event JSON document into the track table
// and event stream the analyzers consume. Only the constructs our
// exporter emits are recognized; anything else is skipped so the reader
// tolerates hand-edited or truncated-then-repaired traces. A recognized
// event must name a tid in [1, event count]: the exporter writes one
// thread_name per track, so a larger tid is not ours, and trusting it
// would grow the track table without bound (or, below 1, map to a
// negative TrackID).
func ReadPerfetto(r io.Reader) ([]string, []telemetry.Event, error) {
	dec := json.NewDecoder(r)
	dec.UseNumber()
	var doc struct {
		TraceEvents []pfEvent `json:"traceEvents"`
	}
	if err := dec.Decode(&doc); err != nil {
		return nil, nil, fmt.Errorf("parse trace JSON: %w", err)
	}

	var tracks []string
	var events []telemetry.Event
	maxTid := len(doc.TraceEvents)
	badTid := func(i int, e pfEvent) error {
		return fmt.Errorf("event %d (%s): tid %d outside [1, %d]", i, e.Name, e.Tid, maxTid)
	}
	for i, e := range doc.TraceEvents {
		if e.Ph == "M" {
			if e.Name != "thread_name" {
				continue
			}
			if e.Tid < 1 || e.Tid > maxTid {
				return nil, nil, badTid(i, e)
			}
			var args struct {
				Name string `json:"name"`
			}
			if err := json.Unmarshal(e.Args, &args); err != nil {
				return nil, nil, fmt.Errorf("event %d: thread_name args: %w", i, err)
			}
			for len(tracks) < e.Tid {
				tracks = append(tracks, "")
			}
			tracks[e.Tid-1] = args.Name
			continue
		}
		var kind telemetry.Kind
		switch e.Ph {
		case "X":
			kind = telemetry.KindSpan
		case "i":
			kind = telemetry.KindInstant
		case "C":
			kind = telemetry.KindCounter
		case "b":
			kind = telemetry.KindAsyncBegin
		case "e":
			kind = telemetry.KindAsyncEnd
		default:
			continue
		}
		if e.Tid < 1 || e.Tid > maxTid {
			return nil, nil, badTid(i, e)
		}
		ev := telemetry.Event{
			Kind:  kind,
			Track: telemetry.TrackID(e.Tid - 1),
			Name:  e.Name,
		}
		var err error
		if ev.AtPs, err = psFromMicros(e.Ts.String()); err != nil {
			return nil, nil, fmt.Errorf("event %d (%s): ts: %w", i, e.Name, err)
		}
		switch kind {
		case telemetry.KindSpan:
			if ev.DurPs, err = psFromMicros(e.Dur.String()); err != nil {
				return nil, nil, fmt.Errorf("event %d (%s): dur: %w", i, e.Name, err)
			}
		case telemetry.KindCounter:
			var args struct {
				Value json.Number `json:"value"`
			}
			if err := json.Unmarshal(e.Args, &args); err != nil {
				return nil, nil, fmt.Errorf("event %d (%s): counter args: %w", i, e.Name, err)
			}
			if ev.Value, err = args.Value.Float64(); err != nil {
				return nil, nil, fmt.Errorf("event %d (%s): counter value: %w", i, e.Name, err)
			}
		case telemetry.KindAsyncBegin, telemetry.KindAsyncEnd:
			id := strings.TrimPrefix(e.ID, "0x")
			if ev.ID, err = strconv.ParseUint(id, 16, 64); err != nil {
				return nil, nil, fmt.Errorf("event %d (%s): async id %q: %w", i, e.Name, e.ID, err)
			}
		}
		events = append(events, ev)
	}
	return tracks, events, nil
}

// psFromMicros converts a decimal microsecond literal ("1234.567890")
// to integer picoseconds without any float step. Fractions shorter than
// six digits are zero-padded; longer ones are rejected — the exporter
// never writes sub-picosecond digits.
func psFromMicros(s string) (int64, error) {
	if s == "" {
		return 0, fmt.Errorf("empty timestamp")
	}
	whole, frac := s, ""
	if dot := strings.IndexByte(s, '.'); dot >= 0 {
		whole, frac = s[:dot], s[dot+1:]
	}
	if len(frac) > 6 {
		return 0, fmt.Errorf("timestamp %q has sub-picosecond digits", s)
	}
	w, err := strconv.ParseInt(whole, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("timestamp %q: %w", s, err)
	}
	var f int64
	if frac != "" {
		if f, err = strconv.ParseInt(frac, 10, 64); err != nil {
			return 0, fmt.Errorf("timestamp %q: %w", s, err)
		}
		for i := len(frac); i < 6; i++ {
			f *= 10
		}
	}
	if w < 0 {
		return w*1_000_000 - f, nil
	}
	return w*1_000_000 + f, nil
}
