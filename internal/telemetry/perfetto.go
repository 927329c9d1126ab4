// Chrome/Perfetto trace_event export. The writer is deliberately
// hand-rolled instead of encoding/json: field order, number formatting,
// and line layout are then fixed by this file alone, which is what the
// byte-identical-trace gate in ci.sh leans on. Timestamps convert from
// simulated picoseconds to the format's microseconds as the exact
// decimal "%d.%06d", so no float rounding can differ between runs.
//
// The output loads in ui.perfetto.dev and chrome://tracing: one process
// ("pid" 1), one named thread track per Tracer track, spans as phase
// "X", instants as "i", counters as "C", and request lifecycles as
// async "b"/"e" pairs.

package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
)

// WritePerfetto writes the whole trace as Perfetto trace_event JSON.
func (t *Tracer) WritePerfetto(w io.Writer) error {
	_, err := w.Write(t.PerfettoJSON())
	return err
}

// WritePerfettoFile writes the whole trace as Perfetto trace_event JSON
// to the file at path, creating or truncating it.
func (t *Tracer) WritePerfettoFile(path string) error {
	return os.WriteFile(path, t.PerfettoJSON(), 0o644)
}

// PerfettoJSON renders the trace; one event per line for diffability.
//
// Two edge cases are normalized at export time so every produced file
// loads cleanly in a trace viewer:
//
//   - Async spans left open when the engine drains (requests still in
//     flight at the simulation deadline) get a synthetic "e" event at
//     the trace's end timestamp, in begin-emission order — Perfetto
//     otherwise renders them as unterminated arrows.
//   - A Tracer that recorded nothing exports the minimal valid document
//     {"traceEvents":[]} instead of a process-metadata stub.
func (t *Tracer) PerfettoJSON() []byte {
	if t.Len() == 0 && len(t.Tracks()) == 0 {
		return []byte("{\"traceEvents\":[]}\n")
	}
	var b bytes.Buffer
	b.WriteString("{\"traceEvents\":[\n")
	b.WriteString(`{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"smartdimm-sim"}}`)
	for i, name := range t.Tracks() {
		tid := i + 1
		fmt.Fprintf(&b, ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":", tid)
		quote(&b, name)
		b.WriteString("}}")
		fmt.Fprintf(&b, ",\n{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"sort_index\":%d}}", tid, tid)
	}
	for _, e := range t.Events() {
		b.WriteString(",\n{\"name\":")
		quote(&b, e.Name)
		tid := int(e.Track) + 1
		switch e.Kind {
		case KindSpan:
			fmt.Fprintf(&b, ",\"cat\":\"sim\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":", tid)
			writeTs(&b, e.AtPs)
			b.WriteString(",\"dur\":")
			writeTs(&b, e.DurPs)
		case KindInstant:
			fmt.Fprintf(&b, ",\"cat\":\"sim\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":%d,\"ts\":", tid)
			writeTs(&b, e.AtPs)
		case KindCounter:
			fmt.Fprintf(&b, ",\"ph\":\"C\",\"pid\":1,\"tid\":%d,\"ts\":", tid)
			writeTs(&b, e.AtPs)
			b.WriteString(",\"args\":{\"value\":")
			b.WriteString(strconv.FormatFloat(e.Value, 'g', -1, 64))
			b.WriteString("}")
		case KindAsyncBegin:
			fmt.Fprintf(&b, ",\"cat\":\"req\",\"ph\":\"b\",\"id\":\"0x%x\",\"pid\":1,\"tid\":%d,\"ts\":", e.ID, tid)
			writeTs(&b, e.AtPs)
		case KindAsyncEnd:
			fmt.Fprintf(&b, ",\"cat\":\"req\",\"ph\":\"e\",\"id\":\"0x%x\",\"pid\":1,\"tid\":%d,\"ts\":", e.ID, tid)
			writeTs(&b, e.AtPs)
		}
		b.WriteString("}")
	}
	for _, i := range t.unclosedAsync() {
		e := t.Events()[i]
		fmt.Fprintf(&b, ",\n{\"name\":")
		quote(&b, e.Name)
		fmt.Fprintf(&b, ",\"cat\":\"req\",\"ph\":\"e\",\"id\":\"0x%x\",\"pid\":1,\"tid\":%d,\"ts\":", e.ID, int(e.Track)+1)
		writeTs(&b, t.endPs())
		b.WriteString("}")
	}
	b.WriteString("\n]}\n")
	return b.Bytes()
}

// unclosedAsync returns the event indexes of async begins that never saw
// a matching end, in emission order. Begins and ends pair by (name, id).
func (t *Tracer) unclosedAsync() []int {
	var pending map[asyncKey][]int
	for i, e := range t.Events() {
		switch e.Kind {
		case KindAsyncBegin:
			if pending == nil {
				pending = map[asyncKey][]int{}
			}
			k := asyncKey{name: e.Name, id: e.ID}
			pending[k] = append(pending[k], i)
		case KindAsyncEnd:
			k := asyncKey{name: e.Name, id: e.ID}
			if s := pending[k]; len(s) > 0 {
				pending[k] = s[:len(s)-1]
			}
		}
	}
	var open []int
	for _, s := range pending {
		open = append(open, s...)
	}
	sort.Ints(open) // map order → emission order
	return open
}

type asyncKey struct {
	name string
	id   uint64
}

// endPs is the trace's end timestamp: the latest instant any recorded
// event covers (span ends included). Synthetic async ends land here.
func (t *Tracer) endPs() int64 {
	var end int64
	for _, e := range t.Events() {
		at := e.AtPs
		if e.Kind == KindSpan {
			at += e.DurPs
		}
		if at > end {
			end = at
		}
	}
	return end
}

// writeTs renders picoseconds as trace_event microseconds with exactly
// six fractional digits (picosecond resolution), avoiding floats.
func writeTs(b *bytes.Buffer, ps int64) {
	fmt.Fprintf(b, "%d.%06d", ps/1_000_000, ps%1_000_000)
}

// quote writes s as a JSON string. Track and event names are
// code-controlled ASCII, but escape the JSON metacharacters anyway so a
// stray byte cannot corrupt the file.
func quote(b *bytes.Buffer, s string) {
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b.WriteByte('\\')
			b.WriteByte(c)
		case c < 0x20:
			fmt.Fprintf(b, "\\u%04x", c)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
}
