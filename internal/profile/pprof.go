// pprof export: the attribution tree serialized as a gzipped
// profile.proto message so the standard tooling works on simulated
// time — `go tool pprof -top trace.pb.gz`, flamegraphs, peek, web UI.
//
// The encoder is hand-rolled protobuf (varints, length-delimited
// fields, packed repeated scalars) against the profile.proto schema the
// pprof tool ships; the message is small and append-only, so a
// dependency-free writer is ~100 lines and byte-deterministic: nodes
// serialize in the sealed tree's sorted order, the string table in
// first-use order, and the gzip stream carries no mtime. Two sample
// values per stack: event count, and self simulated time in
// nanoseconds (pprof's unit vocabulary has no picoseconds; sub-ns
// remainders are truncated in the export only — the text renderers in
// profile.go keep full ps resolution).
package profile

import (
	"bytes"
	"compress/gzip"
	"io"
)

// profile.proto field numbers (message Profile).
const (
	pfSampleType    = 1
	pfSample        = 2
	pfLocation      = 4
	pfFunction      = 5
	pfStringTable   = 6
	pfDurationNanos = 10
	pfPeriodType    = 11
	pfPeriod        = 12
	pfDefaultSample = 14
)

// pbuf is a minimal protobuf writer.
type pbuf struct{ bytes.Buffer }

func (b *pbuf) varint(v uint64) {
	for v >= 0x80 {
		b.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	b.WriteByte(byte(v))
}

// tag writes a field key: number<<3 | wiretype.
func (b *pbuf) tag(field, wire int) { b.varint(uint64(field<<3 | wire)) }

func (b *pbuf) intField(field int, v int64) {
	if v == 0 {
		return
	}
	b.tag(field, 0)
	b.varint(uint64(v))
}

func (b *pbuf) bytesField(field int, p []byte) {
	b.tag(field, 2)
	b.varint(uint64(len(p)))
	b.Write(p)
}

func (b *pbuf) stringField(field int, s string) {
	b.tag(field, 2)
	b.varint(uint64(len(s)))
	b.WriteString(s)
}

// packedField writes a repeated scalar as one length-delimited blob.
func (b *pbuf) packedField(field int, vs []int64) {
	if len(vs) == 0 {
		return
	}
	var inner pbuf
	for _, v := range vs {
		inner.varint(uint64(v))
	}
	b.bytesField(field, inner.Bytes())
}

// strtab interns strings; index 0 is "" per the pprof spec.
type strtab struct {
	idx  map[string]int64
	list []string
}

func newStrtab() *strtab {
	return &strtab{idx: map[string]int64{"": 0}, list: []string{""}}
}

func (st *strtab) id(s string) int64 {
	if i, ok := st.idx[s]; ok {
		return i
	}
	i := int64(len(st.list))
	st.idx[s] = i
	st.list = append(st.list, s)
	return i
}

// valueType encodes a profile.proto ValueType submessage.
func valueType(st *strtab, typ, unit string) []byte {
	var b pbuf
	b.intField(1, st.id(typ))
	b.intField(2, st.id(unit))
	return b.Bytes()
}

// WritePprof serializes the profile as gzipped profile.proto. Sample
// types: "events/count" and "sim_time/nanoseconds" (the default), one
// sample per tree node carrying its self time, with the location stack
// leaf-first so pprof reconstructs the component hierarchy.
func (p *Profile) WritePprof(w io.Writer) error {
	st := newStrtab()
	var out pbuf

	out.bytesField(pfSampleType, valueType(st, "events", "count"))
	out.bytesField(pfSampleType, valueType(st, "sim_time", "nanoseconds"))

	// Walk the sealed tree depth-first in display order. Each node gets
	// a location+function; a sample is emitted for nodes with self time
	// or directly-recorded events so leaf and interior attribution both
	// survive the flat views.
	type frame struct {
		node *Node
		path string
	}
	nextID := uint64(1)
	var walk func(f frame, stack []uint64)
	var samples, locations, functions []pbuf
	walk = func(f frame, stack []uint64) {
		id := nextID
		nextID++

		var fn pbuf
		fn.intField(1, int64(id))          // function id
		fn.intField(2, st.id(f.node.Name)) // name
		fn.intField(3, st.id(f.node.Name)) // system_name
		fn.intField(4, st.id(f.path))      // filename = full component path
		functions = append(functions, fn)

		var line pbuf
		line.intField(1, int64(id)) // function_id
		var loc pbuf
		loc.intField(1, int64(id)) // location id
		loc.bytesField(4, line.Bytes())
		locations = append(locations, loc)

		stack = append(stack, id)
		if f.node.SelfPs > 0 || f.node.Count > 0 {
			var s pbuf
			locs := make([]int64, len(stack))
			for i := range stack { // leaf first
				locs[i] = int64(stack[len(stack)-1-i])
			}
			s.packedField(1, locs)
			s.packedField(2, []int64{f.node.Count, f.node.SelfPs / 1000})
			samples = append(samples, s)
		}
		for _, c := range f.node.Children {
			cp := c.Name
			if f.path != "" {
				cp = f.path + "/" + c.Name
			}
			walk(frame{node: c, path: cp}, stack)
		}
	}
	for _, c := range p.Root.Children {
		walk(frame{node: c, path: c.Name}, nil)
	}

	for i := range samples {
		out.bytesField(pfSample, samples[i].Bytes())
	}
	for i := range locations {
		out.bytesField(pfLocation, locations[i].Bytes())
	}
	for i := range functions {
		out.bytesField(pfFunction, functions[i].Bytes())
	}
	// Intern every remaining string before the table serializes.
	periodType := valueType(st, "sim_time", "nanoseconds")
	defaultType := st.id("sim_time")
	for _, s := range st.list {
		out.stringField(pfStringTable, s) // index 0 is the empty string
	}
	out.intField(pfDurationNanos, p.EndPs/1000)
	out.bytesField(pfPeriodType, periodType)
	out.intField(pfPeriod, 1)
	out.intField(pfDefaultSample, defaultType)

	gz := gzip.NewWriter(w) // zero ModTime: output is byte-stable
	if _, err := gz.Write(out.Bytes()); err != nil {
		return err
	}
	return gz.Close()
}
