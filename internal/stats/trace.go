package stats

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/telemetry"
)

// CASKind distinguishes the two column commands SmartDIMM observes.
type CASKind uint8

// CAS command kinds as seen by the DIMM buffer device.
const (
	RdCAS CASKind = iota // read column address strobe
	WrCAS                // write column address strobe
)

// String returns the DDR mnemonic for the command kind.
func (k CASKind) String() string {
	if k == RdCAS {
		return "rdCAS"
	}
	return "wrCAS"
}

// CASEvent is one 64-byte column access observed on the DDR channel,
// recorded with simulated time and physical address. Fig. 9 of the paper
// is a scatter of exactly these events.
type CASEvent struct {
	AtPs     int64
	Kind     CASKind
	PhysAddr uint64
	Core     int // issuing core, -1 when unknown (e.g., prefetcher)
}

// CASTrace records CAS events for later analysis or dumping. A zero
// CASTrace is ready to use; set Limit to bound memory for long runs
// (events past the limit are counted but not stored).
type CASTrace struct {
	Limit   int
	Events  []CASEvent
	dropped uint64
	reads   uint64
	writes  uint64
}

// Record appends one event to the trace.
func (t *CASTrace) Record(ev CASEvent) {
	if ev.Kind == RdCAS {
		t.reads++
	} else {
		t.writes++
	}
	if t.Limit > 0 && len(t.Events) >= t.Limit {
		t.dropped++
		return
	}
	t.Events = append(t.Events, ev)
}

// Reads returns the total rdCAS count, including unstored events.
func (t *CASTrace) Reads() uint64 { return t.reads }

// Writes returns the total wrCAS count, including unstored events.
func (t *CASTrace) Writes() uint64 { return t.writes }

// Dump writes the trace as "time_ps kind phys_addr core" rows, suitable
// for plotting Fig. 9 with gnuplot.
func (t *CASTrace) Dump(w io.Writer) error {
	for _, ev := range t.Events {
		if _, err := fmt.Fprintf(w, "%d %s 0x%x %d\n", ev.AtPs, ev.Kind, ev.PhysAddr, ev.Core); err != nil {
			return err
		}
	}
	return nil
}

// ExportTo emits the stored CAS events onto a trace as two cumulative
// Perfetto counters (rdCAS/wrCAS on a "cas" track), so Fig. 9 data and
// request spans land in one file. The text Dump format is unchanged —
// ExportTo is an additional view over the same events.
func (t *CASTrace) ExportTo(tr *telemetry.Tracer) {
	if tr == nil || len(t.Events) == 0 {
		return
	}
	track := tr.Track("cas")
	var rd, wr float64
	for _, ev := range t.Events {
		if ev.Kind == RdCAS {
			rd++
			tr.Counter(track, "rdCAS", ev.AtPs, rd)
		} else {
			wr++
			tr.Counter(track, "wrCAS", ev.AtPs, wr)
		}
	}
}

// MonotonicRunLengths returns, per core, the lengths of maximal runs of
// strictly increasing rdCAS addresses. The paper's Fig. 9 magnification
// shows monotonic address increase within each CompCpy call; long runs
// here confirm the same behaviour in the reproduction.
func (t *CASTrace) MonotonicRunLengths() map[int][]int {
	byCore := map[int][]CASEvent{}
	for _, ev := range t.Events {
		if ev.Kind == RdCAS {
			byCore[ev.Core] = append(byCore[ev.Core], ev)
		}
	}
	out := map[int][]int{}
	for core, evs := range byCore {
		sort.Slice(evs, func(i, j int) bool { return evs[i].AtPs < evs[j].AtPs })
		run := 1
		for i := 1; i < len(evs); i++ {
			if evs[i].PhysAddr > evs[i-1].PhysAddr {
				run++
				continue
			}
			out[core] = append(out[core], run)
			run = 1
		}
		if run > 0 {
			out[core] = append(out[core], run)
		}
	}
	return out
}

// AddressSpreadBytes returns max-min physical address over stored events,
// used to validate the 32MB inter-buffer spacing visible in Fig. 9.
func (t *CASTrace) AddressSpreadBytes() uint64 {
	if len(t.Events) == 0 {
		return 0
	}
	min, max := t.Events[0].PhysAddr, t.Events[0].PhysAddr
	for _, ev := range t.Events {
		if ev.PhysAddr < min {
			min = ev.PhysAddr
		}
		if ev.PhysAddr > max {
			max = ev.PhysAddr
		}
	}
	return max - min
}
