package sim

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/memctrl"
	"repro/internal/memsys"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// DataPath selects how inbound record payloads reach memory — the
// placement axis the RDMA/peer-DMA experiments compare.
type DataPath int

const (
	// DataPathHost is the historical path: storage or NIC RX delivers
	// payloads into host DRAM through DDIO (LLC DMA ways), and inline
	// backends re-stage them into SmartDIMM buffers from there.
	DataPathHost DataPath = iota
	// DataPathPeer is the zero-copy path: an RDMA-capable NIC writes
	// records straight into SmartDIMM lower-half buffers (registered
	// memory regions) via one-sided WRITE, bypassing host DRAM and the
	// LLC's DDIO ways entirely.
	DataPathPeer
)

// String names the data path.
func (d DataPath) String() string {
	if d == DataPathPeer {
		return "peer"
	}
	return "host"
}

// SystemConfig assembles a full host: LLC, memory channels (the first
// optionally a SmartDIMM), and calibration parameters.
type SystemConfig struct {
	Params Params
	// DataPath selects the host-mediated (default) or peer-DMA ingress
	// path. The system only records the choice; internal/rdma supplies
	// the NIC model and internal/server consults the field to pick the
	// staging route.
	DataPath DataPath
	// LLCBytes/LLCWays size the shared LLC; zero selects the testbed
	// default (22MB, 11 ways).
	LLCBytes int
	LLCWays  int
	// Geometry for each DIMM; zero value selects SmallGeometry (128MB),
	// which keeps simulations fast while exercising all mechanisms.
	Geometry dram.Geometry
	// WithSmartDIMM installs a SmartDIMM as channel 0.
	WithSmartDIMM bool
	// SmartDIMMRanks installs this many SmartDIMM buffer devices, one
	// per channel starting at channel 0 — the paper's target platform
	// exposes every rank's buffer device as an independent accelerator.
	// Zero with WithSmartDIMM set means one rank (the single-device
	// configuration every paper figure uses). Values above one split
	// each device's range between offload buffers (lower half) and
	// regular memory (upper half), exactly like the single-rank layout.
	SmartDIMMRanks int
	// DeviceConfig overrides the SmartDIMM configuration; zero selects
	// PaperDeviceConfig.
	DeviceConfig *core.DeviceConfig
	// TraceCAS attaches a CAS trace to channel 0 (Fig. 9).
	TraceCAS int // max events; 0 disables
	// Faults, when non-nil, arms fault injection across channel 0: the
	// SmartDIMM device sites (core.alert / core.dsa / core.ttinsert) or
	// the plain DIMM site (dram.alert), and the controller's memctrl.crc
	// site. Nil keeps every layer on its fast, fault-free path.
	Faults *fault.Injector
	// Tracer, when non-nil, threads span tracing through every layer of
	// the assembled system — engine, per-rank controller, buffer device,
	// and driver — exactly like Faults. It also hooks Faults.OnFire so
	// fired injections land on the trace as instant events. Nil (the
	// default) keeps every instrumented site on its one-compare path.
	Tracer *telemetry.Tracer
	// Engine, when non-nil, builds the system on an existing engine
	// instead of a fresh one — how the sharded cluster places each
	// sub-system on its ShardedEngine shard. Nil keeps the historical
	// one-system-one-engine behaviour.
	Engine *Engine
}

// System is the assembled host model shared by the offload backends and
// the server model.
type System struct {
	Params   Params
	DataPath DataPath
	Engine   *Engine
	Hier     *memsys.Hierarchy
	Dev      *core.Device // nil without SmartDIMM; rank 0 with several
	Driver   *core.Driver // nil without SmartDIMM; rank 0 with several
	Trace    *stats.CASTrace

	// Devs/Drivers list every SmartDIMM rank in channel order; with a
	// single rank they alias Dev/Driver. Meters holds the per-channel
	// bandwidth meters in the same order (channel 0 first), so fleet
	// totals can be aggregated per device. Ctls holds the matching
	// memory controllers (write-queue pressure feeds placement scores).
	Devs    []*core.Device
	Drivers []*core.Driver
	Meters  []*stats.BandwidthMeter
	Ctls    []*memctrl.Controller

	// Tracer is the span tracer every component of this system records
	// to (nil when tracing is off). Callers that drive the system (the
	// server model, the fleet, the CLIs) read it from here.
	Tracer *telemetry.Tracer

	// allocator for plain (non-SmartDIMM) buffer space: one or more
	// page-granular regions (the upper half of each SmartDIMM rank, or
	// the plain channels) used for page-cache and connection buffers.
	plainRegions []plainRegion
}

// plainRegion is one contiguous range the plain bump allocator draws
// from; regions are consumed in order.
type plainRegion struct {
	next, end uint64
}

// NewSystem builds the host.
func NewSystem(cfg SystemConfig) (*System, error) {
	if cfg.LLCBytes == 0 {
		def := cache.DefaultXeonLLC()
		cfg.LLCBytes, cfg.LLCWays = def.SizeBytes, def.Ways
	}
	if cfg.Geometry.Ranks == 0 {
		cfg.Geometry = dram.SmallGeometry()
	}
	llc, err := cache.New(cache.Config{
		SizeBytes: cfg.LLCBytes, Ways: cfg.LLCWays,
		WayMask: [2]uint64{cache.ClassDMA: 0b11},
	})
	if err != nil {
		return nil, err
	}

	ranks := cfg.SmartDIMMRanks
	if ranks == 0 && cfg.WithSmartDIMM {
		ranks = 1
	}
	if ranks < 0 {
		return nil, fmt.Errorf("sim: %d SmartDIMM ranks", ranks)
	}

	eng := cfg.Engine
	if eng == nil {
		eng = NewEngine()
	}
	sys := &System{Params: cfg.Params, DataPath: cfg.DataPath, Engine: eng}
	sys.Tracer = cfg.Tracer
	sys.Engine.Tracer = cfg.Tracer
	// Channel-0 fault sites (core.*, memctrl.crc, dram.alert) all fire on
	// the DRAM-cycle clock; scale to picoseconds for the trace timeline.
	timing := memctrl.DefaultConfig().Timing
	tck := timing.TCKps
	if cfg.Faults != nil && cfg.Tracer != nil {
		tr := cfg.Tracer
		faultTrack := tr.Track("faults")
		cfg.Faults.OnFire = func(site string, _, now int64) {
			tr.Instant(faultTrack, site, now*tck)
		}
	}
	var chans []memsys.Channel

	peak := timing.PeakBytesPerSec()

	if ranks > 0 {
		dc := core.PaperDeviceConfig(cfg.Geometry)
		if cfg.DeviceConfig != nil {
			dc = *cfg.DeviceConfig
		}
		for r := 0; r < ranks; r++ {
			dev, err := core.NewDevice(dc)
			if err != nil {
				return nil, err
			}
			dev.Faults = cfg.Faults
			ctl := memctrl.New(memctrl.DefaultConfig(), dev)
			ctl.Faults = cfg.Faults
			if cfg.Tracer != nil {
				ctl.Tracer = cfg.Tracer
				ctl.TraceTrack = cfg.Tracer.Track(fmt.Sprintf("mem/rank%d", r))
				dev.Tracer = cfg.Tracer
				dev.TraceTrack = cfg.Tracer.Track(fmt.Sprintf("dev/rank%d", r))
				dev.TraceCycPs = tck
			}
			// Every rank's channel gets its own bandwidth meter so fleet
			// totals can be reported per device.
			m := &stats.BandwidthMeter{PeakBytesPerSec: peak}
			ctl.Meter = m
			sys.Meters = append(sys.Meters, m)
			sys.Ctls = append(sys.Ctls, ctl)
			if r == 0 {
				sys.Dev = dev
				if cfg.TraceCAS > 0 {
					sys.Trace = &stats.CASTrace{Limit: cfg.TraceCAS}
					ctl.Trace = sys.Trace
				}
			}
			sys.Devs = append(sys.Devs, dev)
			chans = append(chans, memsys.Channel{Ctl: ctl, Mod: dev})
		}
	} else {
		d, err := dram.NewPlainDIMM(cfg.Geometry)
		if err != nil {
			return nil, err
		}
		d.Faults = cfg.Faults
		meter := &stats.BandwidthMeter{PeakBytesPerSec: peak}
		ctl := memctrl.New(memctrl.DefaultConfig(), d)
		ctl.Meter = meter
		ctl.Faults = cfg.Faults
		if cfg.Tracer != nil {
			ctl.Tracer = cfg.Tracer
			ctl.TraceTrack = cfg.Tracer.Track("mem/plain")
		}
		sys.Meters = append(sys.Meters, meter)
		sys.Ctls = append(sys.Ctls, ctl)
		if cfg.TraceCAS > 0 {
			sys.Trace = &stats.CASTrace{Limit: cfg.TraceCAS}
			ctl.Trace = sys.Trace
		}
		chans = append(chans, memsys.Channel{Ctl: ctl, Mod: d})
	}
	hier, err := memsys.New(llc, chans...)
	if err != nil {
		return nil, err
	}
	hier.Clock = sys.Engine.Now
	sys.Hier = hier

	devCap := cfg.Geometry.CapacityBytes()
	for r := 0; r < ranks; r++ {
		base := uint64(r) * devCap
		drv := core.NewDriver(hier, base, devCap, 1)
		dev := sys.Devs[r]
		drv.AbortProbe = func() uint64 { return dev.Stats().RecordAborts }
		if cfg.Tracer != nil {
			drv.Clock = sys.Engine.Now
			drv.Tracer = cfg.Tracer
			drv.TraceTrack = cfg.Tracer.Track(fmt.Sprintf("driver/rank%d", r))
		}
		sys.Drivers = append(sys.Drivers, drv)
		// Plain buffers (page cache, connection buffers: the OS using
		// SmartDIMM capacity as regular memory, Benefit B2) share each
		// device range with offload buffers: offloads take the lower
		// half, plain memory the upper half below the MMIO page.
		drv.SetAllocRange(base, base+devCap/2)
		sys.plainRegions = append(sys.plainRegions,
			plainRegion{next: base + devCap/2, end: base + devCap - dram.PageSize})
	}
	if ranks == 0 {
		sys.plainRegions = append(sys.plainRegions, plainRegion{next: 0, end: devCap})
	} else {
		sys.Driver = sys.Drivers[0]
	}
	return sys, nil
}

// AllocPlain reserves n bytes (page-aligned) of regular memory for page
// cache and connection buffers. Regions are consumed in order, so with a
// single region the addresses are identical to the historical bump
// allocator; multi-rank systems fall through to the next rank's upper
// half when one fills.
func (s *System) AllocPlain(n int) (uint64, error) {
	pages := uint64((n + dram.PageSize - 1) / dram.PageSize)
	for i := range s.plainRegions {
		r := &s.plainRegions[i]
		if r.next+pages*dram.PageSize <= r.end {
			addr := r.next
			r.next += pages * dram.PageSize
			return addr, nil
		}
	}
	return 0, fmt.Errorf("sim: plain memory exhausted")
}

// ReadBytes reads n bytes at addr through the cache into a new slice.
// It forwards to Hier.Read and stays only because the benchmark module
// calls it; everything else calls the memsys bulk forms on Hier.
func (s *System) ReadBytes(core int, addr uint64, n int) ([]byte, int64, error) {
	return s.Hier.Read(nil, core, addr, n)
}

// MemoryBytesMoved returns total metered DRAM channel traffic: channel
// 0 alone in the historical single-device configurations, and the sum
// over every rank's channel in a multi-rank fleet.
func (s *System) MemoryBytesMoved() uint64 {
	var n uint64
	for _, m := range s.Meters {
		n += m.TotalBytes()
	}
	return n
}

// LLCMissRateSample samples and resets the LLC miss-rate window — the
// probe the adaptive policy uses (§V-C).
func (s *System) LLCMissRateSample() float64 { return s.Hier.LLC.SampleMissRate() }

// RegisterMetrics registers every stats aggregate the assembled system
// owns — the rank-0 device and driver plus each rank's memory
// controller — under the conventional prefixes ("dev", "driver",
// "mem.rankN"). The CLIs and the bench harness all report through this
// one helper so their metric name layout cannot drift apart.
func (s *System) RegisterMetrics(reg *telemetry.Registry) {
	s.RegisterMetricsPrefixed(reg, "")
}

// RegisterMetricsPrefixed is RegisterMetrics with every prefix nested
// under an extra component ("shard3" -> "shard3.dev", ...). The sharded
// cluster registers each sub-system through it so a multi-shard metrics
// dump carries every shard's aggregates instead of shard 0's alone.
func (s *System) RegisterMetricsPrefixed(reg *telemetry.Registry, prefix string) {
	join := func(name string) string {
		if prefix == "" {
			return name
		}
		return prefix + "." + name
	}
	if s.Dev != nil {
		reg.Register(join("dev"), s.Dev.Stats())
	}
	if s.Driver != nil {
		reg.Register(join("driver"), s.Driver.Stats())
	}
	for r, ctl := range s.Ctls {
		reg.Register(join(fmt.Sprintf("mem.rank%d", r)), ctl.Stats())
	}
}
