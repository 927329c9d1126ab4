// RDMA chaos: the peer-DMA ingress under a seeded fault schedule.
// Deposits stream through the NIC model into fleet-managed registered
// buffers while the injector eats doorbells and NAKs receivers, and the
// harness forces the two races the data path must survive:
//
//   - MR-unregister-during-flight (at ops/3): a WQE is posted, its MR is
//     quiesced before the doorbell rings, and the late write must fail
//     cleanly ("stale" completion, no landing) instead of hitting memory
//     whose registration was revoked;
//   - mid-migration peer writes (at 2*ops/3): a WQE is posted, the
//     connection's home rank is force-failed (drain + reshard moves the
//     buffers), and the late write must retarget to the post-migration
//     registration — never the freed pages.
//
// Invariants checked: every landing lies inside the registered region it
// was addressed to (no record outside its MR); WQE conservation — posted
// equals completed + failed + pending throughout, and pending is zero
// after disarm + drain; cross-rank page conservation over the fleet; the
// shared per-device conservation sweep and no leaked engine events; and
// the report's fault, NIC and placement traces replay byte-identically
// from the seed.
package chaos

import (
	"bytes"
	"errors"
	"math/rand"

	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/offload"
	"repro/internal/rdma"
	"repro/internal/sim"
)

type rdmaSoak struct {
	*soak
	nic   *rdma.NIC
	fl    *fleet.Fleet
	bkend *offload.RDMA
	conns []*offload.Conn
}

// armRDMA gives the two RDMA sites schedules drawn from the scenario
// RNG, so a soak covers quiet, bursty, and saturated fault regimes.
func armRDMA(rng *rand.Rand, inj *fault.Injector) {
	inj.Arm(rdma.SiteDoorbell, fault.Bernoulli{Prob: 0.02 + 0.2*rng.Float64()})
	inj.Arm(rdma.SiteRNR, fault.Bernoulli{Prob: 0.02 + 0.2*rng.Float64()})
}

// RunRDMA executes one RDMA chaos scenario: ops seeded deposits over
// several fleet-homed connections with doorbell loss and RNR NAKs
// armed, plus the two forced races (MR unregister in flight, peer write
// across a drain-and-reshard migration), then disarm + drain + the full
// invariant sweep. The returned error reports harness construction
// failures only; invariant breaches land in Report.Violations.
func RunRDMA(seed int64, ops int) (Report, error) {
	h, err := newSoak("rdma", seed, armRDMA, sim.SystemConfig{SmartDIMMRanks: soakRanks, DataPath: sim.DataPathPeer})
	if err != nil {
		return Report{}, err
	}
	nic, err := rdma.New(rdma.Config{
		Sys: h.sys, Faults: h.inj, TraceOps: true, RecordLandings: true,
	})
	if err != nil {
		return Report{}, err
	}
	fl, err := h.newFleet([]fleet.Policy{fleet.RoundRobin, fleet.LeastLoaded, fleet.Sticky}, nic)
	if err != nil {
		return Report{}, err
	}
	bkend, err := offload.NewRDMA(fl, nic)
	if err != nil {
		return Report{}, err
	}
	s := &rdmaSoak{soak: h, nic: nic, fl: fl, bkend: bkend}
	for i := 0; i < 4; i++ {
		conn, err := bkend.NewConn(offload.Compression, i, compMsg)
		if err != nil {
			return Report{}, err
		}
		s.conns = append(s.conns, conn)
	}

	for s.op = 0; s.op < ops; s.op++ {
		switch s.op {
		case ops / 3:
			s.forceUnregisterInFlight()
		case (2 * ops) / 3:
			s.forceMigrationInFlight()
		}
		s.opDeposit(s.rng.Intn(len(s.conns)))
		s.checkWQEConservation("mid-stream")
	}

	// Disarm, then drain every QP: with injection quiet the doorbells
	// cannot be lost, so every retained WQE executes now.
	s.drain()
	if _, err := nic.DrainAll(); err != nil {
		s.violate("drain: DrainAll after disarm: %v", err)
	}
	if p := nic.Pending(); p != 0 {
		s.violate("drain: %d WQEs still pending after disarm+drain", p)
	}
	s.checkWQEConservation("after disarm+drain")
	s.checkLandings()
	s.checkPages(fl, "after final drain")
	s.checkDevices()

	st := nic.Stats()
	rep := s.finish(ops,
		Count{"posted", int64(st.Posted)},
		Count{"completed", int64(st.Completed)},
		Count{"failed", int64(st.Failed)},
		Count{"doorbells_lost", int64(st.DoorbellsLost)},
		Count{"rnr_naks", int64(st.RNRNaks)},
		Count{"stale_retries", int64(st.StaleRkeyRetries)},
		Count{"bounds_refusals", int64(st.BoundsRefusals)},
		Count{"peer_bytes", int64(st.PeerBytes)},
		Count{"migrations", int64(fl.Totals().Migrations)})
	rep.artifact("nic", nic.TraceString())
	rep.artifact("placement", fl.TraceString())
	return rep, nil
}

// opDeposit streams one payload through the peer path. A few percent of
// deposits are rogue (deliberately out of bounds): the NIC must refuse
// them without touching memory.
func (s *rdmaSoak) opDeposit(slot int) {
	conn := s.conns[slot]
	if s.rng.Intn(16) == 0 {
		if err := s.nic.PostWrite(conn.ID, conn.Size-8, s.payload(256)); err != nil {
			if errors.Is(err, rdma.ErrSQFull) {
				s.tolerated++ // leftovers from a lost-doorbell deposit
			} else {
				s.violate("op %d: rogue post refused at the SQ (want bounds refusal at exec): %v", s.op, err)
			}
			return
		}
		if _, err := s.nic.RingDoorbell(conn.ID); err != nil {
			s.violate("op %d: rogue ring: %v", s.op, err)
		}
		return
	}
	n := 1 + s.rng.Intn(compMsg)
	if _, err := s.bkend.Ingest(conn, s.payload(n)); err != nil {
		if errors.Is(err, rdma.ErrRetryExhausted) {
			// Injected doorbell loss out-ran the retry budget; the WQEs
			// stay posted and the final drain delivers them.
			s.tolerated++
			return
		}
		s.violate("op %d: deposit conn %d: %v", s.op, conn.ID, err)
	}
}

// forceUnregisterInFlight posts a WQE, quiesces its MR before the
// doorbell, and checks the late write fails cleanly without landing.
func (s *rdmaSoak) forceUnregisterInFlight() {
	conn := s.conns[s.rng.Intn(len(s.conns))]
	if err := s.nic.PostWrite(conn.ID, 0, s.payload(1024)); err != nil {
		if !errors.Is(err, rdma.ErrSQFull) {
			s.violate("op %d: unregister-race post: %v", s.op, err)
		}
		return
	}
	if rk := s.nic.QuiesceQP(conn.ID); rk == 0 {
		s.violate("op %d: quiesce found no MR for conn %d", s.op, conn.ID)
		return
	}
	snap, _, err := s.sys.DMAOut(nil, conn.Src, 1024)
	if err != nil {
		s.violate("op %d: unregister-race snapshot: %v", s.op, err)
		return
	}
	failedBefore := s.nic.Stats().Failed
	if _, err := s.nic.RingDoorbell(conn.ID); err != nil {
		s.violate("op %d: unregister-race ring: %v", s.op, err)
	}
	// The ring may be eaten by injected doorbell loss; only a delivered
	// ring must produce the clean "stale" failure.
	if s.nic.Stats().Failed > failedBefore {
		now, _, err := s.sys.DMAOut(nil, conn.Src, 1024)
		if err != nil {
			s.violate("op %d: unregister-race readback: %v", s.op, err)
		} else if !bytes.Equal(snap, now) {
			s.violate("op %d: write landed through a revoked registration", s.op)
		}
	}
	// Restore ingress over the same buffer (the registration the next
	// deposits use).
	if _, err := s.nic.RebindQP(conn.ID, conn.Src, conn.Size); err != nil {
		s.violate("op %d: unregister-race rebind: %v", s.op, err)
	}
}

// forceMigrationInFlight posts a WQE, force-fails the connection's home
// rank (drain-and-reshard moves the buffers and rebinds the MR), and
// checks the late write followed the registration.
func (s *rdmaSoak) forceMigrationInFlight() {
	conn := s.conns[s.rng.Intn(len(s.conns))]
	home := s.fl.Home(conn.ID)
	if home < 0 {
		return // already homeless; nothing to migrate
	}
	data := s.payload(1024)
	if err := s.nic.PostWrite(conn.ID, 0, data); err != nil {
		if !errors.Is(err, rdma.ErrSQFull) {
			s.violate("op %d: migration-race post: %v", s.op, err)
		}
		return
	}
	oldSrc := conn.Src
	if err := s.fl.Fail(home); err != nil {
		s.violate("op %d: migration-race fail d%d: %v", s.op, home, err)
		return
	}
	if conn.Src == oldSrc {
		// No survivor accepted the buffers (stranded): the MR stays
		// over the same pages and the write may land there legally.
		s.readmitAll()
		return
	}
	oldSnap, _, err := s.sys.DMAOut(nil, oldSrc, len(data))
	if err != nil {
		s.violate("op %d: migration-race snapshot: %v", s.op, err)
		return
	}
	completedBefore := s.nic.Stats().Completed
	if _, err := s.nic.RingDoorbell(conn.ID); err != nil {
		s.violate("op %d: migration-race ring: %v", s.op, err)
	}
	if s.nic.Stats().Completed > completedBefore {
		oldNow, _, err := s.sys.DMAOut(nil, oldSrc, len(data))
		if err != nil {
			s.violate("op %d: migration-race readback: %v", s.op, err)
		} else if !bytes.Equal(oldSnap, oldNow) {
			s.violate("op %d: mid-migration write landed in the draining rank's freed pages", s.op)
		}
	}
	s.readmitAll()
}

// readmitAll returns tripped members to service so the soak keeps all
// ranks in play after a forced failure.
func (s *rdmaSoak) readmitAll() {
	for i := 0; i < s.fl.Members(); i++ {
		if err := s.fl.Readmit(i); err != nil {
			s.violate("op %d: readmit d%d: %v", s.op, i, err)
		}
	}
}

// checkWQEConservation asserts posted == completed + failed + pending.
func (s *rdmaSoak) checkWQEConservation(when string) {
	st := s.nic.Stats()
	if st.Posted != st.Completed+st.Failed+uint64(s.nic.Pending()) {
		s.violate("wqe conservation %s (op %d): posted %d != completed %d + failed %d + pending %d",
			when, s.op, st.Posted, st.Completed, st.Failed, s.nic.Pending())
	}
}

// checkLandings asserts every recorded landing lies inside the MR it was
// addressed to.
func (s *rdmaSoak) checkLandings() {
	for _, l := range s.nic.Landings() {
		mr, ok := s.nic.LookupMR(l.Rkey)
		if !ok {
			s.violate("landing against unknown rk%d: %+v", l.Rkey, l)
			continue
		}
		if l.Addr < mr.Addr || l.Addr+uint64(l.Len) > mr.Addr+uint64(mr.Len) {
			s.violate("landing outside rk%d's region: %+v vs [%#x,+%d)", l.Rkey, l, mr.Addr, mr.Len)
		}
	}
}
