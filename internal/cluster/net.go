// The inter-node fabric: every cluster endpoint (the client/router
// front-end is endpoint 0, node i is endpoint 1+i) owns its outgoing
// half of the mesh — a per-destination serializing transmitter plus the
// fault sites that decide whether a message survives the wire. Messages
// cross shards exclusively through sim.ShardedEngine.Send, so the
// propagation delay doubles as the conservative lookahead window.
//
// Reliability is TCP-like without modelling the ack round trip: the
// drop decision (partition window, Bernoulli loss) is made at the
// sender, so a dropped attempt schedules its own retransmission one RTO
// later — delivery time is the first surviving attempt's wire time,
// which is exactly what a retransmitting transport converges to. The
// per-message retry cap models a connection reset (the message expires;
// replication-layer retries and client retries recover above it).
//
// Determinism: endpoint state (transmitter occupancy, counters) is only
// touched from its own shard's events; fault sites are consulted on the
// sender's injector, so each site's RNG stream and trace are owned by
// one shard. Partition plans are value types armed identically on every
// endpoint, which is how one fault.Partition cuts both directions of a
// link from two different injectors without shared state.
package cluster

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Fault sites consulted by the fabric, on the sending endpoint's net
// injector. SiteNetCut is consulted through FireLink with the endpoint
// addresses, so fault.Partition plans cut it per direction;
// SiteNetDrop is a per-destination family ("net.drop.<dst>") so each
// directed link draws from an independent stream.
const (
	SiteNetCut  = "net.cut"
	SiteNetDrop = "net.drop"
)

// netEndpoint is one endpoint's sender-side state, owned by its shard.
type netEndpoint struct {
	id    int
	eng   *sim.Engine
	inj   *fault.Injector // net-plane injector (nil = clean)
	tr    *telemetry.Tracer
	track telemetry.TrackID

	busy      []int64  // per-destination transmitter free time
	dropSites []string // cached "net.drop.<dst>" names

	Sent      uint64 // attempts (including retransmissions)
	Dropped   uint64
	Retrans   uint64
	Delivered uint64
	Expired   uint64
	WireBytes uint64
}

// Net is the full mesh.
type Net struct {
	se  *sim.ShardedEngine
	eps []*netEndpoint
}

// newNet wires n endpoints over the sharded engine; endpoint e lives on
// shard e (the cluster maps endpoint 0 to the front-end shard and
// endpoint 1+i to node i's shard). injs[e] may be nil.
func newNet(se *sim.ShardedEngine, injs []*fault.Injector, trs []*telemetry.Tracer) *Net {
	n := &Net{se: se}
	for e := 0; e < se.Shards(); e++ {
		ep := &netEndpoint{
			id:   e,
			eng:  se.Shard(e),
			busy: make([]int64, se.Shards()),
		}
		if injs != nil {
			ep.inj = injs[e]
		}
		if trs != nil && trs[e] != nil {
			ep.tr = trs[e]
			ep.track = ep.tr.Track("xnet")
		}
		ep.dropSites = make([]string, se.Shards())
		for d := range ep.dropSites {
			ep.dropSites[d] = fmt.Sprintf("%s.%d", SiteNetDrop, d)
		}
		n.eps = append(n.eps, ep)
	}
	return n
}

func (n *Net) serializationPs(bytes int) int64 {
	return int64(float64(bytes*8) / (netGbps * 1e9) * 1e12)
}

// Send transmits bytes from endpoint src to dst and runs fn on dst's
// shard when the message lands, retransmitting through partitions and
// drops. It must be called from src's shard (or setup code before the
// run). fn must touch only dst-shard state.
func (n *Net) Send(src, dst int, bytes int, fn func()) {
	n.send(src, dst, bytes, false, 0, fn)
}

// SendControl is Send for the god-mode fault-domain control plane:
// kill/drain/rejoin commands bypass the fault sites (the experimenter's
// hand is not partitionable) but still pay wire time.
func (n *Net) SendControl(src, dst int, bytes int, fn func()) {
	n.send(src, dst, bytes, true, 0, fn)
}

func (n *Net) send(src, dst int, bytes int, god bool, try int, fn func()) {
	ep := n.eps[src]
	now := ep.eng.Now()
	start := now
	if ep.busy[dst] > start {
		start = ep.busy[dst]
	}
	done := start + n.serializationPs(bytes)
	ep.busy[dst] = done
	ep.Sent++
	ep.WireBytes += uint64(bytes)
	if !god && n.dropped(ep, dst, done) {
		ep.Dropped++
		ep.tr.Instant(ep.track, "xnet.drop", done)
		if try+1 >= netMaxTries {
			ep.Expired++
			ep.tr.Instant(ep.track, "xnet.expire", done)
			return
		}
		ep.eng.At(done+netRTOPs, func() {
			ep.Retrans++
			ep.tr.Instant(ep.track, "xnet.retransmit", ep.eng.Now())
			n.send(src, dst, bytes, god, try+1, fn)
		})
		return
	}
	ep.tr.Span(ep.track, "xwire", start, done-start)
	ep.Delivered++
	n.se.Send(src, dst, (done-now)+propPs, fn)
}

// dropped consults the sender's fault sites: the partition site first
// (structural, direction-aware), then the per-link loss site — distinct
// sites, so arming one never perturbs the other's stream.
func (n *Net) dropped(ep *netEndpoint, dst int, atPs int64) bool {
	if ep.inj.FireLink(SiteNetCut, ep.id, dst, atPs) {
		return true
	}
	return ep.inj.Fire(ep.dropSites[dst], atPs)
}

// NetTotals aggregates endpoint counters in address order.
type NetTotals struct {
	Sent, Dropped, Retrans, Delivered, Expired, WireBytes uint64
}

// Totals folds every endpoint's counters (deterministic order).
func (n *Net) Totals() NetTotals {
	var t NetTotals
	for _, ep := range n.eps {
		t.Sent += ep.Sent
		t.Dropped += ep.Dropped
		t.Retrans += ep.Retrans
		t.Delivered += ep.Delivered
		t.Expired += ep.Expired
		t.WireBytes += ep.WireBytes
	}
	return t
}

// Collect implements telemetry.Collector.
func (t NetTotals) Collect(emit func(telemetry.Sample)) {
	emit(telemetry.Sample{Name: "sent", Value: float64(t.Sent)})
	emit(telemetry.Sample{Name: "dropped", Value: float64(t.Dropped)})
	emit(telemetry.Sample{Name: "retransmits", Value: float64(t.Retrans)})
	emit(telemetry.Sample{Name: "delivered", Value: float64(t.Delivered)})
	emit(telemetry.Sample{Name: "expired", Value: float64(t.Expired)})
	emit(telemetry.Sample{Name: "wire_bytes", Value: float64(t.WireBytes)})
}
