// Package wrkgen models the wrk HTTP load generator of the paper's
// methodology (§VI): a fixed set of persistent connections issuing
// requests closed-loop (each connection sends its next request as soon
// as the previous response completes, after a configurable think time),
// recording request latency and completion counts.
package wrkgen

import (
	"repro/internal/sim"
	"repro/internal/stats"
)

// Target is the server-side entry point: Submit starts processing a
// request from the given connection and must invoke done exactly once
// when the response has fully left the server.
type Target interface {
	Submit(connID int, done func())
}

// Config tunes the generator.
type Config struct {
	Connections int
	// ThinkPs is the client-side delay between a response and the next
	// request (wrk uses ~0; the network RTT is charged here too).
	ThinkPs int64
	// ThinkPsFor, when non-nil, overrides ThinkPs per connection —
	// skewed workloads (e.g. Zipf request-rate distributions for the
	// fleet scaling experiment) give hot connections short think times
	// and cold connections long ones.
	ThinkPsFor func(connID int) int64
}

// Generator drives a Target over an engine.
type Generator struct {
	cfg    Config
	eng    *sim.Engine
	target Target

	Completed uint64
	Latency   stats.Histogram
	// measuring gates stats so warmup requests don't pollute them.
	measuring   bool
	measureFrom int64
	conns       []*conn
}

// conn is one client connection. Its callbacks are bound once, so the
// closed loop allocates nothing per request.
type conn struct {
	id    int
	start int64 // when the outstanding request was issued
	// done completes the outstanding request; issue sends the next.
	done, issue func()
}

// New builds a generator; Start begins the closed loop.
func New(eng *sim.Engine, target Target, cfg Config) *Generator {
	if cfg.Connections <= 0 {
		cfg.Connections = 1
	}
	g := &Generator{cfg: cfg, eng: eng, target: target}
	// The latency record grows with every completed request; bounded
	// mode keeps a long measurement window at fleet RPS in fixed memory.
	g.Latency.SetBounded()
	g.conns = make([]*conn, cfg.Connections)
	for id := range g.conns {
		c := &conn{id: id}
		c.issue = func() { g.issue(c) }
		c.done = func() { g.complete(c) }
		g.conns[id] = c
	}
	return g
}

// Start issues the first request on every connection.
func (g *Generator) Start() {
	for _, c := range g.conns {
		g.issue(c)
	}
}

// BeginMeasurement zeroes the completion stats; call after warmup.
func (g *Generator) BeginMeasurement() {
	g.measuring = true
	g.measureFrom = g.eng.Now()
	g.Completed = 0
	g.Latency.Reset()
}

// RPS returns completed requests per second since BeginMeasurement.
func (g *Generator) RPS() float64 {
	elapsed := g.eng.Now() - g.measureFrom
	if elapsed <= 0 {
		return 0
	}
	return float64(g.Completed) / (float64(elapsed) * 1e-12)
}

func (g *Generator) issue(c *conn) {
	c.start = g.eng.Now()
	g.target.Submit(c.id, c.done)
}

// complete records a finished request and schedules the connection's
// next one after its think time.
func (g *Generator) complete(c *conn) {
	if g.measuring {
		g.Completed++
		g.Latency.Observe(float64(g.eng.Now()-c.start) * 1e-12)
	}
	think := g.cfg.ThinkPs
	if g.cfg.ThinkPsFor != nil {
		think = g.cfg.ThinkPsFor(c.id)
	}
	if think > 0 {
		g.eng.After(think, c.issue)
	} else {
		g.eng.At(g.eng.Now(), c.issue)
	}
}
