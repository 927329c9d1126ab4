// Package busy counts the goroutines started to run simulation work
// side by side, so background host work takes a core only while one is
// spare. sim marks ShardedEngine.RunUntil and each parallel epoch's
// shard goroutines; runner marks each call Map runs concurrently. A
// lone engine on its caller's goroutine is not marked: core's datapath
// workers count the device that queued their job as one engine anyway,
// and poll for work only while the count leaves them a core
// (internal/core/datapath.go).
//
// A goroutine may be counted twice (a Map call that runs a sharded
// engine): the count only decides whether a worker may keep a core, and
// an overcount only parks it sooner.
package busy

import "sync/atomic"

var engines atomic.Int32

// Add marks n more goroutines as running an engine, or unmarks -n of
// them when n is negative.
func Add(n int) { engines.Add(int32(n)) }

// Engines reports how many goroutines are marked as running an engine.
func Engines() int { return int(engines.Load()) }
