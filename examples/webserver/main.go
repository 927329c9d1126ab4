// Webserver: run the Nginx-like server model over every accelerator
// placement and compare requests per second, CPU utilization, and
// memory bandwidth — the Fig. 11 experiment as a runnable program.
//
//	go run ./examples/webserver
package main

import (
	"fmt"
	"log"

	"repro/internal/corpus"
	"repro/internal/scenario"
	"repro/internal/sim"
)

func main() {
	const (
		msgSize     = 4096
		connections = 256
		workers     = 4
		llcBytes    = 512 << 10
	)
	fmt.Printf("HTTPS serving, %dB responses, %d connections, %d workers, %dKB LLC\n\n",
		msgSize, connections, workers, llcBytes>>10)
	fmt.Printf("%-12s %-10s %-10s %-12s %s\n", "placement", "RPS", "CPU util", "mem GB/s", "mean latency")

	for _, p := range []struct{ name, placement string }{
		{"CPU", "cpu"}, {"SmartNIC", "smartnic"}, {"QuickAssist", "qat"}, {"SmartDIMM", "smartdimm"},
	} {
		st, err := scenario.Build(scenario.Spec{
			Placement: p.placement, ULP: "tls", Msg: msgSize, Conns: connections, Workers: workers,
			Seed: 1, WarmupPs: 2 * sim.Ms, MeasurePs: 10 * sim.Ms,
			LLCBytes: llcBytes, LLCWays: 8, FileKind: corpus.Text,
		})
		if err != nil {
			log.Fatal(err)
		}
		r, err := st.Run()
		if err != nil {
			log.Fatal(err)
		}
		m := r.Metrics
		fmt.Printf("%-12s %-10.0f %-10.1f%% %-12.3f %.0f us\n",
			p.name, m.RPS, m.CPUUtil*100, m.MemBWGBps, float64(m.MeanLatPs)/float64(sim.Us))
	}
	fmt.Println("\nUnder LLC contention SmartDIMM serves more requests with less CPU and")
	fmt.Println("memory bandwidth: encryption happens in the DIMM buffer device while the")
	fmt.Println("unmodified TCP/IP stack runs on the CPU (paper Fig. 11).")
}
