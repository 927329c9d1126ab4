// Adaptive: demonstrate the §V-C policy — the modified OpenSSL engine
// probes the LLC miss rate and offloads TLS to SmartDIMM only under
// contention, processing on the CPU otherwise.
//
//	go run ./examples/adaptive
package main

import (
	"fmt"
	"log"

	"repro/internal/corpus"
	"repro/internal/offload"
	"repro/internal/sim"
)

func main() {
	sys, err := sim.NewSystem(sim.SystemConfig{
		Params: sim.DefaultParams(), LLCBytes: 256 << 10, LLCWays: 8,
		WithSmartDIMM: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	ad := &offload.Adaptive{
		Sys:           sys,
		CPUBackend:    &offload.CPU{Sys: sys, Functional: true},
		DIMM:          &offload.SmartDIMM{Sys: sys},
		ProbeInterval: 8,
	}
	conn, err := ad.NewConn(offload.TLS, 1, 4096)
	if err != nil {
		log.Fatal(err)
	}
	payload := corpus.Generate(corpus.Text, 4096, 1)

	// An antagonist working set we can switch on and off.
	antagonist, err := sys.AllocPlain(1 << 20)
	if err != nil {
		log.Fatal(err)
	}
	sys.Hier.Write(1, antagonist, make([]byte, 1<<20))

	phases := []struct {
		name      string
		contended bool
	}{
		{"phase 1: quiet cache", false},
		{"phase 2: antagonist streaming through the LLC", true},
		{"phase 3: quiet again", false},
	}
	for _, ph := range phases {
		// Warm the connection's buffers on the CPU path so the phase is
		// judged on steady-state traffic, then reset the probe window and
		// run a measured batch.
		for i := 0; i < 6; i++ {
			offload.StagePayloadCPU(sys, 0, conn, payload)
			if _, err := ad.CPUBackend.Process(offload.TLS, 0, conn, len(payload)); err != nil {
				log.Fatal(err)
			}
			if ph.contended {
				sys.Hier.Read(nil, 1, antagonist, 256<<10)
			}
		}
		startOff, startCPU := ad.OffloadedN, ad.OnCPUN
		sys.LLCMissRateSample()
		for i := 0; i < 32; i++ {
			if _, err := offload.StagePayloadCPU(sys, 0, conn, payload); err != nil {
				log.Fatal(err)
			}
			if _, err := ad.Process(offload.TLS, 0, conn, len(payload)); err != nil {
				log.Fatal(err)
			}
			if ph.contended {
				sys.Hier.Read(nil, 1, antagonist, 256<<10)
			}
		}
		fmt.Printf("%-48s miss-rate=%.3f  offloaded=%2d  on-cpu=%2d\n",
			ph.name, ad.LastMissRate,
			ad.OffloadedN-startOff, ad.OnCPUN-startCPU)
	}
	fmt.Println("\nThe engine switches per message (4KB pages): SmartDIMM when the LLC is")
	fmt.Println("contended, AES-NI on the CPU when it is not — offloading only when DRAM")
	fmt.Println("is already on the data path (Observation 3).")
}
