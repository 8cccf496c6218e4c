// Multimodal: serve a TextVQA-like vision-language workload (576 image
// tokens per request for LLaVA-1.5) and compare the original static-batching
// implementation against LightLLM-style continuous batching with the
// Past-Future scheduler — the paper's Table 2 scenario, built directly on
// the public API.
//
//	go run ./examples/multimodal
package main

import (
	"fmt"
	"log"

	"github.com/lightllm-go/lightllm"
	"github.com/lightllm-go/lightllm/internal/workload"
)

func main() {
	const n = 800
	gen := workload.TextVQA(576) // LLaVA-1.5 image token count

	type mode struct {
		label string
		cfg   lightllm.ServingConfig
	}
	modes := []mode{
		{"origin (static batching)", lightllm.ServingConfig{
			Model: "LLaVA-1.5-7B", GPU: "A100-80G",
			StaticBatchSize: 64,
		}},
		{"LightLLM (past-future)", lightllm.ServingConfig{
			Model: "LLaVA-1.5-7B", GPU: "A100-80G",
			Scheduler: "past-future",
		}},
	}

	fmt.Printf("LLaVA-1.5-7B on A100-80G, %d TextVQA-like requests\n\n", n)
	var throughputs []float64
	for _, m := range modes {
		eng, err := lightllm.NewServing(m.cfg)
		if err != nil {
			log.Fatal(err)
		}
		eng.SubmitAll(lightllm.BuildWorkload(gen, lightllm.NewRNG(5), n, 1, 256))
		res := eng.Run()
		fmt.Printf("%-26s %7.0f output tok/s  (batch mean %.1f, mem %.1f%%)\n",
			m.label, res.Throughput(), res.MeanBatchSize, res.MemUtilization*100)
		throughputs = append(throughputs, res.Throughput())
	}
	fmt.Printf("\nspeedup: %.2fx — continuous batching removes the padded lanes and\n", throughputs[1]/throughputs[0])
	fmt.Println("the Past-Future scheduler keeps the batch as large as future memory allows.")
}
