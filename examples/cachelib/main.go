// CacheLib adaptation demo: reproduce the paper's headline scenario (Fig. 4)
// at laptop scale — an in-memory cache whose popularity distribution shifts
// mid-run, compared across AutoNUMA, Memtis, and HybridTier. All three
// policies run concurrently as one Sweep; each cell builds its own workload
// instance from the shared factory, so every policy sees the identical
// op stream.
//
//	go run ./examples/cachelib
package main

import (
	"context"
	"fmt"
	"log"

	hybridtier "repro"
	"repro/internal/workloads/cachelib"
)

func main() {
	const ops = 1_500_000

	sw := &hybridtier.Sweep{
		Policies: []hybridtier.PolicyName{
			hybridtier.PolicyAutoNUMA,
			hybridtier.PolicyMemtis,
			hybridtier.PolicyHybridTier,
		},
		Seeds: []uint64{7},
		Base: []hybridtier.Option{
			hybridtier.WithWorkloadFunc(func(seed uint64) (hybridtier.Workload, error) {
				cfg := cachelib.CDN(seed)
				cfg.Objects = 8_000
				cfg.ChurnEveryOps = 0
				cfg.ShiftAfterOps = ops / 3
				cfg.ShiftFrac = 2.0 / 3.0
				return cachelib.New(cfg)
			}),
			hybridtier.WithRatio(8),
			hybridtier.WithOps(ops),
			// Adaptation measurement needs finer latency windows than the
			// default 100 ms to resolve the re-convergence point.
			hybridtier.WithWindowNs(5_000_000),
		},
	}
	cells, err := sw.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("CacheLib CDN, 1:8 fast:slow, popularity shift at 1/3 of the run")
	fmt.Println()
	fmt.Println("policy      p50(ns)  mean(ns)  promoted  demoted  adapt(ms)")
	for _, c := range cells {
		if c.Err != "" {
			log.Fatalf("%s: %s", c.Policy, c.Err)
		}
		res := c.Result
		adapt := "n/a"
		if ns, ok := res.AdaptationNs(); ok {
			adapt = fmt.Sprintf("%.1f", float64(ns)/1e6)
		}
		fmt.Printf("%-10s  %7d  %8.0f  %8d  %7d  %s\n",
			res.Policy, res.MedianLatNs, res.MeanLatNs,
			res.Mem.Promotions, res.Mem.Demotions, adapt)
	}
}
