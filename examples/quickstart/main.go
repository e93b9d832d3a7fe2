// Quickstart: simulate HybridTier against a workload whose hot set shifts
// mid-run — the scenario the paper targets — and compare it with a static
// first-touch placement, using only the public hybridtier facade. The two
// policies run concurrently as one Sweep over the identical op stream.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	hybridtier "repro"
)

func main() {
	const (
		pages = 1 << 16 // 256 MB of 4 KB pages
		ops   = 600_000
	)

	// A skewed workload where 2/3 of the hot set rotates one third of the
	// way through the run (§2.2: production hot sets churn within minutes).
	// A workload factory gives every sweep cell its own instance.
	sw := &hybridtier.Sweep{
		Policies: []hybridtier.PolicyName{
			hybridtier.PolicyHybridTier,
			hybridtier.PolicyFirstTouch,
		},
		Seeds: []uint64{42},
		Base: []hybridtier.Option{
			hybridtier.WithWorkloadFunc(func(seed uint64) (hybridtier.Workload, error) {
				return hybridtier.ShiftingZipf("quickstart", pages, 1.0, seed, ops/3, 2.0/3.0), nil
			}),
			hybridtier.WithRatio(8), // fast tier holds 1/9 of the footprint
			hybridtier.WithOps(ops),
		},
	}
	cells, err := sw.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	byPolicy := map[hybridtier.PolicyName]*hybridtier.Result{}
	fmt.Println("policy       p50(ns)  mean(ns)  Mop/s  promotions  demotions")
	for _, c := range cells {
		if c.Err != "" {
			log.Fatalf("%s: %s", c.Policy, c.Err)
		}
		r := c.Result
		byPolicy[c.Policy] = r
		fmt.Printf("%-11s  %7d  %8.0f  %5.2f  %10d  %9d\n",
			r.Policy, r.MedianLatNs, r.MeanLatNs, r.ThroughputMops,
			r.Mem.Promotions, r.Mem.Demotions)
	}

	ht := byPolicy[hybridtier.PolicyHybridTier]
	st := byPolicy[hybridtier.PolicyFirstTouch]
	fmt.Printf("\nHybridTier mean-latency speedup over first-touch: %.2f×\n",
		st.MeanLatNs/ht.MeanLatNs)
	if adapt, ok := ht.AdaptationNs(); ok {
		fmt.Printf("HybridTier re-converged %.1f virtual ms after the shift\n",
			float64(adapt)/1e6)
	}
}
