package main

import (
	"context"
	"fmt"
	"math"
	"os"
)

// runAA runs the timed suite k times in each of two sets, alternating which
// set goes first, and compares the sets metric by metric: it is the same code
// both times, so they must agree within each metric's bound. Repetition i uses
// seed+i in both sets.
func runAA(ctx context.Context, cfg runConfig, k int) int {
	cfg.trace = false
	// values[set][workload][metric] holds one value per repetition.
	var values [2]map[string]map[string][]float64
	for s := range values {
		values[s] = map[string]map[string][]float64{}
		for _, def := range workloads {
			values[s][def.name] = map[string][]float64{}
		}
	}
	for i := 0; i < k; i++ {
		for j := 0; j < 2; j++ {
			set := (i + j) % 2
			for _, def := range workloads {
				c := cfg
				c.seed = cfg.seed + int64(i)
				res := runOne(ctx, c, def)
				if res.aborted != nil || res.failed > 0 {
					res.print(os.Stdout)
					return max(res.finish(os.Stdout), 1)
				}
				for name, m := range res.metrics {
					values[set][def.name][name] = append(values[set][def.name][name], m.Value)
				}
				fmt.Fprintf(os.Stderr, "bench: a/a repetition %d set %c %s done\n", i+1, 'A'+set, def.name)
			}
		}
	}
	fmt.Println(flushPolicy)
	fmt.Printf("%-10s %-26s %12s %12s %8s %8s %6s  %s\n", "workload", "metric", "median A", "median B", "spread A", "spread B", "bound", "verdict")
	code := 0
	for _, def := range workloads {
		for _, md := range endToEndDefs {
			a, b := values[0][def.name][md.name], values[1][def.name][md.name]
			_, ma, _ := quartiles(a)
			_, mb, _ := quartiles(b)
			verdict := "agree"
			if math.Abs(ma-mb)/math.Min(ma, mb) > md.bound {
				verdict = "DISAGREE"
				code = 1
			}
			fmt.Printf("%-10s %-26s %12.4f %12.4f %8.3f %8.3f %6.2f  %s\n",
				def.name, md.name, ma, mb, spread(a), spread(b), md.bound, verdict)
		}
	}
	return code
}

// spread is the distance between the first and third quartile as a share of
// the median, the measure the benchmark is accepted by.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	return (q3 - q1) / q2
}
