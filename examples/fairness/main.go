// Fairness demonstrates §5's coexistence claims at packet level: an
// MLTCP-Reno flow sharing a bottleneck with a legacy TCP Reno flow claims
// more than its fair share — because a flow deep into its iteration runs at
// F(bytes_ratio) ≈ 2× Reno's additive increase — but never starves it,
// since the aggressiveness function is bounded below by its intercept.
package main

import (
	"fmt"

	"mltcp/internal/experiments"
	"mltcp/internal/sim"
	"mltcp/internal/trace"
)

func main() {
	res := experiments.Fairness(30 * sim.Second)

	fmt.Println("single flow over a lossy 100 Mbps link (goodput, Mbps):")
	var rows [][]string
	for i, p := range res.LossProbs {
		rows = append(rows, []string{
			fmt.Sprintf("%.3f", p),
			fmt.Sprintf("%.1f", res.RenoMbps[i]),
			fmt.Sprintf("%.1f", res.MLTCPMbps[i]),
			fmt.Sprintf("%.2f×", res.MLTCPMbps[i]/res.RenoMbps[i]),
		})
	}
	fmt.Print(trace.Table([]string{"loss p", "reno", "mltcp-reno", "advantage"}, rows))
	fmt.Printf("\nfitted throughput-vs-loss exponents: reno %.2f (Mathis 1/√p), mltcp %.2f\n",
		res.RenoExponent, res.MLTCPExponent)

	fmt.Println("\ncoexistence on one clean bottleneck:")
	fmt.Printf("  mltcp claims %.2f× the reno flow's bandwidth\n", res.ShareRatio)
	fmt.Printf("  reno still achieves %.0f%% of its fair half-share — not starved\n",
		res.RenoShareOfFair*100)
}
