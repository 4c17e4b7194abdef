// Rankmap: render Fig 1 of the paper — ASCII heatmaps of the rank
// distribution of a real compressed RBF operator before and after the
// TLR Cholesky factorization, for a small and a large shape parameter,
// under the paper's Hilbert point order and under the library's KD
// order. '.' marks null tiles, digits scale with rank, 'D' is the dense
// diagonal.
package main

import (
	"fmt"
	"log"

	"tlrchol/internal/experiments"
)

func main() {
	res, err := experiments.Fig01(1.0)
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range res.Shapes {
		fmt.Printf("=== %s order, shape parameter delta = %.3e ===\n", s.Order, s.Delta)
		fmt.Printf("initial (after compression): density %.3f, %d null / %d low-rank tiles, ranks max/avg/min %d/%.1f/%d\n",
			s.Initial.Density, s.Initial.ZeroTiles, s.Initial.Tiles-s.Initial.ZeroTiles, s.Initial.Max, s.Initial.Avg, s.Initial.Min)
		fmt.Println(experiments.Heatmap(s.InitialRanks))
		fmt.Printf("final (after TLR Cholesky): density %.3f, %d null / %d low-rank tiles, ranks max/avg/min %d/%.1f/%d\n",
			s.Final.Density, s.Final.ZeroTiles, s.Final.Tiles-s.Final.ZeroTiles, s.Final.Max, s.Final.Avg, s.Final.Min)
		fmt.Println(experiments.Heatmap(s.FinalRanks))
	}
	for _, t := range res.Tables() {
		fmt.Println(t.String())
	}
}
