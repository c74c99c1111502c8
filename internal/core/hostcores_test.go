package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/perfmodel"
)

// TestPricingIgnoresHostCores pins that the cost model prices the
// modelled installation, never the host: every pricer and recommender
// returns the same result at GOMAXPROCS 1 and 8, for every profile at
// sizes on both sides of the 4 MiB goroutine-split threshold.
func TestPricingIgnoresHostCores(t *testing.T) {
	type priced struct {
		pack    PackingCostModel
		coll    CollectiveCostModel
		rec     [2]Recommendation
		recColl [2]Recommendation
	}
	const ranks = 8
	price := func(procs int) map[string]priced {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		out := make(map[string]priced)
		for _, name := range perfmodel.Names() {
			prof, err := perfmodel.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int64{4 << 20, 16 << 20, 64 << 20} {
				r := priced{pack: PricePacking(n, prof), coll: PriceCollective(ranks, n, prof)}
				for i, goal := range []Goal{GoalBalanced, GoalFastest} {
					r.rec[i] = Recommend(n, false, goal, prof)
					r.recColl[i] = RecommendCollective(ranks, n, false, goal, prof)
				}
				out[fmt.Sprintf("%s/%d", name, n)] = r
			}
		}
		return out
	}
	one, eight := price(1), price(8)
	for key, a := range one {
		if b := eight[key]; a != b {
			t.Errorf("%s: pricing depends on GOMAXPROCS:\n  1: %+v\n  8: %+v", key, a, b)
		}
	}
}
