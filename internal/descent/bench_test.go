package descent

import (
	"fmt"
	"testing"

	"repro/internal/cost"
	"repro/internal/mat"
	"repro/internal/rng"
	"repro/internal/topology"
)

// benchOptimizer builds an M-PoI model and a workers-wide optimizer
// positioned at a random iterate, with its projected steepest-descent
// direction, ready for line-search probing. The caller decides whether
// the fan-out threshold applies.
func benchOptimizer(b *testing.B, m, workers int) (*singleOptimizer, []*mat.Matrix, []*mat.Matrix, float64) {
	b.Helper()
	top, err := topology.Random(rng.New(uint64(m)), topology.RandomConfig{
		M: m, Width: 40 * float64(m), Height: 40 * float64(m),
	})
	if err != nil {
		b.Fatal(err)
	}
	model, err := cost.NewModel(top, cost.Uniform(m, 1, 1))
	if err != nil {
		b.Fatal(err)
	}
	opt, err := New(model, Options{Variant: Adaptive, MaxIters: 1, Seed: 1, Workers: workers})
	if err != nil {
		b.Fatal(err)
	}
	p, dir, curU := searchInputs(b, opt)
	return opt, p, dir, curU
}

// BenchmarkLineSearchStep measures one full V3 line search (geometric
// bracketing plus conservative trisection, a few dozen cost evaluations)
// serially (W1) and fanned out across a two-worker pool (W2) at every
// size, with the fan-out threshold lifted so W2 always forks. This is the
// descent hot loop's dominant cost, it runs allocation-free, and the
// W2/W1 ratio per size is the crossover minFanOutOrder is set from.
func BenchmarkLineSearchStep(b *testing.B) {
	prev := minFanOutOrder
	minFanOutOrder = 0
	defer func() { minFanOutOrder = prev }()
	for _, m := range []int{4, 8, 16, 24, 32, 64} {
		for _, workers := range []int{1, 2} {
			opt, p, dir, curU := benchOptimizer(b, m, workers)
			b.Run(fmt.Sprintf("M%d/W%d", m, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					step, _, ok := opt.lineSearch(p, dir, curU)
					if !ok && step != 0 {
						b.Fatal("inconsistent line search result")
					}
				}
			})
			opt.pool.Stop()
		}
	}
}
