package descent

import (
	"fmt"
	"testing"

	"repro/internal/cost"
	"repro/internal/mat"
	"repro/internal/rng"
	"repro/internal/topology"
)

// benchOptimizer builds an M-PoI model and an optimizer positioned at a
// random iterate, with its projected steepest-descent direction, ready
// for line-search probing.
func benchOptimizer(b testing.TB, m int) (*singleOptimizer, []*mat.Matrix, []*mat.Matrix, float64) {
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
	opt, err := newSingle(model, Options{Variant: Adaptive, MaxIters: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	p, dir, curU := searchInputs(b, opt)
	return opt, p, dir, curU
}

// BenchmarkLineSearchStep measures the line-search half of one V3
// iteration — the iterate's evaluation and gradient, the search lines
// built from the Z the gradient forms, then the full search (geometric
// bracketing plus conservative trisection, a few dozen probes). Every op
// re-primes the iterate, so no op starts from the previous op's last
// probe. This is the descent hot loop's dominant cost, and it runs
// allocation-free.
func BenchmarkLineSearchStep(b *testing.B) {
	for _, m := range []int{4, 8, 16, 24, 32, 48, 64, 128} {
		opt, p, dir, curU := benchOptimizer(b, m)
		b.Run(fmt.Sprintf("M%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := opt.st.Evaluate(p); err != nil {
					b.Fatal(err)
				}
				if err := opt.st.Gradient(opt.grad); err != nil {
					b.Fatal(err)
				}
				if err := opt.st.Line(dir); err != nil {
					b.Fatal(err)
				}
				step, _, ok := searchAt(opt, p, dir, curU)
				if !ok && step != 0 {
					b.Fatal("inconsistent line search result")
				}
			}
		})
	}
}

// TestLineSearchStepCertified runs BenchmarkLineSearchStep's M = 64
// search once and requires every probe to lie in its line's certified
// range: a probe that scans its matrix again (markov.Solver.LineScans)
// is the slow path the certificate exists to skip.
func TestLineSearchStepCertified(t *testing.T) {
	opt, p, dir, curU := benchOptimizer(t, 64) // lines built at p
	if _, _, ok := searchAt(opt, p, dir, curU); !ok {
		t.Fatal("line search found no step")
	}
	if opt.probes == 0 {
		t.Fatal("line search ran no probe")
	}
	if n := opt.st.LineScans(); n != 0 {
		t.Errorf("%d of %d probes scanned their matrix, want 0", n, opt.probes)
	}
}
