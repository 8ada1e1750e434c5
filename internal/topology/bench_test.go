package topology

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// maxBuildAllocsM64 bounds the allocations of one New on the 64-PoI
// field: the build carves its tables from a few slabs, so the count does
// not grow with the number of transitions.
const maxBuildAllocsM64 = 40

// BenchmarkTopologyBuild times New on perfbench's kind of random field
// (M PoIs in a 40M × 40M square, default range, speed and pause): the
// travel, distance and pass-through tables of all M² transitions. The
// M64 row fails if one build allocates more than maxBuildAllocsM64
// times.
func BenchmarkTopologyBuild(b *testing.B) {
	for _, m := range []int{8, 64, 128, 256} {
		b.Run(fmt.Sprintf("M%d", m), func(b *testing.B) {
			field, err := Random(rng.New(uint64(m)), RandomConfig{M: m, Width: 40 * float64(m), Height: 40 * float64(m)})
			if err != nil {
				b.Fatal(err)
			}
			cfg := Config{Name: field.Name(), Target: field.Target(), Range: field.Range(), Speed: field.Speed()}
			for i := 0; i < m; i++ {
				cfg.PoIs = append(cfg.PoIs, field.PoIAt(i))
			}
			build := func() {
				if _, err := New(cfg); err != nil {
					b.Fatal(err)
				}
			}
			if m == 64 {
				if allocs := testing.AllocsPerRun(1, build); allocs > maxBuildAllocsM64 {
					b.Fatalf("New allocates %v times per build, want at most %d", allocs, maxBuildAllocsM64)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				build()
			}
		})
	}
}
