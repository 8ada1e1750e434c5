package mat

import (
	"math"
	"testing"
)

// fillDeterministic loads a matrix with a reproducible spread of values
// including exact zeros and mixed signs, so the zero-skip and accumulation
// paths are all exercised.
func fillDeterministic(m *Matrix, seed uint64) {
	s := seed
	d := m.Data()
	for i := range d {
		// xorshift64* — self-contained so the test does not depend on rng.
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		v := float64(int64(s%2000)-1000) / 997
		if s%17 == 0 {
			v = 0
		}
		d[i] = v
	}
}

// referenceMulRows is the pre-tiling straight-line product restricted to a
// row span: the exact op sequence MulTo shipped with before the blocked
// kernels, used as the bit-for-bit oracle.
func referenceMulRows(dst, a, b *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		orow := dst.data[i*b.cols : (i+1)*b.cols]
		for j := range orow {
			orow[j] = 0
		}
		for k, aik := range arow {
			if aik == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bkj := range brow {
				orow[j] += aik * bkj
			}
		}
	}
}

// TestMulToTiledBitIdentical checks the k-tiled large-matrix path against
// the straight-line kernel bit for bit, across sizes straddling the tile
// cutover and including non-square shapes.
func TestMulToTiledBitIdentical(t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{8, 8, 8},
		{mulTileK - 1, mulTileK - 1, mulTileK - 1},
		{mulTileK, mulTileK, mulTileK},
		{mulTileK + 1, mulTileK + 1, mulTileK + 1},
		{130, 130, 130},
		{9, 100, 33},
		{100, 70, 5},
	}
	for _, sh := range shapes {
		a := New(sh.m, sh.k)
		b := New(sh.k, sh.n)
		fillDeterministic(a, uint64(sh.m*1000+sh.k))
		fillDeterministic(b, uint64(sh.k*1000+sh.n))
		got := New(sh.m, sh.n)
		want := New(sh.m, sh.n)
		if err := MulTo(got, a, b); err != nil {
			t.Fatalf("MulTo %dx%dx%d: %v", sh.m, sh.k, sh.n, err)
		}
		referenceMulRows(want, a, b, 0, sh.m)
		for i := range want.data {
			if math.Float64bits(got.data[i]) != math.Float64bits(want.data[i]) {
				t.Fatalf("MulTo %dx%dx%d: entry %d = %x, want %x",
					sh.m, sh.k, sh.n, i, math.Float64bits(got.data[i]), math.Float64bits(want.data[i]))
			}
		}
	}
}

// TestMulToRowsSpansComposeToFull checks that disjoint row spans assemble
// the same bits as one full product — the property the parallel gradient
// contractions rely on — and that rows outside the span are untouched.
func TestMulToRowsSpansComposeToFull(t *testing.T) {
	const n = 97
	a := New(n, n)
	b := New(n, n)
	fillDeterministic(a, 3)
	fillDeterministic(b, 4)
	want := New(n, n)
	if err := MulTo(want, a, b); err != nil {
		t.Fatal(err)
	}
	got := New(n, n)
	sentinel := 123.456
	for i := range got.data {
		got.data[i] = sentinel
	}
	cuts := []int{0, 13, 14, 60, n}
	for c := 0; c+1 < len(cuts); c++ {
		if err := MulToRows(got, a, b, cuts[c], cuts[c+1]); err != nil {
			t.Fatalf("span [%d, %d): %v", cuts[c], cuts[c+1], err)
		}
	}
	for i := range want.data {
		if math.Float64bits(got.data[i]) != math.Float64bits(want.data[i]) {
			t.Fatalf("entry %d differs between spanned and full product", i)
		}
	}

	// A partial span must leave other rows alone.
	partial := New(n, n)
	for i := range partial.data {
		partial.data[i] = sentinel
	}
	if err := MulToRows(partial, a, b, 10, 20); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		inSpan := i >= 10 && i < 20
		for j := 0; j < n; j++ {
			v := partial.data[i*n+j]
			if inSpan && v == sentinel && want.data[i*n+j] != sentinel {
				t.Fatalf("row %d in span not written", i)
			}
			if !inSpan && v != sentinel {
				t.Fatalf("row %d outside span was modified", i)
			}
		}
	}
}

// TestMulToRowsBadSpan checks span validation.
func TestMulToRowsBadSpan(t *testing.T) {
	a := New(4, 4)
	b := New(4, 4)
	dst := New(4, 4)
	for _, span := range [][2]int{{-1, 2}, {0, 5}, {3, 2}} {
		if err := MulToRows(dst, a, b, span[0], span[1]); err == nil {
			t.Fatalf("span [%d, %d) accepted", span[0], span[1])
		}
	}
}

// referenceSolveTo is the per-column substitution path (the small-order
// code, with forward substitution from row 0), used as the bit oracle for
// the batched solver.
func referenceSolveTo(f *LU, dst, b *Matrix) {
	n := f.lu.rows
	col := make([]float64, n)
	for j := 0; j < b.cols; j++ {
		for i := 0; i < n; i++ {
			col[i] = b.data[f.pivot[i]*b.cols+j]
		}
		referenceSubstitute(f, col)
		for i := 0; i < n; i++ {
			dst.data[i*b.cols+j] = col[i]
		}
	}
}

// TestBatchedSolveBitIdentical checks the blocked multi-column InverseTo
// against the per-column substitution bit for bit at orders above the
// cutover, including orders that are not a multiple of the batch width.
func TestBatchedSolveBitIdentical(t *testing.T) {
	for _, n := range []int{luBatchCutover, luBatchCutover + 5, 96} {
		a := New(n, n)
		fillDeterministic(a, uint64(n))
		// Diagonal dominance keeps the factorization comfortably regular.
		for i := 0; i < n; i++ {
			a.data[i*n+i] += 8
		}
		f, err := Factor(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}

		gotInv := New(n, n)
		if err := f.InverseTo(gotInv); err != nil {
			t.Fatalf("n=%d InverseTo: %v", n, err)
		}
		wantInv := New(n, n)
		referenceSolveTo(f, wantInv, identity(n))
		for i := range wantInv.data {
			if math.Float64bits(gotInv.data[i]) != math.Float64bits(wantInv.data[i]) {
				t.Fatalf("n=%d: InverseTo entry %d differs from per-column path", n, i)
			}
		}
	}
}

// TestBatchedSolveSteadyStateAllocs checks the blocked path allocates only
// on first use (the lazily sized batch scratch), staying allocation-free
// afterwards — the workspace property the descent hot loop depends on.
func TestBatchedSolveSteadyStateAllocs(t *testing.T) {
	n := luBatchCutover + 16
	a := New(n, n)
	fillDeterministic(a, 7)
	for i := 0; i < n; i++ {
		a.data[i*n+i] += 8
	}
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	dst := New(n, n)
	allocs := testing.AllocsPerRun(20, func() {
		if err := f.InverseTo(dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("blocked InverseTo allocates %v per call in steady state, want 0", allocs)
	}
}
