package mat

import (
	"errors"
	"testing"

	"repro/internal/rng"
)

// randomSparseDense returns a dense n×n matrix with roughly density·n²
// nonzeros at random positions.
func randomSparseDense(src *rng.Source, n int, density float64) *Matrix {
	a := New(n, n)
	d := a.Data()
	for i := range d {
		if src.Float64() < density {
			d[i] = src.Float64()*2 - 1
		}
	}
	return a
}

// maskedSparse loads the entries of a where mask is nonzero — explicit
// zeros included — into a CSR matrix through SetRows, the way the markov
// solver assembles its systems.
func maskedSparse(a, mask *Matrix) *Sparse {
	rows, cols := a.Rows(), a.Cols()
	rc := make([][]int32, rows)
	rv := make([][]float64, rows)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if mask.At(i, j) != 0 {
				rc[i] = append(rc[i], int32(j))
				rv[i] = append(rv[i], a.At(i, j))
			}
		}
	}
	var s Sparse
	if err := s.SetRows(rows, cols, rc, rv); err != nil {
		panic(err)
	}
	return &s
}

// sparseOf loads a's nonzero entries into a CSR matrix.
func sparseOf(a *Matrix) *Sparse { return maskedSparse(a, a) }

// denseOf reads s back through Row into a dense matrix.
func denseOf(s *Sparse) *Matrix {
	out := New(s.rows, s.cols)
	for i := 0; i < s.rows; i++ {
		cols, vals := s.Row(i)
		for k, c := range cols {
			out.Set(i, int(c), vals[k])
		}
	}
	return out
}

func TestSparseRoundTrip(t *testing.T) {
	src := rng.New(1)
	for _, n := range []int{1, 3, 8, 33} {
		a := randomSparseDense(src, n, 0.2)
		s := sparseOf(a)
		back := denseOf(s)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if back.At(i, j) != a.At(i, j) {
					t.Fatalf("n=%d: round trip changed (%d,%d): %g != %g",
						n, i, j, back.At(i, j), a.At(i, j))
				}
			}
		}
		nnz := 0
		for _, v := range a.Data() {
			if v != 0 {
				nnz++
			}
		}
		if len(s.vals) != nnz {
			t.Fatalf("n=%d: %d stored entries, want %d", n, len(s.vals), nnz)
		}
	}
}

func TestSparseFromDenseMask(t *testing.T) {
	a, _ := NewFromRows([][]float64{{1, 0, 2}, {0, 0, 0}, {3, 4, 0}})
	mask, _ := NewFromRows([][]float64{{1, 1, 0}, {0, 1, 0}, {1, 0, 0}})
	s := maskedSparse(a, mask)
	// Support follows the mask: explicit zero at (0,1) and (1,1), entry
	// (0,2)=2 and (2,1)=4 dropped because the mask is zero there.
	if len(s.vals) != 4 {
		t.Fatalf("%d stored entries, want 4 (mask support)", len(s.vals))
	}
	cols, vals := s.Row(0)
	if len(cols) != 2 || cols[0] != 0 || cols[1] != 1 || vals[0] != 1 || vals[1] != 0 {
		t.Fatalf("row 0 = %v %v, want columns [0 1] values [1 0]", cols, vals)
	}
	if cols, vals := s.Row(1); len(cols) != 1 || cols[0] != 1 || vals[0] != 0 {
		t.Fatalf("row 1 = %v %v, want an explicit zero at column 1", cols, vals)
	}
	if cols, vals := s.Row(2); len(cols) != 1 || cols[0] != 0 || vals[0] != 3 {
		t.Fatalf("row 2 = %v %v, want [0] [3]", cols, vals)
	}
}

func TestNewSparseFromRowsValidates(t *testing.T) {
	var s Sparse
	if err := s.SetRows(2, 2, [][]int32{{0, 0}, {}}, [][]float64{{1, 2}, {}}); !errors.Is(err, ErrDimension) {
		t.Fatalf("duplicate column: err = %v, want ErrDimension", err)
	}
	if err := s.SetRows(2, 2, [][]int32{{1, 0}, {}}, [][]float64{{1, 2}, {}}); !errors.Is(err, ErrDimension) {
		t.Fatalf("descending columns: err = %v, want ErrDimension", err)
	}
	if err := s.SetRows(2, 2, [][]int32{{2}, {}}, [][]float64{{1}, {}}); !errors.Is(err, ErrDimension) {
		t.Fatalf("out-of-range column: err = %v, want ErrDimension", err)
	}
	if err := s.SetRows(2, 2, [][]int32{{0}}, [][]float64{{1}}); !errors.Is(err, ErrDimension) {
		t.Fatalf("short row set: err = %v, want ErrDimension", err)
	}
	if err := s.SetRows(2, 2, [][]int32{{0, 1}, {}}, [][]float64{{1}, {}}); !errors.Is(err, ErrDimension) {
		t.Fatalf("column/value count mismatch: err = %v, want ErrDimension", err)
	}
	// A valid load after failed ones reuses the storage and is complete.
	if err := s.SetRows(2, 3, [][]int32{{0, 2}, {1}}, [][]float64{{1, 2}, {3}}); err != nil {
		t.Fatalf("valid input rejected: %v", err)
	}
	want, _ := NewFromRows([][]float64{{1, 0, 2}, {0, 3, 0}})
	if got := denseOf(&s); !EqualApprox(got, want, 0) {
		t.Fatalf("values misplaced:\n%v", got)
	}
}

// FuzzSparseRoundTrip checks dense→sparse→dense is lossless for random
// support masks and values, explicit zeros inside the support included
// (the CI fuzz-smoke target for the sparse path).
func FuzzSparseRoundTrip(f *testing.F) {
	f.Add(uint64(1), 4)
	f.Add(uint64(42), 9)
	f.Add(uint64(7), 1)
	f.Fuzz(func(t *testing.T, seed uint64, n int) {
		if n <= 0 || n > 64 {
			t.Skip()
		}
		src := rng.New(seed)
		a := New(n, n)
		mask := New(n, n)
		ad, md := a.Data(), mask.Data()
		stored := 0
		for i := range ad {
			if src.Float64() < 0.3 {
				md[i] = 1
				stored++
				// Keep some explicit zeros inside the support.
				if src.Float64() < 0.8 {
					ad[i] = src.Float64()*2 - 1
				}
			}
		}
		s := maskedSparse(a, mask)
		if len(s.vals) != stored {
			t.Fatalf("%d stored entries, want the mask's %d", len(s.vals), stored)
		}
		bd := denseOf(s).Data()
		for i := range ad {
			want := ad[i]
			if md[i] == 0 {
				want = 0
			}
			if bd[i] != want {
				t.Fatalf("entry %d: %g != %g", i, bd[i], want)
			}
		}
		// The value support (no explicit zeros) round-trips too.
		if back := denseOf(sparseOf(a)); !EqualApprox(back, a, 0) {
			t.Fatalf("value-support round trip changed entries")
		}
	})
}
