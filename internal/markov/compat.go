package markov

// The names in this file select nothing. The Solver has one backend, the
// dense LU; they are kept only so the benchmark module under perfbench/,
// which still names a dense and a sparse backend, compiles.

const (
	// MethodDense names the dense backend. It selects nothing.
	MethodDense = iota
	// MethodSparse names the retired sparse backend. It selects nothing:
	// a Solver given it still runs the dense LU.
	MethodSparse
)

// SetMethod does nothing; see MethodDense.
func (s *Solver) SetMethod(int) {}
