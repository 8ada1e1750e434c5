package cost

// SetSolver does nothing: a Workspace's chain solves have one backend,
// the dense LU, whatever markov method name it is given. It is kept only
// so the benchmark module under perfbench/, which still selects a
// backend by name, compiles.
func (ws *Workspace) SetSolver(int) {}
