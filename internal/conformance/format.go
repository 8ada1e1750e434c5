// Package conformance defines the machine-readable scenario conformance
// corpus ("conformance/v1") and the table-driven runner that every
// optimizer execution path must pass.
//
// A corpus file is a versioned JSON document holding a family of related
// scenario cases (single-sensor or fleet), the objective weights and run
// budget for each, the execution matrix to exercise (solver backend,
// worker counts, restart shard splits), and the family's expected
// invariants: cost orderings between named cases, monotone trends along a
// swept parameter, coverage/exposure crossover shapes, metric bounds, and
// bit-exactness groups that must agree across execution paths. The corpus
// is the reproduction's behavioral contract in data form — separate from
// the unit tests, diffable, and extensible without recompiling — so any
// future optimizer variant (minimax, energy-budget, …) can be gated on
// the same suite before it lands.
//
// The checked-in corpus lives in coverage/testdata/corpus and is emitted
// by cmd/confgen (deterministic, seeded PCG; regeneration is
// reproducible bit-for-bit). cmd/conformance runs it standalone; the CI
// `conformance` job gates on it with one matrix cell per worker count.
package conformance

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/coverage"
)

// Version is the corpus file format version this package reads and
// writes. Any change to the format's semantics must bump it; the loader
// rejects files with a different or missing version string.
const Version = "conformance/v1"

// ErrCorpus indicates a malformed, unversioned, or internally
// inconsistent corpus file.
var ErrCorpus = errors.New("conformance: invalid corpus")

// Case execution modes.
const (
	// ModeOptimize runs the optimizer (OptimizeBest, or OptimizeFleetBest
	// when the case carries a Fleet block). The default for an empty mode.
	ModeOptimize = "optimize"
	// ModeMetropolis evaluates the Metropolis–Hastings coverage-only
	// baseline instead of optimizing — the comparison anchor for
	// "optimization beats the baseline" orderings.
	ModeMetropolis = "metropolis"
	// ModeReplicate optimizes a single sensor and evaluates K copies of
	// that schedule under the fleet objective — the comparison anchor for
	// "joint fleet optimization beats replication" orderings. Requires a
	// Fleet block.
	ModeReplicate = "replicate"
)

// Invariant types (the taxonomy; see DESIGN.md §15).
const (
	// InvCostOrder: the listed cases' costs are nondecreasing in list
	// order (best first), up to Tolerance.
	InvCostOrder = "cost_order"
	// InvMonotone: Metric over the listed cases follows Direction, up to
	// Tolerance.
	InvMonotone = "monotone"
	// InvCrossover: the listed cases are ordered by increasing exposure
	// weight β; ĒBar must be nonincreasing and ΔC nondecreasing along the
	// list — the paper's coverage/exposure tradeoff shape.
	InvCrossover = "crossover"
	// InvBound: every listed case's Metric lies within [Min, Max].
	InvBound = "bound"
	// InvShareOrder: within each listed case, the achieved coverage
	// shares respect the target ordering for every PoI pair whose targets
	// differ by at least MinGap.
	InvShareOrder = "share_order"
	// InvBitExact: each listed case's plan is byte-identical across the
	// Over dimension of the execution matrix ("workers": every worker
	// count; "shards": sharded per-restart execution with deterministic
	// merge versus the monolithic multi-start run).
	InvBitExact = "bitexact"
)

// Monotone directions.
const (
	DirNonincreasing = "nonincreasing"
	DirNondecreasing = "nondecreasing"
)

// Bit-exactness dimensions.
const (
	OverWorkers = "workers"
	OverShards  = "shards"
)

// Metric names addressable by invariants.
var metricNames = map[string]bool{
	"cost":       true,
	"deltaC":     true,
	"eBar":       true,
	"energy":     true,
	"energyGap":  true, // |Energy − EnergyTarget|, meaningful when EnergyWeight > 0
	"entropy":    true,
	"iterations": true,
}

// Corpus is one conformance corpus file: a named family of cases with a
// shared execution matrix and the invariants that bind them.
type Corpus struct {
	// Version must equal Version ("conformance/v1").
	Version string `json:"version"`
	// Family names the corpus family (unique across a corpus directory).
	Family string `json:"family"`
	// Description says what the family exercises and why.
	Description string `json:"description,omitempty"`
	// Generator records provenance when the file was emitted by confgen.
	Generator *Generator `json:"generator,omitempty"`
	// Matrix is the execution matrix every case runs under.
	Matrix Matrix `json:"matrix"`
	// Cases are the scenarios to execute.
	Cases []Case `json:"cases"`
	// Invariants are the family's expected relationships.
	Invariants []Invariant `json:"invariants"`
}

// Generator records how a corpus file was produced, so regeneration can
// be checked bit-for-bit.
type Generator struct {
	// Tool is the emitting command ("confgen").
	Tool string `json:"tool"`
	// Seed is the PCG seed the family was generated from.
	Seed uint64 `json:"seed"`
}

// Matrix is the execution matrix: every case runs under every listed
// solver and worker count; Shards lists the restart shard splits the
// bitexact-over-shards invariants compare against the monolithic run.
type Matrix struct {
	// Solvers lists linear-algebra backends. There is one, "dense";
	// "sparse" is accepted as an alias that runs it (coverage.Options).
	Solvers []string `json:"solvers"`
	// Workers lists worker counts (≥ 1 each): how many restarts of a
	// best-of case run at once.
	Workers []int `json:"workers"`
	// Shards lists restart shard splits (≥ 2 each) for InvBitExact over
	// OverShards; empty when no sharded comparison is requested.
	Shards []int `json:"shards,omitempty"`
}

// Budget is a case's execution budget.
type Budget struct {
	// Seed makes the run reproducible.
	Seed uint64 `json:"seed"`
	// MaxIters bounds each restart's iteration count.
	MaxIters int `json:"maxIters"`
	// Restarts is the multi-start count (default 1).
	Restarts int `json:"restarts,omitempty"`
}

// FleetSpec marks a case as a K-sensor fleet problem.
type FleetSpec struct {
	// Sensors is the fleet size K (≥ 1).
	Sensors int `json:"sensors"`
	// Responsibility is the optional K×M responsibility assignment
	// (uniform 1/K when omitted).
	Responsibility [][]float64 `json:"responsibility,omitempty"`
}

// Case is one scenario/objectives pair to execute.
type Case struct {
	// Name identifies the case within the family (unique, nonempty).
	Name string `json:"name"`
	// Mode selects the execution mode; empty means ModeOptimize.
	Mode string `json:"mode,omitempty"`
	// Scenario is the coverage problem.
	Scenario coverage.Scenario `json:"scenario"`
	// Objectives are the optimization weights.
	Objectives coverage.Objectives `json:"objectives"`
	// Run is the execution budget.
	Run Budget `json:"run"`
	// Fleet, when non-nil, makes this a K-sensor case.
	Fleet *FleetSpec `json:"fleet,omitempty"`
	// Param is the swept parameter value behind monotone/crossover
	// families (informational; invariants use list order).
	Param float64 `json:"param,omitempty"`
}

// Invariant is one expected relationship over the family's results.
type Invariant struct {
	// Type is one of the Inv* constants.
	Type string `json:"type"`
	// Cases names the cases the invariant binds, in the order the check
	// reads them.
	Cases []string `json:"cases"`
	// Metric addresses a result metric (InvMonotone, InvBound).
	Metric string `json:"metric,omitempty"`
	// Direction is the required trend (InvMonotone).
	Direction string `json:"direction,omitempty"`
	// Tolerance is the relative slack for ordering/trend checks: a step
	// may violate the trend by at most Tolerance·max(1, |previous|).
	Tolerance float64 `json:"tolerance,omitempty"`
	// Min and Max bound the metric (InvBound); nil means unbounded.
	Min *float64 `json:"min,omitempty"`
	Max *float64 `json:"max,omitempty"`
	// MinGap is the target-gap threshold below which PoI pairs are
	// exempt from the share-order check (InvShareOrder).
	MinGap float64 `json:"minGap,omitempty"`
	// Over is the matrix dimension a bit-exactness group spans
	// (InvBitExact): OverWorkers or OverShards.
	Over string `json:"over,omitempty"`
}

// ID renders a stable, human-readable identifier for the invariant,
// used in reports and for cross-solver verdict matching.
func (iv Invariant) ID() string {
	var b strings.Builder
	b.WriteString(iv.Type)
	switch iv.Type {
	case InvMonotone:
		fmt.Fprintf(&b, "(%s %s", iv.Metric, iv.Direction)
	case InvBound:
		fmt.Fprintf(&b, "(%s", iv.Metric)
		if iv.Min != nil {
			fmt.Fprintf(&b, " min=%g", *iv.Min)
		}
		if iv.Max != nil {
			fmt.Fprintf(&b, " max=%g", *iv.Max)
		}
	case InvBitExact:
		fmt.Fprintf(&b, "(over=%s", iv.Over)
	default:
		b.WriteString("(")
	}
	fmt.Fprintf(&b, " [%s])", strings.Join(iv.Cases, " "))
	return b.String()
}

// mode returns the case's effective execution mode.
func (c Case) mode() string {
	if c.Mode == "" {
		return ModeOptimize
	}
	return c.Mode
}

// restarts returns the case's effective restart count.
func (r Budget) restarts() int {
	if r.Restarts <= 0 {
		return 1
	}
	return r.Restarts
}

// Validate checks the corpus for structural and semantic soundness: the
// version string, the execution matrix, case uniqueness and buildability
// (every scenario/objectives pair must pass coverage.Validate, fleet
// cases coverage.ValidateFleet), and that every invariant is well formed
// and references only existing cases.
func (c *Corpus) Validate() error {
	if c.Version != Version {
		return fmt.Errorf("%w: version %q (want %q)", ErrCorpus, c.Version, Version)
	}
	if c.Family == "" {
		return fmt.Errorf("%w: empty family", ErrCorpus)
	}
	if err := c.Matrix.validate(); err != nil {
		return fmt.Errorf("%w: family %s: %v", ErrCorpus, c.Family, err)
	}
	if len(c.Cases) == 0 {
		return fmt.Errorf("%w: family %s has no cases", ErrCorpus, c.Family)
	}
	names := make(map[string]bool, len(c.Cases))
	for i, cs := range c.Cases {
		if cs.Name == "" {
			return fmt.Errorf("%w: family %s: case %d has no name", ErrCorpus, c.Family, i)
		}
		if names[cs.Name] {
			return fmt.Errorf("%w: family %s: duplicate case %q", ErrCorpus, c.Family, cs.Name)
		}
		names[cs.Name] = true
		if err := cs.validate(); err != nil {
			return fmt.Errorf("%w: family %s: case %q: %v", ErrCorpus, c.Family, cs.Name, err)
		}
	}
	for i, iv := range c.Invariants {
		if err := iv.validate(names, c.Matrix); err != nil {
			return fmt.Errorf("%w: family %s: invariant %d (%s): %v", ErrCorpus, c.Family, i, iv.Type, err)
		}
	}
	return nil
}

func (m Matrix) validate() error {
	if len(m.Solvers) == 0 {
		return errors.New("matrix lists no solvers")
	}
	seenSolver := map[string]bool{}
	for _, s := range m.Solvers {
		if s != "dense" && s != "sparse" {
			return fmt.Errorf("unknown solver %q (want \"dense\" or \"sparse\")", s)
		}
		if seenSolver[s] {
			return fmt.Errorf("duplicate solver %q", s)
		}
		seenSolver[s] = true
	}
	if len(m.Workers) == 0 {
		return errors.New("matrix lists no worker counts")
	}
	seenW := map[int]bool{}
	for _, w := range m.Workers {
		if w < 1 {
			return fmt.Errorf("worker count %d < 1", w)
		}
		if seenW[w] {
			return fmt.Errorf("duplicate worker count %d", w)
		}
		seenW[w] = true
	}
	for _, s := range m.Shards {
		if s < 2 {
			return fmt.Errorf("shard split %d < 2", s)
		}
	}
	return nil
}

func (cs Case) validate() error {
	mode := cs.mode()
	switch mode {
	case ModeOptimize, ModeMetropolis, ModeReplicate:
	default:
		return fmt.Errorf("unknown mode %q", cs.Mode)
	}
	if len(cs.Scenario.PoIs) < 2 {
		return fmt.Errorf("%d PoIs (want >= 2)", len(cs.Scenario.PoIs))
	}
	if len(cs.Scenario.Target) != len(cs.Scenario.PoIs) {
		return fmt.Errorf("%d targets for %d PoIs", len(cs.Scenario.Target), len(cs.Scenario.PoIs))
	}
	if mode != ModeMetropolis && cs.Run.MaxIters < 1 {
		return fmt.Errorf("maxIters %d < 1", cs.Run.MaxIters)
	}
	if cs.Run.Restarts < 0 {
		return fmt.Errorf("restarts %d < 0", cs.Run.Restarts)
	}
	if mode == ModeReplicate && cs.Fleet == nil {
		return errors.New("replicate mode requires a fleet block")
	}
	if cs.Fleet != nil {
		if cs.Fleet.Sensors < 1 {
			return fmt.Errorf("fleet of %d sensors", cs.Fleet.Sensors)
		}
		return coverage.ValidateFleet(cs.Scenario, cs.Objectives, cs.Fleet.Sensors, cs.Fleet.Responsibility)
	}
	return coverage.Validate(cs.Scenario, cs.Objectives)
}

func (iv Invariant) validate(names map[string]bool, m Matrix) error {
	if len(iv.Cases) == 0 {
		return errors.New("no cases listed")
	}
	for _, n := range iv.Cases {
		if !names[n] {
			return fmt.Errorf("unknown case %q", n)
		}
	}
	if iv.Tolerance < 0 {
		return fmt.Errorf("negative tolerance %g", iv.Tolerance)
	}
	switch iv.Type {
	case InvCostOrder:
		if len(iv.Cases) < 2 {
			return errors.New("cost_order needs >= 2 cases")
		}
	case InvMonotone:
		if len(iv.Cases) < 2 {
			return errors.New("monotone needs >= 2 cases")
		}
		if !metricNames[iv.Metric] {
			return fmt.Errorf("unknown metric %q", iv.Metric)
		}
		if iv.Direction != DirNonincreasing && iv.Direction != DirNondecreasing {
			return fmt.Errorf("unknown direction %q", iv.Direction)
		}
	case InvCrossover:
		if len(iv.Cases) < 2 {
			return errors.New("crossover needs >= 2 cases")
		}
	case InvBound:
		if !metricNames[iv.Metric] {
			return fmt.Errorf("unknown metric %q", iv.Metric)
		}
		if iv.Min == nil && iv.Max == nil {
			return errors.New("bound has neither min nor max")
		}
		if iv.Min != nil && iv.Max != nil && *iv.Min > *iv.Max {
			return fmt.Errorf("min %g > max %g", *iv.Min, *iv.Max)
		}
	case InvShareOrder:
		if iv.MinGap <= 0 {
			return fmt.Errorf("share_order needs minGap > 0, got %g", iv.MinGap)
		}
	case InvBitExact:
		switch iv.Over {
		case OverWorkers:
			if len(m.Workers) < 2 {
				return errors.New("bitexact over workers needs >= 2 worker counts in the matrix")
			}
		case OverShards:
			if len(m.Shards) == 0 {
				return errors.New("bitexact over shards needs shard splits in the matrix")
			}
		default:
			return fmt.Errorf("unknown bitexact dimension %q", iv.Over)
		}
	default:
		return fmt.Errorf("unknown invariant type %q", iv.Type)
	}
	return nil
}

// ReadCorpus strictly decodes one corpus document: unknown fields are
// rejected (a typo'd invariant field must not silently validate nothing)
// and the document must pass Validate.
func ReadCorpus(r io.Reader) (*Corpus, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var c Corpus
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorpus, err)
	}
	// Trailing garbage after the document is malformed too.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing data after corpus document", ErrCorpus)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// LoadFile reads and validates one corpus file.
func LoadFile(path string) (*Corpus, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c, err := ReadCorpus(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	return c, nil
}

// LoadDir loads every *.json corpus file in dir, sorted by filename, and
// requires family names to be unique across the directory.
func LoadDir(dir string) ([]*Corpus, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%w: no corpus files in %s", ErrCorpus, dir)
	}
	sort.Strings(paths)
	out := make([]*Corpus, 0, len(paths))
	families := make(map[string]string)
	for _, p := range paths {
		c, err := LoadFile(p)
		if err != nil {
			return nil, err
		}
		if prev, dup := families[c.Family]; dup {
			return nil, fmt.Errorf("%w: family %q in both %s and %s",
				ErrCorpus, c.Family, prev, filepath.Base(p))
		}
		families[c.Family] = filepath.Base(p)
		out = append(out, c)
	}
	return out, nil
}

// Encode renders the corpus in the canonical on-disk form (two-space
// indented JSON with a trailing newline) — the byte layout confgen
// emits and its -check mode verifies.
func (c *Corpus) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Problem is one distinct optimization problem a corpus poses — the
// warm-start population the plan library can be seeded from.
type Problem struct {
	Scenario   coverage.Scenario
	Objectives coverage.Objectives
	Fleet      *FleetSpec
}

// Problems returns the corpus cases' optimization problems with
// fingerprint-level duplicates removed (metropolis twins and sweep
// repeats collapse onto their optimize siblings).
func Problems(corpora []*Corpus) []Problem {
	seen := make(map[coverage.Fingerprint]bool)
	var out []Problem
	for _, c := range corpora {
		for _, cs := range c.Cases {
			var fp coverage.Fingerprint
			var err error
			if cs.Fleet != nil {
				fp, err = coverage.FleetFingerprint(cs.Scenario, cs.Objectives, cs.Fleet.Sensors, cs.Fleet.Responsibility)
			} else {
				fp, err = coverage.ScenarioFingerprint(cs.Scenario, cs.Objectives)
			}
			if err != nil || seen[fp] {
				continue
			}
			seen[fp] = true
			out = append(out, Problem{Scenario: cs.Scenario, Objectives: cs.Objectives, Fleet: cs.Fleet})
		}
	}
	return out
}
