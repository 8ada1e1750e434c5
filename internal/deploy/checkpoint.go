package deploy

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/coverage"
	"repro/internal/obs"
)

// checkpointVersion is the on-disk deployment-metadata format version.
const checkpointVersion = 1

// Checkpoint file layout, one triple per deployment under Config.Dir
// (shareable with the jobs checkpoint directory — the suffixes differ):
//
//	<id>.deploy.json    deployment metadata + statistics (this file)
//	<id>.scenario.json  the Scenario, via coverage.SaveScenario
//	<id>.plan.json      the currently deployed plan, via coverage.SavePlan
//	                    (rewritten on every hot-swap)
//
// The metadata captures every piece of dynamic state — including the
// executor's exact random-stream position — so a restarted server
// resumes the deployment bit-for-bit, the same discipline jobs follow.
type deployEnvelope struct {
	Version    int         `json:"version"`
	Kind       string      `json:"kind"`
	Deployment *deployMeta `json:"deployment"`
}

// incidentMeta serializes the incident process, including its own
// random-stream position.
type incidentMeta struct {
	Open     [][]int `json:"open"`
	Detected []int64 `json:"detected"`
	DelaySum []int64 `json:"delaySum"`
	DelayMax []int64 `json:"delayMax"`
	RNG      []byte  `json:"rng"`
}

// deployMeta is the serializable slice of a deployment record. The
// scenario and the deployed plan live in their own files.
type deployMeta struct {
	ID      string    `json:"id"`
	State   State     `json:"state"`
	Created time.Time `json:"created"`
	Stopped time.Time `json:"stopped,omitempty"`

	Objectives    coverage.Objectives `json:"objectives"`
	Start         int                 `json:"start"`
	Seed          uint64              `json:"seed"`
	TickMillis    int                 `json:"tickMillis,omitempty"`
	Drift         DriftConfig         `json:"drift"`
	Reopt         ReoptConfig         `json:"reopt"`
	IncidentRates []float64           `json:"incidentRates,omitempty"`

	Step      int                    `json:"step"`
	Visits    []int64                `json:"visits"`
	Window    []int                  `json:"window"`
	LastVisit []int                  `json:"lastVisit"`
	SegCount  []int64                `json:"segCount"`
	SegSum    []int64                `json:"segSum"`
	SegMax    []int64                `json:"segMax"`
	Executor  coverage.ExecutorState `json:"executor"`
	// K ≥ 2 sensors checkpoint every sensor: Executors holds all K
	// random-stream positions and Windows the per-sensor trajectory
	// rings (Executor/Window above are unused). One sensor uses
	// Executor/Window and leaves these absent, so its checkpoints keep
	// the format they had before fleets existed.
	Executors []coverage.ExecutorState `json:"executors,omitempty"`
	Windows   [][]int                  `json:"windows,omitempty"`

	DriftChecks   int64        `json:"driftChecks"`
	DriftTriggers int64        `json:"driftTriggers"`
	LastDrift     *DriftReport `json:"lastDrift,omitempty"`
	LastTrigger   int          `json:"lastTrigger"`
	ReoptJob      string       `json:"reoptJob,omitempty"`
	Swaps         []SwapRecord `json:"swaps,omitempty"`

	Incidents *incidentMeta `json:"incidents,omitempty"`
	LastError string        `json:"lastError,omitempty"`
}

func (rt *Runtime) deployPath(id string) string {
	return filepath.Join(rt.cfg.Dir, id+".deploy.json")
}

func (rt *Runtime) scenarioPath(id string) string {
	return filepath.Join(rt.cfg.Dir, id+".scenario.json")
}

func (rt *Runtime) planPath(id string) string {
	return filepath.Join(rt.cfg.Dir, id+".plan.json")
}

// persist checkpoints a deployment: metadata always, the scenario only
// on first write, the plan always (it changes on hot-swap). Failures are
// recorded on the deployment rather than crashing the caller — an
// unwritable checkpoint directory must not take the service down.
func (rt *Runtime) persist(d *deployment, withScenario bool) {
	if rt.cfg.Dir == "" {
		return
	}
	rt.mu.Lock()
	meta, err := d.meta()
	scn := d.spec.Scenario
	plan := d.plan
	rt.mu.Unlock()
	if err == nil {
		start := time.Now()
		err = rt.writeCheckpoint(meta, scn, plan, withScenario)
		rt.met.ckptSeconds.Observe(time.Since(start).Seconds())
	}
	if err != nil {
		rt.log.ErrorContext(obs.WithDeploymentID(context.Background(), d.id),
			"checkpoint write failed", slog.String("error", err.Error()))
		rt.mu.Lock()
		if d.lastError == "" {
			d.lastError = fmt.Sprintf("checkpoint: %v", err)
		}
		rt.mu.Unlock()
	}
}

// meta serializes the deployment's dynamic state; callers hold rt.mu.
func (d *deployment) meta() (*deployMeta, error) {
	states := make([]coverage.ExecutorState, len(d.execs))
	windows := make([][]int, len(d.execs))
	for s, e := range d.execs {
		st, err := e.Snapshot()
		if err != nil {
			return nil, err
		}
		states[s] = st
		windows[s] = d.sensorWindow(s)
	}
	m := &deployMeta{
		ID:            d.id,
		State:         d.state,
		Created:       d.created,
		Stopped:       d.stopped,
		Objectives:    d.spec.Objectives,
		Start:         d.spec.Start,
		Seed:          d.spec.Seed,
		TickMillis:    d.spec.TickMillis,
		Drift:         d.spec.Drift,
		Reopt:         d.spec.Reopt,
		IncidentRates: d.spec.IncidentRates,
		Step:          d.step,
		Visits:        append([]int64(nil), d.visits...),
		LastVisit:     append([]int(nil), d.lastVisit...),
		SegCount:      append([]int64(nil), d.segCount...),
		SegSum:        append([]int64(nil), d.segSum...),
		SegMax:        append([]int64(nil), d.segMax...),
		DriftChecks:   d.driftChecks,
		DriftTriggers: d.driftTriggers,
		LastDrift:     d.lastDrift,
		LastTrigger:   d.lastTrigger,
		ReoptJob:      d.reoptJob,
		Swaps:         append([]SwapRecord(nil), d.swaps...),
		LastError:     d.lastError,
	}
	if len(d.execs) == 1 {
		m.Executor, m.Window = states[0], windows[0]
	} else {
		m.Executors, m.Windows = states, windows
	}
	if d.inc != nil {
		rngState, err := d.inc.src.State()
		if err != nil {
			return nil, err
		}
		im := &incidentMeta{
			Open:     make([][]int, len(d.inc.open)),
			Detected: append([]int64(nil), d.inc.detected...),
			DelaySum: append([]int64(nil), d.inc.delaySum...),
			DelayMax: append([]int64(nil), d.inc.delayMax...),
			RNG:      rngState,
		}
		for i, open := range d.inc.open {
			im.Open[i] = append([]int{}, open...)
		}
		m.Incidents = im
	}
	return m, nil
}

// writeCheckpoint writes the triple via temp-file renames, metadata (the
// authoritative state) last, mirroring the jobs checkpoint discipline.
func (rt *Runtime) writeCheckpoint(meta *deployMeta, scn coverage.Scenario, plan *coverage.Plan, withScenario bool) error {
	if withScenario {
		tmp := rt.scenarioPath(meta.ID) + ".tmp"
		if err := coverage.SaveScenario(tmp, scn); err != nil {
			return err
		}
		if err := os.Rename(tmp, rt.scenarioPath(meta.ID)); err != nil {
			return err
		}
	}
	tmp := rt.planPath(meta.ID) + ".tmp"
	if err := coverage.SavePlan(tmp, plan); err != nil {
		return err
	}
	if err := os.Rename(tmp, rt.planPath(meta.ID)); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(deployEnvelope{
		Version:    checkpointVersion,
		Kind:       "deployment",
		Deployment: meta,
	}, "", "  ")
	if err != nil {
		return err
	}
	tmp = rt.deployPath(meta.ID) + ".tmp"
	if err := os.WriteFile(tmp, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, rt.deployPath(meta.ID))
}

// loadCheckpoints scans the checkpoint directory and rebuilds the
// deployment table. Stopped deployments load too, so their statistics
// stay queryable across restarts.
func (rt *Runtime) loadCheckpoints() error {
	if err := os.MkdirAll(rt.cfg.Dir, 0o755); err != nil {
		return fmt.Errorf("deploy: checkpoint dir: %w", err)
	}
	entries, err := os.ReadDir(rt.cfg.Dir)
	if err != nil {
		return fmt.Errorf("deploy: checkpoint dir: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".deploy.json") {
			continue
		}
		d, err := rt.loadDeployment(filepath.Join(rt.cfg.Dir, e.Name()))
		if err != nil {
			return fmt.Errorf("deploy: checkpoint %s: %w", e.Name(), err)
		}
		rt.deps[d.id] = d
		rt.order = append(rt.order, d.id)
		if n := seqFromID(d.id); n > rt.seq {
			rt.seq = n
		}
	}
	sortIDs(rt.order)
	return nil
}

// loadDeployment reads one checkpoint triple back into a record whose
// future behavior is bit-for-bit what the snapshotted one would have done.
func (rt *Runtime) loadDeployment(metaPath string) (*deployment, error) {
	blob, err := os.ReadFile(metaPath)
	if err != nil {
		return nil, err
	}
	var env deployEnvelope
	if err := json.Unmarshal(blob, &env); err != nil {
		return nil, err
	}
	if env.Version != checkpointVersion || env.Kind != "deployment" || env.Deployment == nil {
		return nil, fmt.Errorf("not a version-%d deployment file", checkpointVersion)
	}
	meta := env.Deployment
	if meta.ID == "" || !meta.State.valid() {
		return nil, fmt.Errorf("malformed deployment metadata (id %q, state %q)", meta.ID, meta.State)
	}
	scn, err := coverage.LoadScenario(rt.scenarioPath(meta.ID))
	if err != nil {
		return nil, err
	}
	plan, err := coverage.LoadPlan(rt.planPath(meta.ID))
	if err != nil {
		return nil, err
	}
	spec, err := normalize(Spec{
		Scenario:      scn,
		Plan:          plan,
		Objectives:    meta.Objectives,
		Start:         meta.Start,
		Seed:          meta.Seed,
		TickMillis:    meta.TickMillis,
		Drift:         meta.Drift,
		Reopt:         meta.Reopt,
		IncidentRates: meta.IncidentRates,
	})
	if err != nil {
		return nil, err
	}
	m := len(scn.PoIs)
	k := sensorCount(plan)
	states, windows := []coverage.ExecutorState{meta.Executor}, [][]int{meta.Window}
	if k > 1 {
		states, windows = meta.Executors, meta.Windows
	}
	if len(states) != k {
		return nil, fmt.Errorf("%d executor states for a %d-sensor fleet", len(states), k)
	}
	if len(windows) != k {
		return nil, fmt.Errorf("%d windows for a %d-sensor fleet", len(windows), k)
	}
	ps, err := sensorPlans(plan)
	if err != nil {
		return nil, err
	}
	if len(meta.Visits) != m || len(meta.LastVisit) != m ||
		len(meta.SegCount) != m || len(meta.SegSum) != m || len(meta.SegMax) != m {
		return nil, fmt.Errorf("statistics arrays do not match %d PoIs", m)
	}
	d := &deployment{
		id:            meta.ID,
		spec:          spec,
		state:         meta.State,
		created:       meta.Created,
		stopped:       meta.Stopped,
		plan:          plan,
		execs:         make([]*coverage.Executor, k),
		wins:          make([][]int, k),
		step:          meta.Step,
		visits:        meta.Visits,
		winLen:        len(windows[0]),
		lastVisit:     meta.LastVisit,
		segCount:      meta.SegCount,
		segSum:        meta.SegSum,
		segMax:        meta.SegMax,
		driftChecks:   meta.DriftChecks,
		driftTriggers: meta.DriftTriggers,
		lastDrift:     meta.LastDrift,
		lastTrigger:   meta.LastTrigger,
		reoptJob:      meta.ReoptJob,
		swaps:         meta.Swaps,
		lastError:     meta.LastError,
		subs:          make(map[int]chan Event),
	}
	for s, win := range windows {
		if d.execs[s], err = coverage.ResumeExecutor(ps[s], states[s]); err != nil {
			return nil, fmt.Errorf("sensor %d: %w", s, err)
		}
		if len(win) != d.winLen {
			return nil, fmt.Errorf("sensor %d window length %d, want %d", s, len(win), d.winLen)
		}
		if len(win) > spec.Drift.Window {
			return nil, fmt.Errorf("sensor %d window of %d exceeds configured %d", s, len(win), spec.Drift.Window)
		}
		for i, p := range win {
			if p < 0 || p >= m {
				return nil, fmt.Errorf("sensor %d window[%d] = %d outside [0, %d)", s, i, p, m)
			}
		}
		d.wins[s] = make([]int, spec.Drift.Window)
		copy(d.wins[s], win)
	}
	if meta.Incidents != nil {
		if len(spec.IncidentRates) == 0 {
			return nil, fmt.Errorf("incident state without incident rates")
		}
		inc := newIncidents(spec.IncidentRates, 0)
		if err := inc.src.SetState(meta.Incidents.RNG); err != nil {
			return nil, fmt.Errorf("incident rng state: %w", err)
		}
		if len(meta.Incidents.Open) != m || len(meta.Incidents.Detected) != m ||
			len(meta.Incidents.DelaySum) != m || len(meta.Incidents.DelayMax) != m {
			return nil, fmt.Errorf("incident arrays do not match %d PoIs", m)
		}
		for i, open := range meta.Incidents.Open {
			inc.open[i] = append([]int{}, open...)
		}
		inc.detected = meta.Incidents.Detected
		inc.delaySum = meta.Incidents.DelaySum
		inc.delayMax = meta.Incidents.DelayMax
		d.inc = inc
	} else if len(spec.IncidentRates) > 0 {
		return nil, fmt.Errorf("incident rates without incident state")
	}
	return d, nil
}

// seqFromID extracts the numeric suffix of a "dep-%06d" ID (0 if
// malformed, which only loses ID compactness, not correctness).
func seqFromID(id string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "dep-"))
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// sortIDs orders deployment IDs by sequence number so List stays in
// creation order across restarts.
func sortIDs(ids []string) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && seqFromID(ids[j]) < seqFromID(ids[j-1]); j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}
