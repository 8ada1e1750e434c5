package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"os"
	"strings"
	"time"
)

// Restart sharding: the one way every job runs.
//
// A multi-restart job is embarrassingly parallel across restarts:
// coverage.SplitSeeds derives every restart's seed from the master
// seed, so restart r produces identical bits no matter which process
// runs it. Sharding cuts the restart range [0, Restarts) into
// fixed-size shards and lets any manager sharing the Store claim and
// run them. A manager outside a cluster cuts one shard of every
// restart and runs it itself over the same protocol. The only
// coordination is a per-shard lease claimed with CompareAndSwap and a
// terminal job transition, also CAS — shard progress and plans are
// written with plain Put by whichever node holds the shard's lease.
//
// Blob layout, next to the job's checkpoint triple:
//
//	<id>.shards.json          immutable shard table (written at submit)
//	<id>.shard-<k>.state.json progress + best-of record for shard k
//	<id>.shard-<k>.plan.json  shard k's best plan (coverage envelope)
//	<id>.shard-<k>.lease.json live lease for shard k (CAS-contended)
//
// Failure model: a node that crashes or stalls stops renewing its
// lease; after LeaseTTL any other node CASes the lease over (epoch+1)
// and resumes the shard from its last completed restart. A shard-state
// blob torn by a crash is skipped with a log line and the shard simply
// re-runs from scratch — determinism makes re-execution a correct
// repair. The merge is a pure reduction — lexicographic min over
// (bestCost, bestRestart) — so it is order-independent and reproduces
// the sequential OptimizeBest winner (strict < keeps the first restart
// achieving the minimum) bit for bit. Whichever node wins the CAS of
// the terminal job transition fires the done listener, so the plan
// library absorbs each merged result exactly once cluster-wide.

// ShardConfig tunes the shard protocol. The zero value runs each job as
// one shard on this manager; set Enabled (and give the manager a shared
// Store) to join a cluster.
type ShardConfig struct {
	// Enabled joins a cluster on the manager's store: job IDs carry the
	// node name, each job splits into ShardSize-restart shards, and this
	// manager adopts and claims shards of jobs other nodes submitted.
	// Without it each job is one shard of all its restarts, IDs are
	// job-NNNNNN, and only this manager's own jobs run here.
	Enabled bool
	// Node identifies this manager in lease blobs and job IDs. Default
	// "<hostname>-<pid>". Must be unique per live manager on a store.
	Node string
	// ShardSize is the number of restarts per shard in a cluster
	// (default 1 — the finest grain, the most even spread across nodes).
	ShardSize int
	// LeaseTTL is how long a claimed shard lease lives without renewal
	// before other nodes may take it over (default 10s).
	LeaseTTL time.Duration
	// Poll is the store scan interval for discovering foreign jobs,
	// expired leases, mergeable work and jobs a full queue turned away
	// (default 1s).
	Poll time.Duration
}

// withDefaults normalizes the config.
func (c ShardConfig) withDefaults() ShardConfig {
	if c.Node == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "node"
		}
		c.Node = fmt.Sprintf("%s-%d", sanitizeNode(host), os.Getpid())
	} else {
		c.Node = sanitizeNode(c.Node)
	}
	if c.ShardSize <= 0 {
		c.ShardSize = 1
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 10 * time.Second
	}
	if c.Poll <= 0 {
		c.Poll = time.Second
	}
	return c
}

// sanitizeNode keeps node names safe inside blob names and job IDs.
func sanitizeNode(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteRune('_')
		}
	}
	if b.Len() == 0 {
		return "node"
	}
	return b.String()
}

// shardVersion is the on-store shard blob format version.
const shardVersion = 1

// Shard lifecycle states inside shardState.State.
const (
	shardPending = "pending"
	shardDone    = "done"
	shardFailed  = "failed"
)

// shardTable is the immutable shard layout of one job, written once at
// submission. Shard k owns restarts [k*ShardSize, min((k+1)*ShardSize,
// Restarts)).
type shardTable struct {
	Version   int    `json:"version"`
	Kind      string `json:"kind"` // "shards"
	Job       string `json:"job"`
	Restarts  int    `json:"restarts"`
	ShardSize int    `json:"shardSize"`
	Shards    int    `json:"shards"`
}

// shardState is one shard's durable progress record. Done counts fully
// completed restarts from the shard's low end, so a takeover resumes
// at restart Lo+Done; BestCost/BestRestart track the strict-< winner
// over completed restarts (BestRestart is a global restart index).
// The lease holder is the only writer, so plain Put suffices.
type shardState struct {
	Version     int      `json:"version"`
	Kind        string   `json:"kind"` // "shard"
	Job         string   `json:"job"`
	Shard       int      `json:"shard"`
	Lo          int      `json:"lo"`
	Hi          int      `json:"hi"`
	Done        int      `json:"done"`
	State       string   `json:"state"`
	BestCost    *float64 `json:"bestCost,omitempty"`
	BestRestart int      `json:"bestRestart"`
	Iters       int      `json:"iters,omitempty"`
	// Sec is the wall-clock time the completed restarts took, so a
	// resumed job's running time still counts them. It is the one field
	// two writers racing over a lost lease may disagree on.
	Sec   float64 `json:"sec,omitempty"`
	Error string  `json:"error,omitempty"`
}

func (s *shardState) terminal() bool { return s.State == shardDone || s.State == shardFailed }

// pending is shard k's state before any restart ran.
func (t *shardTable) pending(k int) *shardState {
	lo, hi := t.bounds(k)
	return &shardState{Version: shardVersion, Kind: "shard", Job: t.Job,
		Shard: k, Lo: lo, Hi: hi, State: shardPending}
}

// shardLease is the CAS-contended claim on one shard. Expires is
// wall-clock; nodes sharing a store need loosely synchronized clocks
// (skew eats into the TTL). Epoch increments on every takeover so a
// resurrected holder's stale renewal CAS fails on bytes, never races.
type shardLease struct {
	Version int       `json:"version"`
	Kind    string    `json:"kind"` // "lease"
	Job     string    `json:"job"`
	Shard   int       `json:"shard"`
	Node    string    `json:"node"`
	Epoch   int       `json:"epoch"`
	Expires time.Time `json:"expires"`
}

// Blob names for a job's shard records.
func shardTableBlob(id string) string { return id + ".shards.json" }
func shardStateBlob(id string, k int) string {
	return fmt.Sprintf("%s.shard-%d.state.json", id, k)
}
func shardPlanBlob(id string, k int) string {
	return fmt.Sprintf("%s.shard-%d.plan.json", id, k)
}
func shardLeaseBlob(id string, k int) string {
	return fmt.Sprintf("%s.shard-%d.lease.json", id, k)
}

const shardTableSuffix = ".shards.json"

// marshalBlob renders shard blobs deterministically (fixed field order,
// no indentation surprises) so CAS byte comparison is stable.
func marshalBlob(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// All shard blob types marshal; a failure is a programming error.
		panic(err)
	}
	return append(b, '\n')
}

// layout is the shard table of a new job: ShardSize restarts per shard
// in a cluster, one shard of every restart outside one.
func (m *Manager) layout(id string, restarts int) shardTable {
	if m.shard.Enabled {
		return newShardTable(id, restarts, m.shard.ShardSize)
	}
	return newShardTable(id, restarts, restarts)
}

// newShardTable lays out the shards for a spec.
func newShardTable(id string, restarts, shardSize int) shardTable {
	shards := (restarts + shardSize - 1) / shardSize
	return shardTable{
		Version:   shardVersion,
		Kind:      "shards",
		Job:       id,
		Restarts:  restarts,
		ShardSize: shardSize,
		Shards:    shards,
	}
}

// bounds returns shard k's restart range [lo, hi).
func (t *shardTable) bounds(k int) (lo, hi int) {
	lo = k * t.ShardSize
	hi = lo + t.ShardSize
	if hi > t.Restarts {
		hi = t.Restarts
	}
	return lo, hi
}

// loadShardTable reads and validates a job's shard table.
func (m *Manager) loadShardTable(id string) (*shardTable, error) {
	raw, err := m.store.Get(shardTableBlob(id))
	if err != nil {
		return nil, err
	}
	var t shardTable
	if err := json.Unmarshal(raw, &t); err != nil {
		return nil, err
	}
	if t.Version != shardVersion || t.Kind != "shards" || t.Job != id ||
		t.Restarts <= 0 || t.ShardSize <= 0 ||
		t.Shards != (t.Restarts+t.ShardSize-1)/t.ShardSize {
		return nil, fmt.Errorf("jobs: malformed shard table for %s", id)
	}
	return &t, nil
}

// loadShardState reads shard k's progress record. A missing blob
// returns a fresh pending state; a torn or malformed blob is logged
// and also treated as fresh — deterministic re-execution repairs it.
func (m *Manager) loadShardState(t *shardTable, k int) *shardState {
	fresh := t.pending(k)
	raw, err := m.store.Get(shardStateBlob(t.Job, k))
	if errors.Is(err, fs.ErrNotExist) {
		return fresh
	}
	if err != nil {
		m.log.Error("shard state read failed; treating as fresh",
			slog.String("job", t.Job), slog.Int("shard", k),
			slog.String("error", err.Error()))
		return fresh
	}
	var s shardState
	if err := json.Unmarshal(raw, &s); err != nil ||
		s.Version != shardVersion || s.Kind != "shard" || s.Job != t.Job ||
		s.Shard != k || s.Lo != fresh.Lo || s.Hi != fresh.Hi ||
		s.Done < 0 || s.Done > s.Hi-s.Lo ||
		(s.State != shardPending && !s.terminal()) {
		m.log.Error("skipping torn shard state; shard will re-run",
			slog.String("job", t.Job), slog.Int("shard", k))
		return fresh
	}
	return &s
}

// readLease fetches shard k's lease; (nil, nil) means no lease blob. A
// malformed lease blob is returned with its raw bytes so callers can
// CAS it away like an expired one.
func (m *Manager) readLease(id string, k int) (*shardLease, []byte, error) {
	raw, err := m.store.Get(shardLeaseBlob(id, k))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, err
	}
	var l shardLease
	if err := json.Unmarshal(raw, &l); err != nil {
		return &shardLease{Job: id, Shard: k}, raw, nil
	}
	return &l, raw, nil
}

// live reports whether the lease still excludes other claimants at t.
func (l *shardLease) live(t time.Time) bool { return t.Before(l.Expires) }

// heldLease is this node's claim on one shard, with the exact bytes in
// the store so renewals and releases CAS against them.
type heldLease struct {
	lease shardLease
	raw   []byte
}

// tryAcquireLease attempts to claim shard k. It returns nil without
// error when the shard is currently held by a live foreign lease.
func (m *Manager) tryAcquireLease(id string, k int) (*heldLease, error) {
	cur, raw, err := m.readLease(id, k)
	if err != nil {
		return nil, err
	}
	now := time.Now()
	epoch := 1
	if cur != nil {
		if cur.Node != m.shard.Node && cur.live(now) {
			return nil, nil // someone else is working this shard
		}
		epoch = cur.Epoch + 1
	}
	next := shardLease{
		Version: shardVersion, Kind: "lease", Job: id, Shard: k,
		Node: m.shard.Node, Epoch: epoch, Expires: now.Add(m.shard.LeaseTTL),
	}
	blob := marshalBlob(next)
	if err := m.cas.CompareAndSwap(shardLeaseBlob(id, k), raw, blob); err != nil {
		if errors.Is(err, ErrCASConflict) {
			return nil, nil // lost the race; not an error
		}
		return nil, err
	}
	if cur != nil && cur.Node != m.shard.Node {
		m.met.leaseTakeovers.Inc()
		m.log.Info("lease takeover",
			slog.String("job", id), slog.Int("shard", k),
			slog.String("from", cur.Node), slog.Int("epoch", epoch))
	}
	m.met.leaseActive.Add(1)
	return &heldLease{lease: next, raw: blob}, nil
}

// renew extends the lease by TTL via CAS on the last written bytes.
// Failure means the lease was taken over (or the store broke): the
// holder must stop working the shard immediately.
func (m *Manager) renewLease(h *heldLease) error {
	next := h.lease
	next.Expires = time.Now().Add(m.shard.LeaseTTL)
	blob := marshalBlob(next)
	if err := m.cas.CompareAndSwap(shardLeaseBlob(h.lease.Job, h.lease.Shard), h.raw, blob); err != nil {
		return err
	}
	h.lease, h.raw = next, blob
	m.met.leaseRenewals.Inc()
	return nil
}

// releaseLease deletes the lease if we still hold it. Skipped when the
// test crash hook is set, simulating a node that died holding leases.
func (m *Manager) releaseLease(h *heldLease) {
	m.met.leaseActive.Add(-1)
	if m.testDropLeases {
		return
	}
	err := m.cas.CompareAndSwap(shardLeaseBlob(h.lease.Job, h.lease.Shard), h.raw, nil)
	if err != nil && !errors.Is(err, ErrCASConflict) {
		m.log.Error("lease release failed",
			slog.String("job", h.lease.Job), slog.Int("shard", h.lease.Shard),
			slog.String("error", err.Error()))
	}
}

// shardResult is what a merge needs from one shard.
type shardResult struct {
	Shard       int
	Failed      bool
	Error       string
	BestCost    *float64
	BestRestart int
	Iters       int
}

// pickShardWinner reduces terminal shard results to the winning shard
// index. The reduction is a lexicographic min over (bestCost,
// bestRestart): sequential OptimizeBest keeps the FIRST restart that
// achieves the minimum cost (strict <), and within a shard the runner
// applies the same strict <, so the global first-achiever is exactly
// the shard with the lowest (cost, restart) pair. Min is commutative
// and associative — shard completion order, node count, and shard size
// cannot change the winner. Returns ok=false when no shard produced a
// plan.
func pickShardWinner(results []shardResult) (winner shardResult, ok bool) {
	for _, r := range results {
		if r.Failed || r.BestCost == nil {
			continue
		}
		if !ok ||
			*r.BestCost < *winner.BestCost ||
			(*r.BestCost == *winner.BestCost && r.BestRestart < winner.BestRestart) {
			winner, ok = r, true
		}
	}
	return winner, ok
}
