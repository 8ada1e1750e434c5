package topology

import (
	"errors"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/route"
)

// wallConfig builds a 1×3 line with a wall between PoIs 1 and 2 (0-based
// 0 and 1), forcing a detour.
func wallConfig(t *testing.T) (Config, *route.Planner) {
	t.Helper()
	planner, err := route.New([]route.Rect{{MinX: 0.9, MinY: -0.5, MaxX: 1.1, MaxY: 1.5}}, 1e-6)
	if err != nil {
		t.Fatalf("route.New: %v", err)
	}
	return Config{
		Name: "walled",
		PoIs: []PoI{
			{Pos: geom.Point{X: 0.5, Y: 0.5}, Pause: 1},
			{Pos: geom.Point{X: 1.5, Y: 0.5}, Pause: 1},
			{Pos: geom.Point{X: 2.5, Y: 0.5}, Pause: 1},
		},
		Target: []float64{0.4, 0.3, 0.3},
		Range:  0.25,
		Speed:  1,
		Router: planner,
	}, planner
}

func TestRoutedTopologyDetourLengthens(t *testing.T) {
	cfg, _ := wallConfig(t)
	walled, err := New(cfg)
	if err != nil {
		t.Fatalf("New walled: %v", err)
	}
	cfg.Router = nil
	open, err := New(cfg)
	if err != nil {
		t.Fatalf("New open: %v", err)
	}
	// Crossing the wall (0 -> 1) must be longer than the direct hop.
	if walled.Distance(0, 1) <= open.Distance(0, 1) {
		t.Errorf("walled distance %v not above open %v", walled.Distance(0, 1), open.Distance(0, 1))
	}
	if walled.MoveTime(0, 1) <= open.MoveTime(0, 1) {
		t.Errorf("walled move time %v not above open %v", walled.MoveTime(0, 1), open.MoveTime(0, 1))
	}
	// The unblocked hop 1 -> 2 stays direct.
	if math.Abs(walled.Distance(1, 2)-open.Distance(1, 2)) > 1e-9 {
		t.Errorf("unblocked hop changed: %v vs %v", walled.Distance(1, 2), open.Distance(1, 2))
	}
	// The routed path has waypoints.
	if len(walled.Path(0, 1)) < 3 {
		t.Errorf("path 0->1 = %v, want a detour", walled.Path(0, 1))
	}
	if len(walled.Path(1, 2)) != 2 {
		t.Errorf("path 1->2 = %v, want direct", walled.Path(1, 2))
	}
}

func TestRoutedTopologyConventionsPreserved(t *testing.T) {
	cfg, _ := wallConfig(t)
	top, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	m := top.M()
	for j := 0; j < m; j++ {
		for k := 0; k < m; k++ {
			if j == k {
				continue
			}
			if got := top.CoverTime(j, k, j); got != 0 {
				t.Errorf("T_{%d%d,%d} = %v, want 0 (origin convention)", j, k, j, got)
			}
			if got := top.CoverTime(j, k, k); got != top.PoIAt(k).Pause {
				t.Errorf("T_{%d%d,%d} = %v, want pause", j, k, k, got)
			}
			// Coverage windows never exceed the transition duration.
			var sum float64
			for i := 0; i < m; i++ {
				sum += top.CoverTime(j, k, i)
			}
			if sum > top.TravelTime(j, k)+1e-9 {
				t.Errorf("coverage sum %v exceeds T_%d%d = %v", sum, j, k, top.TravelTime(j, k))
			}
		}
	}
}

func TestRoutedDetourAvoidsPassThrough(t *testing.T) {
	// Without the wall, 0 -> 2 passes straight through PoI 1. The detour
	// hugs the wall corner at y ≈ 1.5, far above PoI 1's 0.25 range, so
	// the pass-through disappears.
	cfg, _ := wallConfig(t)
	walled, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	cfg.Router = nil
	open, err := New(cfg)
	if err != nil {
		t.Fatalf("New open: %v", err)
	}
	if got := open.CoverTime(0, 2, 1); got <= 0 {
		t.Fatalf("open topology should pass through PoI 1, got %v", got)
	}
	if got := walled.CoverTime(0, 2, 1); got != 0 {
		t.Errorf("walled topology still passes PoI 1 for %v", got)
	}
}

func TestRoutedUnreachablePoIFailsConstruction(t *testing.T) {
	// Box in the middle PoI completely.
	planner, err := route.New([]route.Rect{
		{MinX: 1.0, MinY: -0.5, MaxX: 1.2, MaxY: 1.5},
		{MinX: 1.8, MinY: -0.5, MaxX: 2.0, MaxY: 1.5},
		{MinX: 1.0, MinY: -0.7, MaxX: 2.0, MaxY: -0.5},
		{MinX: 1.0, MinY: 1.5, MaxX: 2.0, MaxY: 1.7},
	}, 1e-6)
	if err != nil {
		t.Fatalf("route.New: %v", err)
	}
	cfg, _ := wallConfig(t)
	cfg.Router = planner
	if _, err := New(cfg); !errors.Is(err, ErrInvalid) {
		t.Errorf("err = %v, want ErrInvalid for unreachable PoI", err)
	}
}

func TestPathAccessorStraightLine(t *testing.T) {
	top := Topology2()
	p := top.Path(0, 2)
	if len(p) != 2 {
		t.Fatalf("straight-line path has %d points", len(p))
	}
	if top.Path(1, 1)[0] != top.PoIAt(1).Pos {
		t.Error("self path should be the PoI position")
	}
}
