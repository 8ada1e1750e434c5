package topology

import (
	"errors"
	"math"
	"testing"

	"repro/internal/geom"
)

func validConfig() Config {
	return Config{
		Name: "test",
		PoIs: []PoI{
			{Pos: geom.Point{X: 0.5, Y: 0.5}, Pause: 1},
			{Pos: geom.Point{X: 1.5, Y: 0.5}, Pause: 1},
			{Pos: geom.Point{X: 2.5, Y: 0.5}, Pause: 1},
		},
		Target: []float64{0.5, 0.25, 0.25},
		Range:  0.25,
		Speed:  1,
	}
}

func TestNewValid(t *testing.T) {
	top, err := New(validConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if top.M() != 3 {
		t.Errorf("M = %d, want 3", top.M())
	}
	if top.Name() != "test" {
		t.Errorf("Name = %q", top.Name())
	}
	if top.Range() != 0.25 || top.Speed() != 1 {
		t.Errorf("Range/Speed = %v/%v", top.Range(), top.Speed())
	}
}

func TestNewValidationErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"too few PoIs", func(c *Config) { c.PoIs = c.PoIs[:1]; c.Target = c.Target[:1] }},
		{"target length", func(c *Config) { c.Target = []float64{1} }},
		{"negative target", func(c *Config) { c.Target = []float64{1.5, -0.25, -0.25} }},
		{"target sum", func(c *Config) { c.Target = []float64{0.5, 0.25, 0.1} }},
		{"zero range", func(c *Config) { c.Range = 0 }},
		{"zero speed", func(c *Config) { c.Speed = 0 }},
		{"zero pause", func(c *Config) { c.PoIs[1].Pause = 0 }},
		{"overlapping PoIs", func(c *Config) { c.Range = 0.6 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := validConfig()
			tc.mutate(&cfg)
			if _, err := New(cfg); !errors.Is(err, ErrInvalid) {
				t.Errorf("err = %v, want ErrInvalid", err)
			}
		})
	}
}

func TestTravelTimes(t *testing.T) {
	top, err := New(validConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Distance 1 at speed 1 plus pause 1.
	if got := top.TravelTime(0, 1); math.Abs(got-2) > 1e-12 {
		t.Errorf("T_01 = %v, want 2", got)
	}
	// Distance 2 plus pause.
	if got := top.TravelTime(0, 2); math.Abs(got-3) > 1e-12 {
		t.Errorf("T_02 = %v, want 3", got)
	}
	// Self transition is the pause only.
	if got := top.TravelTime(1, 1); got != 1 {
		t.Errorf("T_11 = %v, want 1", got)
	}
	if got := top.MoveTime(0, 2); math.Abs(got-2) > 1e-12 {
		t.Errorf("MoveTime(0,2) = %v, want 2", got)
	}
	if got := top.MoveTime(1, 1); got != 0 {
		t.Errorf("MoveTime(1,1) = %v, want 0", got)
	}
}

func TestCoverTimeConventions(t *testing.T) {
	top, err := New(validConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// T_{jk,j} = 0: origin not covered.
	if got := top.CoverTime(0, 1, 0); got != 0 {
		t.Errorf("T_{01,0} = %v, want 0", got)
	}
	// T_{jk,k} = pause at destination.
	if got := top.CoverTime(0, 1, 1); got != 1 {
		t.Errorf("T_{01,1} = %v, want 1", got)
	}
	// Self transition covers only self, for the pause.
	if got := top.CoverTime(1, 1, 1); got != 1 {
		t.Errorf("T_{11,1} = %v, want 1", got)
	}
	if got := top.CoverTime(1, 1, 0); got != 0 {
		t.Errorf("T_{11,0} = %v, want 0", got)
	}
}

func TestPassThroughCoverage(t *testing.T) {
	top, err := New(validConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// 0 -> 2 passes straight through PoI 1: chord = 2r = 0.5 at speed 1.
	got := top.CoverTime(0, 2, 1)
	if math.Abs(got-0.5) > 1e-9 {
		t.Errorf("T_{02,1} = %v, want 0.5", got)
	}
	// Symmetric direction.
	if got := top.CoverTime(2, 0, 1); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("T_{20,1} = %v, want 0.5", got)
	}
	// Adjacent hop covers no third PoI.
	if got := top.CoverTime(0, 1, 2); got != 0 {
		t.Errorf("T_{01,2} = %v, want 0", got)
	}
}

func TestPassesEvents(t *testing.T) {
	top, err := New(validConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	events := top.Passes(0, 2)
	if len(events) != 2 {
		t.Fatalf("Passes(0,2) = %d events, want 2 (intermediate + destination)", len(events))
	}
	// Intermediate PoI 1: in range from t=0.75 to t=1.25 (chord 0.5 around
	// the midpoint of a 2-unit trip).
	var mid PassEvent
	var dst PassEvent
	for _, e := range events {
		switch e.PoI {
		case 1:
			mid = e
		case 2:
			dst = e
		}
	}
	if math.Abs(mid.Enter-0.75) > 1e-9 || math.Abs(mid.Exit-1.25) > 1e-9 {
		t.Errorf("intermediate window = [%v, %v], want [0.75, 1.25]", mid.Enter, mid.Exit)
	}
	if math.Abs(dst.Enter-2) > 1e-9 || math.Abs(dst.Exit-3) > 1e-9 {
		t.Errorf("destination window = [%v, %v], want [2, 3]", dst.Enter, dst.Exit)
	}
	if d := mid.Duration(); math.Abs(d-0.5) > 1e-9 {
		t.Errorf("Duration = %v, want 0.5", d)
	}
}

func TestIntermediates(t *testing.T) {
	top, err := New(validConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := top.Intermediates(0, 2); len(got) != 1 || got[0] != 1 {
		t.Errorf("Intermediates(0,2) = %v, want [1]", got)
	}
	if got := top.Intermediates(0, 1); len(got) != 0 {
		t.Errorf("Intermediates(0,1) = %v, want empty", got)
	}
}

func TestCoverNeverExceedsTravel(t *testing.T) {
	for n := 1; n <= 4; n++ {
		top, err := Paper(n)
		if err != nil {
			t.Fatalf("Paper(%d): %v", n, err)
		}
		m := top.M()
		for j := 0; j < m; j++ {
			for k := 0; k < m; k++ {
				var total float64
				for i := 0; i < m; i++ {
					ct := top.CoverTime(j, k, i)
					if ct < 0 {
						t.Fatalf("topology %d: negative cover time T_{%d%d,%d}", n, j, k, i)
					}
					if ct > top.TravelTime(j, k)+1e-9 {
						t.Fatalf("topology %d: T_{%d%d,%d} = %v exceeds T_%d%d = %v",
							n, j, k, i, ct, j, k, top.TravelTime(j, k))
					}
					total += ct
				}
				// Disjoint PoIs: coverage windows cannot overlap, so their
				// sum cannot exceed the transition duration.
				if total > top.TravelTime(j, k)+1e-9 {
					t.Fatalf("topology %d: sum of cover times %v exceeds T_%d%d = %v",
						n, total, j, k, top.TravelTime(j, k))
				}
			}
		}
	}
}

func TestTargetIsCopied(t *testing.T) {
	top, err := New(validConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	tg := top.Target()
	tg[0] = 99
	if top.TargetAt(0) == 99 {
		t.Error("Target returned internal storage")
	}
}

func TestDistanceSymmetry(t *testing.T) {
	top := Topology4()
	m := top.M()
	for i := 0; i < m; i++ {
		if top.Distance(i, i) != 0 {
			t.Errorf("Distance(%d,%d) = %v, want 0", i, i, top.Distance(i, i))
		}
		for j := 0; j < m; j++ {
			if math.Abs(top.Distance(i, j)-top.Distance(j, i)) > 1e-12 {
				t.Errorf("asymmetric distance (%d,%d)", i, j)
			}
		}
	}
}

func TestPaperTopologyShapes(t *testing.T) {
	cases := []struct {
		n     int
		wantM int
	}{
		{1, 4}, {2, 3}, {3, 4}, {4, 9},
	}
	for _, tc := range cases {
		top, err := Paper(tc.n)
		if err != nil {
			t.Fatalf("Paper(%d): %v", tc.n, err)
		}
		if top.M() != tc.wantM {
			t.Errorf("topology %d: M = %d, want %d", tc.n, top.M(), tc.wantM)
		}
		var sum float64
		for i := 0; i < top.M(); i++ {
			sum += top.TargetAt(i)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("topology %d: targets sum to %v", tc.n, sum)
		}
	}
	if _, err := Paper(5); !errors.Is(err, ErrInvalid) {
		t.Errorf("Paper(5) err = %v, want ErrInvalid", err)
	}
}

func TestTopology1HasNoPassThroughs(t *testing.T) {
	top := Topology1()
	m := top.M()
	for j := 0; j < m; j++ {
		for k := 0; k < m; k++ {
			if j == k {
				continue
			}
			if ints := top.Intermediates(j, k); len(ints) != 0 {
				t.Errorf("topology 1: %d->%d passes %v, want none", j, k, ints)
			}
		}
	}
}

func TestTopology3PassThroughs(t *testing.T) {
	top := Topology3()
	cases := []struct {
		j, k int
		want []int
	}{
		{0, 2, []int{1}},
		{0, 3, []int{1, 2}},
		{1, 3, []int{2}},
		{3, 0, []int{1, 2}},
		{0, 1, nil},
	}
	for _, tc := range cases {
		got := top.Intermediates(tc.j, tc.k)
		if len(got) != len(tc.want) {
			t.Errorf("Intermediates(%d,%d) = %v, want %v", tc.j, tc.k, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("Intermediates(%d,%d) = %v, want %v", tc.j, tc.k, got, tc.want)
			}
		}
	}
}

func TestTopology4CenterPassThrough(t *testing.T) {
	top := Topology4()
	// Corner 0 (0.5,0.5) to corner 8 (2.5,2.5) passes the center PoI 4.
	found := false
	for _, i := range top.Intermediates(0, 8) {
		if i == 4 {
			found = true
		}
	}
	if !found {
		t.Error("topology 4: corner-to-corner diagonal should pass the center")
	}
}

func TestStringOutputs(t *testing.T) {
	top := Topology2()
	if s := top.String(); s == "" {
		t.Error("empty String")
	}
	p := top.PoIAt(1)
	if p.Pos.X != 1.5 || p.Pause != DefaultPause {
		t.Errorf("PoIAt(1) = %+v", p)
	}
}

func TestLineGridValidation(t *testing.T) {
	if _, err := Line("x", 1, []float64{1}); !errors.Is(err, ErrInvalid) {
		t.Errorf("Line(1) err = %v", err)
	}
	if _, err := Grid("x", 1, 1, []float64{1}); !errors.Is(err, ErrInvalid) {
		t.Errorf("Grid(1,1) err = %v", err)
	}
}
