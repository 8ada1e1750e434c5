package topology

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/route"
)

// referenceTables are build's outputs as a loop over every PoI computed
// them before the windowed build: a dense M³ cover table, filled by
// calling geom.CoverageInterval for every (j, k, i) and leg, with each
// leg's length and travel time recomputed for every PoI.
type referenceTables struct {
	travel, moveT, dist [][]float64
	cover               [][][]float64
	passes              [][][]PassEvent
}

func referenceBuild(t *Topology) referenceTables {
	m := len(t.pois)
	var ref referenceTables
	ref.travel = make([][]float64, m)
	ref.moveT = make([][]float64, m)
	ref.dist = make([][]float64, m)
	ref.cover = make([][][]float64, m)
	ref.passes = make([][][]PassEvent, m)
	for j := 0; j < m; j++ {
		ref.travel[j] = make([]float64, m)
		ref.moveT[j] = make([]float64, m)
		ref.dist[j] = make([]float64, m)
		ref.cover[j] = make([][]float64, m)
		ref.passes[j] = make([][]PassEvent, m)
		for k := 0; k < m; k++ {
			ref.cover[j][k] = make([]float64, m)
			if j == k {
				ref.travel[j][j] = t.pois[j].Pause
				ref.cover[j][j][j] = t.pois[j].Pause
				continue
			}
			path := t.Path(j, k)
			var dist float64
			for leg := 1; leg < len(path); leg++ {
				dist += geom.Dist(path[leg-1], path[leg])
			}
			moveTime := dist / t.speed
			ref.dist[j][k] = dist
			ref.moveT[j][k] = moveTime
			ref.travel[j][k] = moveTime + t.pois[k].Pause
			for i := 0; i < m; i++ {
				if i == j || i == k {
					continue
				}
				var offset float64
				for leg := 1; leg < len(path); leg++ {
					seg := geom.Segment{A: path[leg-1], B: path[leg]}
					legTime := seg.Length() / t.speed
					if iv, ok := geom.CoverageInterval(seg, t.pois[i].Pos, t.r); ok {
						enter := offset + iv.Lo*legTime
						exit := offset + iv.Hi*legTime
						ref.cover[j][k][i] += exit - enter
						ps := ref.passes[j][k]
						if n := len(ps); n > 0 && ps[n-1].PoI == i && math.Abs(ps[n-1].Exit-enter) < 1e-12 {
							ps[n-1].Exit = exit
						} else {
							ref.passes[j][k] = append(ps, PassEvent{PoI: i, Enter: enter, Exit: exit})
						}
					}
					offset += legTime
				}
			}
			ref.passes[j][k] = append(ref.passes[j][k], PassEvent{
				PoI: k, Enter: moveTime, Exit: moveTime + t.pois[k].Pause,
			})
			ref.cover[j][k][k] = t.pois[k].Pause
		}
	}
	return ref
}

// routedGrid is a 4×4 grid of PoIs with two walls, so many routes bend
// around a wall corner and pass other PoIs on more than one leg.
func routedGrid(t *testing.T) *Topology {
	t.Helper()
	planner, err := route.New([]route.Rect{
		{MinX: 1.4, MinY: -0.5, MaxX: 1.6, MaxY: 2.2},
		{MinX: 2.4, MinY: 0.8, MaxX: 2.6, MaxY: 3.5},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Name: "routed-grid", Range: 0.3, Speed: 1.5, Router: planner}
	for i := 0; i < 16; i++ {
		cfg.PoIs = append(cfg.PoIs, PoI{Pos: geom.Point{X: float64(i % 4), Y: float64(i / 4)}, Pause: 1 + float64(i%3)/4})
		cfg.Target = append(cfg.Target, 1.0/16)
	}
	top, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

// corpusTopologies builds the topology of every scenario in the
// conformance corpus, obstacles routed as the public scenario routes
// them (defaults for a zero range, speed or pause).
func corpusTopologies(t *testing.T) []*Topology {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "coverage", "testdata", "corpus", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus files (%v)", err)
	}
	var tops []*Topology
	obstacles := 0
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Family string
			Cases  []struct {
				Name     string
				Scenario struct {
					Name   string
					PoIs   []struct{ X, Y, Pause float64 }
					Target []float64
					Range  float64
					Speed  float64
					// route.Rect's fields decode from the corpus's
					// minX/minY/maxX/maxY.
					Obstacles []route.Rect
				}
			}
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		for _, c := range doc.Cases {
			s := c.Scenario
			cfg := Config{Name: doc.Family + "/" + c.Name, Target: s.Target, Range: s.Range, Speed: s.Speed}
			if cfg.Range == 0 {
				cfg.Range = DefaultRange
			}
			if cfg.Speed == 0 {
				cfg.Speed = DefaultSpeed
			}
			for _, p := range s.PoIs {
				if p.Pause == 0 {
					p.Pause = DefaultPause
				}
				cfg.PoIs = append(cfg.PoIs, PoI{Pos: geom.Point{X: p.X, Y: p.Y}, Pause: p.Pause})
			}
			if len(s.Obstacles) > 0 {
				planner, err := route.New(s.Obstacles, 0)
				if err != nil {
					t.Fatalf("%s: %v", s.Name, err)
				}
				cfg.Router = planner
				obstacles++
			}
			top, err := New(cfg)
			if err != nil {
				t.Fatalf("%s: %v", s.Name, err)
			}
			tops = append(tops, top)
		}
	}
	if obstacles == 0 {
		t.Fatal("no corpus scenario has obstacles; the routed build is not covered")
	}
	return tops
}

// grazingFixture places PoIs around the leg 0 → 1 at the edges of what
// build decides: two at r·(1 − 1e-9) and two at r·(1 + 1e-9) from the
// leg (one each on a diagonal leg 2 → 3), two on the bounds of the leg's
// candidate window and two one ulp outside them.
func grazingFixture(t *testing.T) *Topology {
	t.Helper()
	const r = 0.25
	a, b := geom.Point{X: 0, Y: 0}, geom.Point{X: 10, Y: 0}
	c, d := geom.Point{X: 0, Y: 20}, geom.Point{X: 10, Y: 27}
	pts := []geom.Point{a, b, c, d,
		{X: 3, Y: r * (1 - 1e-9)}, {X: 7, Y: -r * (1 + 1e-9)},
		{X: 4.5, Y: -r * (1 - 1e-9)}, {X: 5.5, Y: r * (1 + 1e-9)},
	}
	// Perpendicular offsets from the midpoint of the diagonal leg c → d.
	dir := d.Sub(c)
	normal := geom.Point{X: -dir.Y, Y: dir.X}.Scale(1 / dir.Norm())
	mid := c.Add(dir.Scale(0.5))
	pts = append(pts, mid.Add(normal.Scale(r*(1-1e-9))), c.Add(dir.Scale(0.25)).Sub(normal.Scale(r*(1+1e-9))))
	// The window of leg a → b: on its bounds (candidates) and one ulp
	// outside them (never candidates).
	ab := geom.Segment{A: a, B: b}
	x0, x1, y0, y1 := legWindow(ab, ab.Length(), r)
	pts = append(pts,
		geom.Point{X: x1, Y: 0}, geom.Point{X: math.Nextafter(x0, math.Inf(-1)), Y: 0},
		geom.Point{X: 2, Y: y1}, geom.Point{X: 8, Y: math.Nextafter(y0, math.Inf(-1))},
	)
	cfg := Config{Name: "grazing", Range: r, Speed: 1}
	for _, p := range pts {
		cfg.PoIs = append(cfg.PoIs, PoI{Pos: p, Pause: 1})
		cfg.Target = append(cfg.Target, 1/float64(len(pts)))
	}
	top, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The fixture must sit on both sides of the coverage decision.
	for i, want := range map[int]bool{4: true, 5: false, 6: true, 7: false, 10: false, 11: false, 12: false, 13: false} {
		if got := top.CoverTime(0, 1, i) > 0; got != want {
			t.Fatalf("grazing PoI %d covered on 0 → 1: %v, want %v", i, got, want)
		}
	}
	for i, want := range map[int]bool{8: true, 9: false} {
		if got := top.CoverTime(2, 3, i) > 0; got != want {
			t.Fatalf("grazing PoI %d covered on 2 → 3: %v, want %v", i, got, want)
		}
	}
	return top
}

// TestBuildMatchesReferenceLoops holds every table build fills to the
// loop over every PoI bit for bit: perfbench's 64-PoI random field, a
// 128-PoI field, a routed grid with multi-leg paths, the grazing
// fixture, the four paper topologies and every corpus scenario. It
// compares CoverTime for every (j, k, i), zeros included, the passes by
// Float64bits, and the cover lists the cost model folds against the
// nonzero entries of the dense reference table, in ascending PoI order.
func TestBuildMatchesReferenceLoops(t *testing.T) {
	var tops []*Topology
	for _, m := range []int{64, 128} {
		field, err := Random(rng.New(uint64(m)), RandomConfig{M: m, Width: 40 * float64(m), Height: 40 * float64(m)})
		if err != nil {
			t.Fatal(err)
		}
		tops = append(tops, field)
	}
	tops = append(tops, routedGrid(t), grazingFixture(t))
	for n := 1; n <= 4; n++ {
		p, err := Paper(n)
		if err != nil {
			t.Fatal(err)
		}
		tops = append(tops, p)
	}
	tops = append(tops, corpusTopologies(t)...)
	bits := func(x float64) uint64 { return math.Float64bits(x) }
	for _, top := range tops {
		t.Run(top.Name(), func(t *testing.T) {
			ref := referenceBuild(top)
			m := top.M()
			ptr, idx, val := top.CoverLists()
			if len(ptr) != m*m+1 || ptr[0] != 0 || ptr[m*m] != len(idx) || len(idx) != len(val) {
				t.Fatalf("cover lists malformed: %d pointers, %d indices, %d values", len(ptr), len(idx), len(val))
			}
			multiLeg := 0
			for j := 0; j < m; j++ {
				for k := 0; k < m; k++ {
					at := fmt.Sprintf("(%d, %d)", j, k)
					if bits(top.TravelTime(j, k)) != bits(ref.travel[j][k]) ||
						bits(top.MoveTime(j, k)) != bits(ref.moveT[j][k]) ||
						bits(top.Distance(j, k)) != bits(ref.dist[j][k]) {
						t.Fatalf("%s: travel/moveT/dist differ from the reference", at)
					}
					var wantIdx []int32
					var wantVal []float64
					for i := 0; i < m; i++ {
						if got, want := top.CoverTime(j, k, i), ref.cover[j][k][i]; bits(got) != bits(want) {
							t.Fatalf("%s: CoverTime(%d) = %v, want %v", at, i, got, want)
						}
						if v := ref.cover[j][k][i]; v != 0 {
							wantIdx = append(wantIdx, int32(i))
							wantVal = append(wantVal, v)
						}
					}
					s := j*m + k
					gotIdx, gotVal := idx[ptr[s]:ptr[s+1]], val[ptr[s]:ptr[s+1]]
					if len(gotIdx) != len(wantIdx) {
						t.Fatalf("%s: cover list %v, want %v", at, gotIdx, wantIdx)
					}
					for q := range gotIdx {
						if gotIdx[q] != wantIdx[q] || bits(gotVal[q]) != bits(wantVal[q]) {
							t.Fatalf("%s: cover list entry %d = (%d, %v), want (%d, %v)", at, q, gotIdx[q], gotVal[q], wantIdx[q], wantVal[q])
						}
					}
					got, want := top.Passes(j, k), ref.passes[j][k]
					if len(got) != len(want) {
						t.Fatalf("%s: %d passes, want %d", at, len(got), len(want))
					}
					for e := range got {
						if got[e].PoI != want[e].PoI || bits(got[e].Enter) != bits(want[e].Enter) || bits(got[e].Exit) != bits(want[e].Exit) {
							t.Fatalf("%s: pass %d = %+v, want %+v", at, e, got[e], want[e])
						}
					}
					if len(top.Path(j, k)) > 2 && len(got) > 1 {
						multiLeg++
					}
				}
			}
			if top.Name() == "routed-grid" && multiLeg == 0 {
				t.Fatal("no multi-leg route passes an intermediate PoI; the fixture must exercise the leg loop")
			}
		})
	}
}

// TestLegWindowHoldsEveryCoveredPoint checks the margin of legWindow
// where rounding strains it most: legs from 1e-3 to 1e9 times r long, at
// coordinates up to 1e6 from the origin, and points one ulp outside the
// window on each side and on the leg's own line beyond its ends, where
// the discriminant cancels. geom.CoverageInterval must report none of
// them covered.
func TestLegWindowHoldsEveryCoveredPoint(t *testing.T) {
	src := rng.New(29)
	out := func(x float64, up bool) float64 {
		if up {
			return math.Nextafter(x, math.Inf(1))
		}
		return math.Nextafter(x, math.Inf(-1))
	}
	for n := 0; n < 20000; n++ {
		r := math.Pow(10, src.Uniform(-3, 3))
		length := r * math.Pow(10, src.Uniform(-3, 9))
		angle := src.Uniform(0, 2*math.Pi)
		if n%4 == 0 {
			angle = float64(n%16/4) * math.Pi / 2 // axis-parallel legs
		}
		shift := math.Pow(10, src.Uniform(-1, 6))
		a := geom.Point{X: src.Uniform(-shift, shift), Y: src.Uniform(-shift, shift)}
		b := a.Add(geom.Point{X: math.Cos(angle), Y: math.Sin(angle)}.Scale(length))
		seg := geom.Segment{A: a, B: b}
		x0, x1, y0, y1 := legWindow(seg, seg.Length(), r)
		u := src.Uniform(0, 1)
		dir := b.Sub(a)
		outside := []geom.Point{
			{X: out(x0, false), Y: src.Uniform(y0, y1)},
			{X: out(x1, true), Y: src.Uniform(y0, y1)},
			{X: src.Uniform(x0, x1), Y: out(y0, false)},
			{X: src.Uniform(x0, x1), Y: out(y1, true)},
		}
		// On the leg's line past either end: just past the window, where
		// the margin is tightest, and a random distance further out.
		unit := dir.Scale(1 / length)
		just := (x1 - max(a.X, b.X)) / max(math.Abs(unit.X), math.Abs(unit.Y)) * (1 + 0x1p-40)
		for _, p := range []geom.Point{
			b.Add(unit.Scale(just)), a.Sub(unit.Scale(just)),
			b.Add(dir.Scale(u)), a.Sub(dir.Scale(u)),
		} {
			if p.X < x0 || p.X > x1 || p.Y < y0 || p.Y > y1 {
				outside = append(outside, p)
			}
		}
		for _, c := range outside {
			if iv, ok := geom.CoverageInterval(seg, c, r); ok {
				t.Fatalf("leg %v → %v, r = %v: point %v outside the window [%v, %v] × [%v, %v] is covered on %+v",
					a, b, r, c, x0, x1, y0, y1, iv)
			}
		}
	}
}
