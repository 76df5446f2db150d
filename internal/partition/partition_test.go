package partition

import (
	"math/rand"
	"slices"
	"testing"

	"atgis/internal/geom"
)

func box(x0, y0, x1, y1 float64) geom.Box {
	return geom.Box{MinX: x0, MinY: y0, MaxX: x1, MaxY: y1}
}

func TestGridGeometry(t *testing.T) {
	g := NewGrid(box(0, 0, 10, 10), 2.5)
	if g.Cols != 4 || g.Rows != 4 || g.NumCells() != 16 {
		t.Fatalf("grid = %+v", g)
	}
	// A box inside one cell.
	c0, c1, r0, r1 := g.CellRange(box(0.1, 0.1, 1, 1))
	if c0 != 0 || c1 != 1 || r0 != 0 || r1 != 1 {
		t.Errorf("single-cell range = %d %d %d %d", c0, c1, r0, r1)
	}
	// A straddling box.
	c0, c1, r0, r1 = g.CellRange(box(2, 2, 3, 3))
	if c0 != 0 || c1 != 2 || r0 != 0 || r1 != 2 {
		t.Errorf("straddle range = %d %d %d %d", c0, c1, r0, r1)
	}
	// Out-of-extent boxes clamp.
	c0, c1, r0, r1 = g.CellRange(box(-50, -50, -40, -40))
	if c0 != 0 || c1 != 1 || r0 != 0 || r1 != 1 {
		t.Errorf("clamped range = %d %d %d %d", c0, c1, r0, r1)
	}
	// Cell box round trip.
	cb := g.CellBox(5) // col 1, row 1
	if cb != box(2.5, 2.5, 5, 5) {
		t.Errorf("cell box = %+v", cb)
	}
}

func TestGridDegenerate(t *testing.T) {
	g := NewGrid(box(0, 0, 0.1, 0.1), 1)
	if g.NumCells() != 1 {
		t.Errorf("tiny extent cells = %d", g.NumCells())
	}
	g = NewGrid(box(0, 0, 10, 10), 0) // invalid cell size defaults
	if g.CellSize != 1 {
		t.Errorf("default cell size = %v", g.CellSize)
	}
}

func TestInsertAndDuplication(t *testing.T) {
	g := NewGrid(box(0, 0, 10, 10), 5)
	for _, kind := range []StoreKind{ArrayStore, ListStore} {
		s := NewSet(g, kind)
		// Entry inside one cell.
		s.Insert(Entry{Box: box(1, 1, 2, 2), ID: 1})
		// Entry straddling all four cells.
		s.Insert(Entry{Box: box(4, 4, 6, 6), ID: 2})
		if s.Len() != 5 {
			t.Errorf("%v: len = %d, want 5 (1 + 4 duplicates)", kind, s.Len())
		}
		if got := len(s.Cell(0)); got != 2 {
			t.Errorf("%v: cell 0 entries = %d, want 2", kind, got)
		}
		if got := len(s.Cell(3)); got != 1 {
			t.Errorf("%v: cell 3 entries = %d, want 1", kind, got)
		}
	}
}

// TestStoreKindsAgree: both stores hold every cell's entries in insertion
// order — the order the join's output order rests on.
func TestStoreKindsAgree(t *testing.T) {
	g := NewGrid(box(0, 0, 100, 100), 10)
	rng := rand.New(rand.NewSource(7))
	arr, list := NewSet(g, ArrayStore), NewSet(g, ListStore)
	for i := 0; i < 500; i++ {
		x := rng.Float64() * 95
		y := rng.Float64() * 95
		e := Entry{Box: box(x, y, x+rng.Float64()*8, y+rng.Float64()*8), ID: int64(i), Off: int64(i * 100)}
		arr.Insert(e)
		list.Insert(e)
	}
	if arr.Len() != list.Len() {
		t.Fatalf("len %d != %d", arr.Len(), list.Len())
	}
	for c := 0; c < g.NumCells(); c++ {
		if a, l := arr.Cell(c), list.Cell(c); !slices.Equal(a, l) {
			t.Fatalf("cell %d: array store holds %d entries, list store %d, or in another order", c, len(a), len(l))
		}
	}
}

func TestPartitionCoverProperty(t *testing.T) {
	// Every inserted entry must appear in at least one cell, and in
	// exactly the cells its box overlaps.
	g := NewGrid(box(0, 0, 50, 50), 7)
	s := NewSet(g, ArrayStore)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		x := rng.Float64() * 45
		y := rng.Float64() * 45
		e := Entry{Box: box(x, y, x+rng.Float64()*10, y+rng.Float64()*10), ID: int64(i)}
		s.Insert(e)
		found := false
		for c := 0; c < g.NumCells(); c++ {
			cellHas := false
			for _, got := range s.Cell(c) {
				if got.ID == e.ID {
					cellHas = true
					found = true
				}
			}
			if cellHas != g.CellBox(c).Intersects(e.Box) {
				t.Fatalf("entry %d: cell %d membership %v but overlap %v",
					i, c, cellHas, g.CellBox(c).Intersects(e.Box))
			}
		}
		if !found {
			t.Fatalf("entry %d missing from all cells", i)
		}
	}
}

func TestListStoreChunking(t *testing.T) {
	s := newListStore(1)
	for i := 0; i < 20; i++ {
		s.Add(0, Entry{ID: int64(i)})
	}
	got := s.Cell(0)
	if len(got) != 20 {
		t.Fatalf("entries = %d", len(got))
	}
	for i, e := range got {
		if e.ID != int64(i) {
			t.Fatalf("order broken at %d: %d", i, e.ID)
		}
	}
	if s.Len() != 20 {
		t.Errorf("len = %d", s.Len())
	}
}

func TestStoreKindString(t *testing.T) {
	if ArrayStore.String() != "array" || ListStore.String() != "list" {
		t.Error("StoreKind names")
	}
}

// TestLoadMatchesInsert: a bulk load leaves every cell as inserting the
// kept entries one by one in order does, for both stores.
func TestLoadMatchesInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := NewGrid(box(0, 0, 100, 100), 7)
	var entries []Entry
	for i := 0; i < 500; i++ {
		x, y := rng.Float64()*110-5, rng.Float64()*110-5
		entries = append(entries, Entry{Box: box(x, y, x+rng.Float64()*20, y+rng.Float64()*20), Off: int64(i), ID: int64(i)})
	}
	in := func(i int) bool { return i%3 != 1 }
	for _, kind := range []StoreKind{ArrayStore, ListStore} {
		want, got := NewSet(g, kind), NewSet(g, kind)
		for i, e := range entries {
			if in(i) {
				want.Insert(e)
			}
		}
		got.Load(entries, in)
		if got.Len() != want.Len() {
			t.Fatalf("%v: Len %d, want %d", kind, got.Len(), want.Len())
		}
		for c := 0; c < g.NumCells(); c++ {
			if !slices.Equal(got.Cell(c), want.Cell(c)) {
				t.Fatalf("%v: cell %d = %v, want %v", kind, c, got.Cell(c), want.Cell(c))
			}
		}
	}
}
