// Package partition implements AT-GIS's spatial partitioning stage
// (paper §3.3 "Partition" example and §4.4(3)): a uniform grid over the
// data extent, sized in degrees, into which object MBRs are binned.
// Objects whose MBRs straddle cell boundaries enter every overlapped
// cell, following the PBSM convention; the join stage removes the
// resulting duplicates.
//
// Two storage layouts are provided — arrays (better locality) and linked
// lists of chunks (no regrowth copies, worse locality) — the store axis of
// the paper's Fig. 15. Sets are filled by one inserter, the partition
// pass's ordered fold; nothing merges them.
//
// The grid is the hand-off point between a join's two passes: the
// partition pass (query.PartitionSink, fed by the same parallel
// pipeline as single-pass queries) bins each feature's MBR + file
// offset into every overlapped cell, and the join sweep
// (internal/join) then walks cells independently. Grid.CellOf also
// serves the reference-point duplicate test that lets the streaming
// join skip the terminal dedup sort. Cell size is set in degrees
// (paper §5.6); the world extent is fixed for geographic data, so a
// grid is just a cheap value type constructed per join.
package partition

import (
	"math"

	"atgis/internal/geom"
)

// Entry is one partitioned object: its MBR and the offset of the raw
// object in the source data, so the join can re-parse it on demand
// instead of keeping geometry in memory (paper §4.5).
type Entry struct {
	Box geom.Box
	Off int64
	ID  int64
}

// Store abstracts the per-cell container.
type Store interface {
	// Add appends an entry to cell c.
	Add(c int, e Entry)
	// Cell returns the entries of cell c (shared storage; do not
	// modify).
	Cell(c int) []Entry
	// Len returns the total number of stored entries.
	Len() int
}

// StoreKind selects the cell container layout.
type StoreKind uint8

// Store kinds.
const (
	ArrayStore StoreKind = iota
	ListStore
)

func (k StoreKind) String() string {
	if k == ListStore {
		return "list"
	}
	return "array"
}

// Grid describes a uniform partitioning of an extent.
type Grid struct {
	Extent     geom.Box
	CellSize   float64 // in degrees (the paper's partition-size knob)
	Cols, Rows int
}

// NewGrid builds a grid covering extent with cells of the given size.
func NewGrid(extent geom.Box, cellSize float64) Grid {
	if cellSize <= 0 {
		cellSize = 1
	}
	cols := int(math.Ceil((extent.MaxX - extent.MinX) / cellSize))
	rows := int(math.Ceil((extent.MaxY - extent.MinY) / cellSize))
	if cols < 1 {
		cols = 1
	}
	if rows < 1 {
		rows = 1
	}
	return Grid{Extent: extent, CellSize: cellSize, Cols: cols, Rows: rows}
}

// NumCells returns the number of grid cells.
func (g Grid) NumCells() int { return g.Cols * g.Rows }

// CellRange returns the half-open ranges of cell columns and rows
// overlapped by box.
func (g Grid) CellRange(b geom.Box) (c0, c1, r0, r1 int) {
	c0 = g.clampCol(int(math.Floor((b.MinX - g.Extent.MinX) / g.CellSize)))
	c1 = g.clampCol(int(math.Floor((b.MaxX - g.Extent.MinX) / g.CellSize)))
	r0 = g.clampRow(int(math.Floor((b.MinY - g.Extent.MinY) / g.CellSize)))
	r1 = g.clampRow(int(math.Floor((b.MaxY - g.Extent.MinY) / g.CellSize)))
	return c0, c1 + 1, r0, r1 + 1
}

func (g Grid) clampCol(c int) int {
	if c < 0 {
		return 0
	}
	if c >= g.Cols {
		return g.Cols - 1
	}
	return c
}

func (g Grid) clampRow(r int) int {
	if r < 0 {
		return 0
	}
	if r >= g.Rows {
		return g.Rows - 1
	}
	return r
}

// CellOf returns the index of the cell containing point (x, y).
// Out-of-extent points clamp to the border cells, mirroring the
// clamping CellRange applies to inserted boxes, so the owner cell of a
// box corner is always one of the cells the box was inserted into.
func (g Grid) CellOf(x, y float64) int {
	c := g.clampCol(int(math.Floor((x - g.Extent.MinX) / g.CellSize)))
	r := g.clampRow(int(math.Floor((y - g.Extent.MinY) / g.CellSize)))
	return r*g.Cols + c
}

// CellBox returns the extent of cell c.
func (g Grid) CellBox(c int) geom.Box {
	col := c % g.Cols
	row := c / g.Cols
	return geom.Box{
		MinX: g.Extent.MinX + float64(col)*g.CellSize,
		MinY: g.Extent.MinY + float64(row)*g.CellSize,
		MaxX: g.Extent.MinX + float64(col+1)*g.CellSize,
		MaxY: g.Extent.MinY + float64(row+1)*g.CellSize,
	}
}

// Set is a partitioning of entries over a grid with a chosen store.
type Set struct {
	Grid  Grid
	Kind  StoreKind
	store Store
}

// NewSet returns an empty partition set.
func NewSet(g Grid, kind StoreKind) *Set {
	s := &Set{Grid: g, Kind: kind}
	switch kind {
	case ListStore:
		s.store = newListStore(g.NumCells())
	default:
		s.store = newArrayStore(g.NumCells())
	}
	return s
}

// Insert bins an entry into every cell its box overlaps.
func (s *Set) Insert(e Entry) {
	c0, c1, r0, r1 := s.Grid.CellRange(e.Box)
	for r := r0; r < r1; r++ {
		for c := c0; c < c1; c++ {
			s.store.Add(r*s.Grid.Cols+c, e)
		}
	}
}

// Load bins the entries for which in reports true into the empty set,
// in order: every cell then holds exactly what Insert on each of them in
// turn leaves it. An array store counts each cell's entries first and
// keeps them all in one array, cell after cell; a list store inserts one
// by one. Load must be the set's only fill.
func (s *Set) Load(entries []Entry, in func(i int) bool) {
	st, ok := s.store.(*arrayStore)
	if !ok {
		for i, e := range entries {
			if in(i) {
				s.Insert(e)
			}
		}
		return
	}
	g := s.Grid
	start := make([]int32, g.NumCells()+1)
	for i := range entries {
		if in(i) {
			c0, c1, r0, r1 := g.CellRange(entries[i].Box)
			for r := r0; r < r1; r++ {
				for c := c0; c < c1; c++ {
					start[r*g.Cols+c+1]++
				}
			}
		}
	}
	for c := 1; c < len(start); c++ {
		start[c] += start[c-1]
	}
	all := make([]Entry, start[len(start)-1])
	next := append([]int32(nil), start[:len(start)-1]...)
	for i := range entries {
		if in(i) {
			c0, c1, r0, r1 := g.CellRange(entries[i].Box)
			for r := r0; r < r1; r++ {
				for c := c0; c < c1; c++ {
					all[next[r*g.Cols+c]] = entries[i]
					next[r*g.Cols+c]++
				}
			}
		}
	}
	st.start, st.all, st.n = start, all, len(all)
}

// Cell returns the entries in cell c.
func (s *Set) Cell(c int) []Entry { return s.store.Cell(c) }

// Len returns the total number of entries (with duplicates across
// cells).
func (s *Set) Len() int { return s.store.Len() }

// arrayStore keeps each cell's entries contiguous, for good locality: in
// a slice per cell, allocated on the first Add, or — after Set.Load — all
// cells in one array, cell c at all[start[c]:start[c+1]].
type arrayStore struct {
	numCells int
	cells    [][]Entry
	start    []int32
	all      []Entry
	n        int
}

func newArrayStore(numCells int) *arrayStore {
	return &arrayStore{numCells: numCells}
}

func (s *arrayStore) Add(c int, e Entry) {
	if s.cells == nil {
		s.cells = make([][]Entry, s.numCells)
	}
	s.cells[c] = append(s.cells[c], e)
	s.n++
}

func (s *arrayStore) Cell(c int) []Entry {
	switch {
	case s.start != nil:
		return s.all[s.start[c]:s.start[c+1]]
	case s.cells != nil:
		return s.cells[c]
	}
	return nil
}

func (s *arrayStore) Len() int { return s.n }

// listStore keeps a linked list of chunks per cell: appends never copy,
// iteration is cache-unfriendly — the trade-off of paper Fig. 15(b)/(d).
type listChunk struct {
	entries []Entry
	next    *listChunk
}

type listStore struct {
	heads []*listChunk
	tails []*listChunk
	n     int
}

func newListStore(numCells int) *listStore {
	return &listStore{
		heads: make([]*listChunk, numCells),
		tails: make([]*listChunk, numCells),
	}
}

func (s *listStore) Add(c int, e Entry) {
	t := s.tails[c]
	if t == nil {
		t = &listChunk{entries: make([]Entry, 0, 4)}
		s.heads[c] = t
		s.tails[c] = t
	}
	if len(t.entries) == cap(t.entries) && len(t.entries) >= 4 {
		nt := &listChunk{entries: make([]Entry, 0, 4)}
		t.next = nt
		s.tails[c] = nt
		t = nt
	}
	t.entries = append(t.entries, e)
	s.n++
}

func (s *listStore) Cell(c int) []Entry {
	head := s.heads[c]
	if head == nil {
		return nil
	}
	if head.next == nil {
		return head.entries
	}
	var out []Entry
	for ch := head; ch != nil; ch = ch.next {
		out = append(out, ch.entries...)
	}
	return out
}

func (s *listStore) Len() int { return s.n }
