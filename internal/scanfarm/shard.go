// Package scanfarm is the fault-tolerant distributed full-chip scan: a
// shard coordinator that tiles the chip's window grid into deterministic
// work units, fans them out to a pool of in-process workers — each shard
// scanned once, under panic isolation — quarantines poison shards
// instead of failing the run, journals completed shards crash-safely so
// a killed scan resumes where it left off, and answers repeated
// standard-cell geometry from a content-addressed clip cache before any
// detector runs.
//
// The merged findings are deterministic: shards are row bands of the
// window-center grid, a shard's findings are in window-enumeration
// order, and the merge concatenates by shard ID — so worker count,
// completion order, and cache hits never change the result.
package scanfarm

import (
	"runtime"

	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/telemetry"
)

// Plan is the deterministic decomposition of a chip scan into shards:
// core.Grid's window centers, cut into bands of ShardRows grid rows. It
// is a pure function of the chip bounds and the scan geometry
// parameters, so every run (and every resume) of the same scan agrees
// on shard IDs and their window sets.
type Plan struct {
	// Grid is the window-center grid the shards partition; it supplies
	// Bounds, ClipNM, CoreFrac, CoreNM (the step), Cols, Rows, Windows
	// and Center.
	core.Grid
	// ShardRows is the number of center-grid rows per shard.
	ShardRows int
	// NumShards is the shard count: ceil(Rows / ShardRows).
	NumShards int
}

// NewPlan tiles the bounds into shards. A geometry core.NewGrid refuses
// yields the zero plan, which has no shards; Run reports that error.
func NewPlan(bounds geom.Rect, cfg Config) Plan {
	p, _ := newPlan(bounds, cfg)
	return p
}

func newPlan(bounds geom.Rect, cfg Config) (Plan, error) {
	grid, err := core.NewGrid(bounds, cfg.ClipNM, cfg.CoreFrac)
	if err != nil {
		return Plan{}, err
	}
	p := Plan{Grid: grid, ShardRows: cfg.ShardRows}
	if p.ShardRows <= 0 {
		p.ShardRows = 2
	}
	p.NumShards = (p.Rows + p.ShardRows - 1) / p.ShardRows
	return p, nil
}

// ShardRowRange returns the half-open center-grid row range of shard id.
func (p Plan) ShardRowRange(id int) (r0, r1 int) {
	r0 = id * p.ShardRows
	r1 = r0 + p.ShardRows
	if r1 > p.Rows {
		r1 = p.Rows
	}
	return r0, r1
}

// ShardWindows returns shard id's window centers in enumeration order
// (row-major), the order its findings are reported in.
func (p Plan) ShardWindows(id int) []geom.Point {
	r0, r1 := p.ShardRowRange(id)
	out := make([]geom.Point, 0, (r1-r0)*p.Cols)
	for row := r0; row < r1; row++ {
		for col := 0; col < p.Cols; col++ {
			out = append(out, p.Center(col, row))
		}
	}
	return out
}

// ShardBounds returns the chip-coordinate rectangle covered by shard
// id's cores, for quarantine reports.
func (p Plan) ShardBounds(id int) geom.Rect {
	r0, r1 := p.ShardRowRange(id)
	if r0 >= r1 {
		return geom.Rect{}
	}
	return geom.R(
		p.Bounds.Min.X,
		p.Bounds.Min.Y+r0*p.CoreNM(),
		p.Bounds.Min.X+p.Cols*p.CoreNM(),
		p.Bounds.Min.Y+r1*p.CoreNM(),
	)
}

// Config controls a scan-farm run. The zero value gets core.Grid's
// window geometry defaults plus sensible farm defaults.
type Config struct {
	// ClipNM and CoreFrac are the window geometry; zero values take
	// core.Grid's defaults (1024, 0.5). The window steps by the core
	// edge, so the cores tile the chip.
	ClipNM   int
	CoreFrac float64
	// SkipEmpty skips windows with no geometry.
	SkipEmpty bool
	// Workers is the scan worker pool size (default GOMAXPROCS).
	Workers int
	// ShardRows is the number of window-grid rows per shard (default 2).
	// Smaller shards mean finer resume granularity and better load
	// balance; larger shards amortize journal writes.
	ShardRows int
	// CacheSize bounds the content-addressed clip cache in entries;
	// 0 disables the cache. The cache is shared by the workers, and each
	// worker also keeps the verdicts it last used in a table of its own
	// of at most 256 slots, and no more than CacheSize, so that a repeat
	// it has seen takes no lock.
	CacheSize int
	// Journal, when non-nil, records completed and quarantined shards
	// for -resume. Run appends; the caller owns Close.
	Journal *Journal
	// Completed maps shard ID -> record for shards already finished in
	// a previous run (from ResumeJournal); they are skipped and their
	// findings merged as-is.
	Completed map[int]ShardRecord
	// Metrics, when non-nil, receives scan_shards_total{state} and the
	// scan_cache_* series.
	Metrics *telemetry.Registry
}

// withDefaults fills the farm's own defaults; the window geometry and
// ShardRows are defaulted by NewPlan.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Meta derives the journal metadata binding a journal file to one
// specific scan: chip identity, window geometry, shard layout, and
// detector. ResumeJournal refuses to resume under a different Meta.
func (c Config) Meta(chip *layout.Layout, detector string) Meta {
	p := NewPlan(chip.Bounds(), c)
	return Meta{
		Chip:      chip.Name,
		Shapes:    chip.NumShapes(),
		Bounds:    chip.Bounds(),
		ClipNM:    p.ClipNM,
		CoreFrac:  p.CoreFrac,
		StrideNM:  p.CoreNM(),
		ShardRows: p.ShardRows,
		NumShards: p.NumShards,
		SkipEmpty: c.SkipEmpty,
		Detector:  detector,
	}
}
