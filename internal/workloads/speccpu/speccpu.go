// Package speccpu provides proxies for the two SPEC CPU 2017 workloads the
// paper evaluates, 603.bwaves_s and 654.roms_s (§5.3). SPEC sources and
// inputs are proprietary, so per the substitution rule we model what a
// tiering runtime observes from them: both are dense scientific codes that
// sweep multi-gigabyte arrays with stencil access patterns — low skew, high
// spatial locality, and slow phase drift. The proxies implement real
// multi-array stencil sweeps (a block-tridiagonal-style x/y/z sweep for
// bwaves, a plane-by-plane ocean-model update for roms) over arrays laid
// out in the simulated page space.
//
// Because nearly every page is touched each phase, the hot set is close to
// the whole footprint; the paper accordingly sees only ~3% spread between
// tiering systems here, and the proxies preserve that behaviour.
package speccpu

import (
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// Config sizes a proxy instance.
type Config struct {
	// Name labels the workload.
	Name string
	// Cells is the number of grid cells per array.
	Cells int
	// Arrays is the number of state arrays (bwaves: 5, roms: 7).
	Arrays int
	// Planes emulates roms' plane-sweep ordering when true; otherwise the
	// sweep is linear with periodic direction alternation (bwaves).
	Planes bool
	// Seed makes the instance deterministic.
	Seed uint64
}

// Bwaves returns the 603.bwaves_s proxy configuration: five state arrays
// swept by a blocked tridiagonal-style solver.
func Bwaves(seed uint64) Config {
	return Config{
		Name:   "spec-bwaves",
		Cells:  1 << 21, // 2M cells × 5 arrays × 8B = 80 MB
		Arrays: 5,
		Seed:   seed,
	}
}

// Roms returns the 654.roms_s proxy configuration: seven ocean-state arrays
// updated plane by plane.
func Roms(seed uint64) Config {
	return Config{
		Name:   "spec-roms",
		Cells:  3 << 20, // 3M cells × 7 arrays × 8B = 168 MB
		Arrays: 7,
		Planes: true,
		Seed:   seed,
	}
}

const (
	cellBytes  = 8
	blockCells = 64 // cells one operation processes
	// hotFrac is the small fraction of cells revisited every op (solver
	// workspace/boundary arrays), giving SPEC its modest skew.
	hotFrac = 0.01
)

// Proxy is the stencil-sweep workload; it implements trace.Source.
type Proxy struct {
	cfg         Config
	rng         *xrand.RNG
	arrayPgs    int
	numPages    int
	cursor      int
	direction   int // +1 / -1 alternating sweeps (bwaves)
	plane       int
	planeLen    int
	planeStride int
	hotPages    []mem.PageID
}

var _ trace.Source = (*Proxy)(nil)

// New creates a proxy from cfg.
func New(cfg Config) *Proxy {
	rng := xrand.New(cfg.Seed)
	arrayPgs := (cfg.Cells*cellBytes + mem.RegularPageBytes - 1) / mem.RegularPageBytes
	p := &Proxy{
		cfg:       cfg,
		rng:       rng,
		arrayPgs:  arrayPgs,
		numPages:  arrayPgs * cfg.Arrays,
		direction: 1,
		planeLen:  1024,
	}
	// Pick a plane stride coprime with the plane count so the sweep still
	// visits every plane exactly once per full pass.
	if numPlanes := cfg.Cells / p.planeLen; numPlanes > 1 {
		p.planeStride = numPlanes/3 | 1
		for gcd(p.planeStride, numPlanes) != 1 {
			p.planeStride += 2
		}
	} else {
		p.planeStride = 1
	}
	// Workspace pages: the small always-hot solver state.
	nHot := int(hotFrac * float64(p.numPages))
	if nHot < 1 {
		nHot = 1
	}
	p.hotPages = make([]mem.PageID, nHot)
	for i := range p.hotPages {
		p.hotPages[i] = mem.PageID(rng.Intn(p.numPages))
	}
	return p
}

// Name implements trace.Source.
func (p *Proxy) Name() string { return p.cfg.Name }

// NumPages implements trace.Source.
func (p *Proxy) NumPages() int { return p.numPages }

// AdvanceTime implements trace.Source.
func (p *Proxy) AdvanceTime(int64) {}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (p *Proxy) cellPage(array, cell int) mem.PageID {
	return mem.PageID(array*p.arrayPgs + cell*cellBytes/mem.RegularPageBytes)
}

// NextOp implements trace.Source: process one block of cells — read the
// block (plus stencil neighbors) in every array, write one array, and touch
// one solver-workspace page.
func (p *Proxy) NextOp(dst []trace.Access) []trace.Access {
	c := p.cursor
	// Stencil reads: block page in every array, neighbor page in the first
	// two arrays (previous block — usually the same page, sometimes not).
	for a := 0; a < p.cfg.Arrays; a++ {
		dst = append(dst, trace.Access{Page: p.cellPage(a, c)})
	}
	prev := c - blockCells
	if prev < 0 {
		prev = 0
	}
	dst = append(dst, trace.Access{Page: p.cellPage(0, prev)})
	dst = append(dst, trace.Access{Page: p.cellPage(1, prev)})
	// Write the updated state array.
	dst = append(dst, trace.Access{Page: p.cellPage(p.cfg.Arrays-1, c), Write: true})
	// Solver workspace (always hot).
	dst = append(dst, trace.Access{Page: p.hotPages[p.rng.Intn(len(p.hotPages))]})

	p.advanceCursor()
	return dst
}

// NextBatch implements trace.BatchSource: the stencil sweep is position-
// driven only, so blocks generate back to back.
func (p *Proxy) NextBatch(dst []trace.Access, max int) []trace.Access {
	for i := 0; i < max; i++ {
		dst = p.NextOp(dst)
		dst[len(dst)-1].EndOp = true
	}
	return dst
}

func (p *Proxy) advanceCursor() {
	if p.cfg.Planes {
		// Plane order: sweep within a plane, then jump to a strided plane —
		// consecutive k-planes of a 3D ocean grid are far apart in linear
		// memory, so the page stream jumps between regions.
		p.cursor += blockCells
		if p.cursor%p.planeLen == 0 || p.cursor >= p.cfg.Cells {
			numPlanes := p.cfg.Cells / p.planeLen
			p.plane = (p.plane + p.planeStride) % numPlanes
			p.cursor = p.plane * p.planeLen
		}
		return
	}
	p.cursor += p.direction * blockCells
	if p.cursor >= p.cfg.Cells {
		p.cursor = p.cfg.Cells - blockCells
		p.direction = -1
	} else if p.cursor < 0 {
		p.cursor = 0
		p.direction = 1
	}
}

// ClockFree implements trace.ClockFree: the sweep ignores AdvanceTime.
func (p *Proxy) ClockFree() bool { return true }
