package gap

import (
	"repro/internal/trace"
	"repro/internal/xrand"
)

// Source runs a GAP kernel repeatedly over one input graph, emitting page
// accesses. Completed runs restart: BFS restarts from a fresh random source
// vertex every time (the "single-source kernel" behaviour that gives BFS a
// different hot set per trial, §6.1), while CC and PR reprocess the whole
// graph identically.
type Source struct {
	kernel Kind
	graph  *Graph
	lay    *Layout
	rng    *xrand.RNG
	name   string

	// BFS state. visitedEpoch implements O(1) restart.
	queue        []uint32
	head         int
	visitedEpoch []uint32
	epoch        uint32

	// CC state: label-propagation components.
	labels    []uint32
	ccCursor  int
	ccChanged bool
	ccInit    bool // in the initialization pass

	// PR state.
	rank, next []float64
	prCursor   int
	prIter     int
}

var _ trace.Source = (*Source)(nil)

// NewSourceFromGraph wraps an existing graph, allowing one expensive build
// to be shared by several kernels.
func NewSourceFromGraph(kernel Kind, graph *Graph, name string, seed uint64) *Source {
	s := &Source{
		kernel: kernel,
		graph:  graph,
		lay:    NewLayout(graph),
		rng:    xrand.New(seed ^ 0xBF5),
		name:   name,
	}
	switch kernel {
	case BFS:
		s.visitedEpoch = make([]uint32, graph.N)
		s.restartBFS()
	case CC:
		s.labels = make([]uint32, graph.N)
		s.restartCC()
	case PR:
		s.rank = make([]float64, graph.N)
		s.next = make([]float64, graph.N)
		s.restartPR()
	}
	return s
}

// Name implements trace.Source.
func (s *Source) Name() string { return s.name }

// NumPages implements trace.Source.
func (s *Source) NumPages() int { return s.lay.NumPages() }

// AdvanceTime implements trace.Source.
func (s *Source) AdvanceTime(int64) {}

// NextOp implements trace.Source.
func (s *Source) NextOp(dst []trace.Access) []trace.Access {
	switch s.kernel {
	case BFS:
		return s.bfsOp(dst)
	case CC:
		return s.ccOp(dst)
	default:
		return s.prOp(dst)
	}
}

// NextBatch implements trace.BatchSource: kernels are purely state-driven
// (no time-triggered behaviour), so ops are generated back to back with the
// kernel dispatch hoisted out of the per-op path.
func (s *Source) NextBatch(dst []trace.Access, max int) []trace.Access {
	gen := s.prOp
	switch s.kernel {
	case BFS:
		gen = s.bfsOp
	case CC:
		gen = s.ccOp
	}
	for i := 0; i < max; i++ {
		dst = gen(dst)
		dst[len(dst)-1].EndOp = true
	}
	return dst
}

// --- BFS ---

func (s *Source) restartBFS() {
	s.epoch++
	src := uint32(s.rng.Intn(s.graph.N))
	// Prefer a source inside the giant component: retry until the source
	// has neighbors (isolated vertices end trials instantly).
	for tries := 0; s.graph.Degree(src) == 0 && tries < 64; tries++ {
		src = uint32(s.rng.Intn(s.graph.N))
	}
	s.queue = s.queue[:0]
	s.queue = append(s.queue, src)
	s.head = 0
	s.visitedEpoch[src] = s.epoch
}

// bfsOp expands one frontier vertex: reads its offsets and edge pages,
// checks each neighbor's visited word, and enqueues unvisited neighbors
// (writing their parent words).
func (s *Source) bfsOp(dst []trace.Access) []trace.Access {
	if s.head >= len(s.queue) {
		s.restartBFS()
	}
	u := s.queue[s.head]
	s.head++
	dst = append(dst, trace.Access{Page: s.lay.OffsetsPage(u)})
	lo, hi := s.graph.Offsets[u], s.graph.Offsets[u+1]
	budget := maxAccessesPerOp
	for i := lo; i < hi; i++ {
		v := s.graph.Edges[i]
		if budget > 0 {
			dst = append(dst,
				trace.Access{Page: s.lay.EdgePage(i)},
				trace.Access{Page: s.lay.ParentPage(v)})
			budget -= 2
		}
		if s.visitedEpoch[v] != s.epoch {
			s.visitedEpoch[v] = s.epoch
			s.queue = append(s.queue, v)
			if budget > 0 {
				dst = append(dst, trace.Access{Page: s.lay.ParentPage(v), Write: true})
				budget--
			}
		}
	}
	return dst
}

// --- Connected components (label propagation) ---

func (s *Source) restartCC() {
	s.ccCursor = 0
	s.ccChanged = false
	s.ccInit = true
}

// ccOp processes one vertex. During the initialization pass each vertex
// writes its own label; during propagation passes it pulls the minimum
// neighbor label. When a full pass makes no change, components have
// converged and the kernel restarts (whole-graph kernel: same work every
// trial).
func (s *Source) ccOp(dst []trace.Access) []trace.Access {
	if s.ccCursor >= s.graph.N {
		if s.ccInit {
			s.ccInit = false
		} else if !s.ccChanged {
			s.restartCC()
			// fall through into the new init pass
		}
		s.ccCursor = 0
		s.ccChanged = false
	}
	u := uint32(s.ccCursor)
	s.ccCursor++
	if s.ccInit {
		s.labels[u] = u
		return append(dst, trace.Access{Page: s.lay.LabelPage(u), Write: true})
	}
	dst = append(dst,
		trace.Access{Page: s.lay.OffsetsPage(u)},
		trace.Access{Page: s.lay.LabelPage(u)})
	lo, hi := s.graph.Offsets[u], s.graph.Offsets[u+1]
	min := s.labels[u]
	budget := maxAccessesPerOp
	for i := lo; i < hi; i++ {
		v := s.graph.Edges[i]
		if budget > 0 {
			dst = append(dst,
				trace.Access{Page: s.lay.EdgePage(i)},
				trace.Access{Page: s.lay.LabelPage(v)})
			budget -= 2
		}
		if s.labels[v] < min {
			min = s.labels[v]
		}
	}
	if min < s.labels[u] {
		s.labels[u] = min
		s.ccChanged = true
		dst = append(dst, trace.Access{Page: s.lay.LabelPage(u), Write: true})
	}
	return dst
}

// --- PageRank ---

const (
	prDamping    = 0.85
	prIterations = 10
)

func (s *Source) restartPR() {
	s.prCursor = 0
	s.prIter = 0
	init := 1.0 / float64(s.graph.N)
	for i := range s.rank {
		s.rank[i] = init
	}
}

// prOp computes one vertex's next rank by pulling neighbor contributions —
// reads of the neighbor rank pages dominate, which is why PR's hot set is
// the rank pages of high-degree regions.
func (s *Source) prOp(dst []trace.Access) []trace.Access {
	if s.prCursor >= s.graph.N {
		s.prCursor = 0
		s.rank, s.next = s.next, s.rank
		s.prIter++
		if s.prIter >= prIterations {
			s.restartPR()
		}
	}
	u := uint32(s.prCursor)
	s.prCursor++
	dst = append(dst, trace.Access{Page: s.lay.OffsetsPage(u)})
	lo, hi := s.graph.Offsets[u], s.graph.Offsets[u+1]
	sum := 0.0
	budget := maxAccessesPerOp
	for i := lo; i < hi; i++ {
		v := s.graph.Edges[i]
		if budget > 0 {
			dst = append(dst,
				trace.Access{Page: s.lay.EdgePage(i)},
				trace.Access{Page: s.lay.RankPage(v)})
			budget -= 2
		}
		if d := s.graph.Degree(v); d > 0 {
			sum += s.rank[v] / float64(d)
		}
	}
	s.next[u] = (1-prDamping)/float64(s.graph.N) + prDamping*sum
	dst = append(dst, trace.Access{Page: s.lay.NextRankPage(u), Write: true})
	return dst
}

// ClockFree implements trace.ClockFree: kernels ignore AdvanceTime.
func (s *Source) ClockFree() bool { return true }
