// Package gap reimplements the GAP benchmark-suite substrate the paper
// evaluates (§5.3): Kronecker and uniform-random graph generation, CSR
// storage, and instrumented breadth-first search, connected components, and
// PageRank kernels that emit page-granular access streams as they run.
//
// The kernels are real implementations — BFS computes parents, CC computes
// components, PR converges — instrumented so every array dereference is
// reported as a page access against a fixed memory layout, which is what a
// tiering runtime observes through PEBS when the original C++ kernels run.
package gap

import (
	"sort"

	"repro/internal/mem"
	"repro/internal/xrand"
)

// Graph is an undirected graph in CSR form. Edge lists are symmetrized at
// build time, so every edge appears in both endpoints' adjacency.
type Graph struct {
	N       int
	Offsets []int64  // len N+1, indices into Edges
	Edges   []uint32 // neighbor lists, sorted per vertex
}

// Degree returns vertex v's degree.
func (g *Graph) Degree(v uint32) int {
	return int(g.Offsets[v+1] - g.Offsets[v])
}

// NumEdges returns the number of stored (directed) edges.
func (g *Graph) NumEdges() int { return len(g.Edges) }

// BuildCSR symmetrizes and sorts the given edge pairs into CSR form.
// Self-loops are dropped; duplicate edges are kept (as GAP's generators do).
func BuildCSR(n int, pairs [][2]uint32) *Graph {
	deg := make([]int64, n+1)
	kept := 0
	for _, e := range pairs {
		if e[0] == e[1] {
			continue
		}
		deg[e[0]+1]++
		deg[e[1]+1]++
		kept++
	}
	for i := 1; i <= n; i++ {
		deg[i] += deg[i-1]
	}
	edges := make([]uint32, 2*kept)
	cursor := make([]int64, n)
	copy(cursor, deg[:n])
	for _, e := range pairs {
		if e[0] == e[1] {
			continue
		}
		edges[cursor[e[0]]] = e[1]
		cursor[e[0]]++
		edges[cursor[e[1]]] = e[0]
		cursor[e[1]]++
	}
	g := &Graph{N: n, Offsets: deg, Edges: edges}
	for v := 0; v < n; v++ {
		adj := g.Edges[g.Offsets[v]:g.Offsets[v+1]]
		sort.Slice(adj, func(i, j int) bool { return adj[i] < adj[j] })
	}
	return g
}

// Kronecker generates an RMAT/Kronecker graph with 2^scale vertices and
// approximately degree*2^scale undirected edges, using GAP's (0.57, 0.19,
// 0.19) partition probabilities. Kronecker graphs have a heavy-tailed
// degree distribution: a few hub vertices attract most edges, producing the
// concentrated hot set the paper discusses (Fig. 16: 94% of pages cold).
func Kronecker(scale, degree int, seed uint64) *Graph {
	n := 1 << scale
	m := degree * n
	rng := xrand.New(seed)
	pairs := make([][2]uint32, m)
	const a, b, c = 0.57, 0.19, 0.19
	for i := range pairs {
		var u, v uint32
		for bit := 0; bit < scale; bit++ {
			r := rng.Float64()
			switch {
			case r < a:
				// top-left: no bits set
			case r < a+b:
				v |= 1 << bit
			case r < a+b+c:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		pairs[i] = [2]uint32{u, v}
	}
	// GAP permutes vertex ids so that hubs are not clustered at id 0.
	perm := rng.Perm(n)
	for i := range pairs {
		pairs[i][0] = uint32(perm[pairs[i][0]])
		pairs[i][1] = uint32(perm[pairs[i][1]])
	}
	return BuildCSR(n, pairs)
}

// UniformRandom generates an Erdős–Rényi-style graph with 2^scale vertices
// and degree*2^scale edges where every endpoint is uniform — the worst case
// for locality (§5.3): every vertex is equally likely to be touched, so hot
// sets are diffuse and shift between kernel runs.
func UniformRandom(scale, degree int, seed uint64) *Graph {
	n := 1 << scale
	m := degree * n
	rng := xrand.New(seed)
	pairs := make([][2]uint32, m)
	for i := range pairs {
		pairs[i] = [2]uint32{uint32(rng.Intn(n)), uint32(rng.Intn(n))}
	}
	return BuildCSR(n, pairs)
}

// Layout maps the kernel working arrays onto a dense page space. All three
// kernels share the graph regions; each has its own vertex-data region so a
// single layout serves any kernel.
type Layout struct {
	// Region base pages.
	offsetsBase mem.PageID
	edgesBase   mem.PageID
	parentBase  mem.PageID // BFS: 4 B per vertex
	labelBase   mem.PageID // CC: 4 B per vertex
	rankBase    mem.PageID // PR: 8 B per vertex (current)
	nextBase    mem.PageID // PR: 8 B per vertex (next)
	numPages    int
}

// NewLayout computes the page layout for g.
func NewLayout(g *Graph) *Layout {
	l := &Layout{}
	next := mem.PageID(0)
	alloc := func(bytes int64) mem.PageID {
		base := next
		pages := (bytes + mem.RegularPageBytes - 1) / mem.RegularPageBytes
		if pages == 0 {
			pages = 1
		}
		next += mem.PageID(pages)
		return base
	}
	l.offsetsBase = alloc(int64(g.N+1) * 8)
	l.edgesBase = alloc(int64(len(g.Edges)) * 4)
	l.parentBase = alloc(int64(g.N) * 4)
	l.labelBase = alloc(int64(g.N) * 4)
	l.rankBase = alloc(int64(g.N) * 8)
	l.nextBase = alloc(int64(g.N) * 8)
	l.numPages = int(next)
	return l
}

// NumPages returns the total page-space size.
func (l *Layout) NumPages() int { return l.numPages }

func pageOf(base mem.PageID, byteOff int64) mem.PageID {
	return base + mem.PageID(byteOff/mem.RegularPageBytes)
}

// OffsetsPage returns the page holding Offsets[v].
func (l *Layout) OffsetsPage(v uint32) mem.PageID { return pageOf(l.offsetsBase, int64(v)*8) }

// EdgePage returns the page holding Edges[i].
func (l *Layout) EdgePage(i int64) mem.PageID { return pageOf(l.edgesBase, i*4) }

// ParentPage returns the page holding BFS parent[v].
func (l *Layout) ParentPage(v uint32) mem.PageID { return pageOf(l.parentBase, int64(v)*4) }

// LabelPage returns the page holding CC label[v].
func (l *Layout) LabelPage(v uint32) mem.PageID { return pageOf(l.labelBase, int64(v)*4) }

// RankPage returns the page holding PR rank[v].
func (l *Layout) RankPage(v uint32) mem.PageID { return pageOf(l.rankBase, int64(v)*8) }

// NextRankPage returns the page holding PR next[v].
func (l *Layout) NextRankPage(v uint32) mem.PageID { return pageOf(l.nextBase, int64(v)*8) }

// Kind selects a GAP kernel.
type Kind uint8

// The three kernels the paper evaluates.
const (
	BFS Kind = iota
	CC
	PR
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case BFS:
		return "bfs"
	case CC:
		return "cc"
	default:
		return "pr"
	}
}

// GraphKind selects an input graph family.
type GraphKind uint8

// The two §5.3 input graphs.
const (
	Kron GraphKind = iota
	URand
)

// String implements fmt.Stringer.
func (g GraphKind) String() string {
	if g == Kron {
		return "kron"
	}
	return "urand"
}

// Build generates the requested input graph at the given scale/degree.
func (g GraphKind) Build(scale, degree int, seed uint64) *Graph {
	if g == Kron {
		return Kronecker(scale, degree, seed)
	}
	return UniformRandom(scale, degree, seed)
}

// maxAccessesPerOp caps the accesses one vertex expansion emits; hub
// vertices with thousands of neighbors would otherwise produce unbounded
// operations. The kernel still processes all neighbors — the cap subsamples
// which dereferences are *reported*, mirroring what hardware sampling sees.
const maxAccessesPerOp = 48
