package registry

// The workload composition grammar: a textual form of the combinators in
// internal/trace, so composed multi-tenant scenarios resolve anywhere a
// workload name is accepted — experiments, sweeps, CLIs, facade options.
//
// EBNF (the normative copy lives in docs/COMPOSITION.md):
//
//	spec    = mix | phases | repeat | offset | scale | atom ;
//	mix     = "mix:" part "," part { "," part } ;
//	part    = [ weight "*" ] atom ;
//	phases  = "phases:" stage { "," stage } "," atom ;   (* finite stages, then the final one *)
//	stage   = atom "@" ops ;
//	repeat  = "repeat:" atom "@" ops ;
//	offset  = "offset:" atom "+" pages ;
//	scale   = "scale:" atom "*" factor ;
//	atom    = "(" spec ")" | name ;
//	name    = (* a registered workload name, or "trace:" path *) ;
//
// Nested combinators must be parenthesized: mix:0.7*(phases:cdn@50000,silo),0.3*zipf.
// Weights are positive decimals (omitted = 1). All counts are decimal
// integers; ops and pages are bounded so a typo cannot demand a
// petabyte-scale run, and every parse failure is a descriptive error —
// malformed specs never panic (FuzzRegistryParse holds us to it).

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/errfs"
	"repro/internal/trace"
)

// Grammar bounds: generous for real scenarios, tight enough that a typo'd
// count fails at parse time instead of allocating the world.
const (
	maxSpecOps    = int64(1) << 40 // phase/repeat op counts
	maxSpecPages  = int64(1) << 40 // offset page counts (mirrors the trace-format bound)
	maxSpecFactor = int64(1) << 20 // scale factors
	maxSpecWeight = 1e9            // mix weights
	maxSpecDepth  = 32             // nesting depth, so hostile input cannot blow the stack
)

// specNode is one node of a parsed composition spec.
type specNode interface{ isSpec() }

type leafNode struct{ name string }

type mixNode struct {
	weights []float64
	parts   []specNode
}

type phasesNode struct {
	stages []specNode
	ops    []int64 // ops[i] > 0 for i < len-1; 0 for the final stage
}

type repeatNode struct {
	child specNode
	ops   int64
}

type offsetNode struct {
	child specNode
	pages int64
}

type scaleNode struct {
	child  specNode
	factor int64
}

func (leafNode) isSpec()   {}
func (mixNode) isSpec()    {}
func (phasesNode) isSpec() {}
func (repeatNode) isSpec() {}
func (offsetNode) isSpec() {}
func (scaleNode) isSpec()  {}

// isCompositeSpec reports whether name uses the composition grammar (a
// combinator scheme or a parenthesized spec) rather than a plain
// registered name or trace path.
func isCompositeSpec(name string) bool {
	for _, p := range []string{"mix:", "phases:", "repeat:", "offset:", "scale:", "("} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// splitTop splits s at top-level commas, respecting parenthesis nesting.
func splitTop(s string) ([]string, error) {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
			if depth < 0 {
				return nil, fmt.Errorf("unbalanced ')' at byte %d of %q", i, s)
			}
		case ',':
			if depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if depth != 0 {
		return nil, fmt.Errorf("unbalanced '(' in %q", s)
	}
	return append(out, s[start:]), nil
}

// cutTop splits s at the LAST top-level occurrence of sep, so counts bind
// rightmost: "trace:a@b@100" parses as atom "trace:a@b" with count 100.
func cutTop(s string, sep byte) (head, tail string, ok bool) {
	depth := 0
	at := -1
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
		case sep:
			if depth == 0 {
				at = i
			}
		}
	}
	if at < 0 {
		return s, "", false
	}
	return s[:at], s[at+1:], true
}

// cutTopFirst splits s at the FIRST top-level occurrence of sep; mix
// weights bind leftmost so parenthesized atoms stay whole.
func cutTopFirst(s string, sep byte) (head, tail string, ok bool) {
	depth := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
		case sep:
			if depth == 0 {
				return s[:i], s[i+1:], true
			}
		}
	}
	return s, "", false
}

// parseSpec parses a composition spec (or plain name) into its node tree.
func parseSpec(s string, depth int) (specNode, error) {
	if depth > maxSpecDepth {
		return nil, fmt.Errorf("spec nests deeper than %d levels", maxSpecDepth)
	}
	s = strings.TrimSpace(s)
	switch {
	case strings.HasPrefix(s, "mix:"):
		return parseMix(s[len("mix:"):], depth)
	case strings.HasPrefix(s, "phases:"):
		return parsePhases(s[len("phases:"):], depth)
	case strings.HasPrefix(s, "repeat:"):
		return parseRepeat(s[len("repeat:"):], depth)
	case strings.HasPrefix(s, "offset:"):
		return parseOffset(s[len("offset:"):], depth)
	case strings.HasPrefix(s, "scale:"):
		return parseScale(s[len("scale:"):], depth)
	default:
		return parseAtom(s, depth)
	}
}

// parseAtom parses "( spec )" or a leaf name. Nested combinators must be
// parenthesized — the error says so, because the bare form is the most
// natural typo.
func parseAtom(s string, depth int) (specNode, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, fmt.Errorf("empty workload name")
	}
	if s[0] == '(' {
		if s[len(s)-1] != ')' {
			return nil, fmt.Errorf("unbalanced parentheses in %q", s)
		}
		return parseSpec(s[1:len(s)-1], depth+1)
	}
	// Trace paths are opaque: they may legitimately contain '@', '+', or
	// '*' (counts bind to the RIGHTMOST top-level separator so such paths
	// still parse), though commas and parentheses in a path are split
	// before the atom is seen and cannot be escaped.
	if strings.HasPrefix(s, TraceScheme) || strings.HasPrefix(s, CorpusScheme) {
		return leafNode{name: s}, nil
	}
	if isCompositeSpec(s) {
		return nil, fmt.Errorf("nested combinators must be parenthesized: write (%s)", s)
	}
	if strings.ContainsAny(s, "(),*@+") {
		return nil, fmt.Errorf("workload name %q contains grammar metacharacters; registered names never do", s)
	}
	return leafNode{name: s}, nil
}

// parseCount parses a decimal op/page/factor count within [min, max].
func parseCount(s, what string, lo, hi int64) (int64, error) {
	v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q: %v", what, s, err)
	}
	if v < lo || v > hi {
		return 0, fmt.Errorf("%s %d outside [%d, %d]", what, v, lo, hi)
	}
	return v, nil
}

func parseMix(body string, depth int) (specNode, error) {
	parts, err := splitTop(body)
	if err != nil {
		return nil, err
	}
	if len(parts) < 2 {
		return nil, fmt.Errorf("mix needs at least two comma-separated tenants, got %d in %q", len(parts), body)
	}
	n := mixNode{}
	for _, p := range parts {
		w := 1.0
		atom := p
		if head, tail, ok := cutTopFirst(p, '*'); ok {
			w, err = strconv.ParseFloat(strings.TrimSpace(head), 64)
			if err != nil {
				return nil, fmt.Errorf("bad mix weight %q: %v", head, err)
			}
			if !(w > 0) || math.IsInf(w, 1) || w > maxSpecWeight {
				return nil, fmt.Errorf("mix weight %v outside (0, %g]", w, maxSpecWeight)
			}
			atom = tail
		}
		child, err := parseAtom(atom, depth)
		if err != nil {
			return nil, err
		}
		n.weights = append(n.weights, w)
		n.parts = append(n.parts, child)
	}
	return n, nil
}

func parsePhases(body string, depth int) (specNode, error) {
	stages, err := splitTop(body)
	if err != nil {
		return nil, err
	}
	if len(stages) < 2 {
		return nil, fmt.Errorf("phases need at least two comma-separated stages, got %d in %q", len(stages), body)
	}
	n := phasesNode{}
	for i, st := range stages {
		last := i == len(stages)-1
		head, tail, ok := cutTop(st, '@')
		ops := int64(0)
		atom := st
		if ok {
			if v, err := parseCount(tail, "phase op count", 1, maxSpecOps); err == nil {
				ops, atom = v, head
			} else if !last {
				return nil, err
			}
			// A final stage whose '@' suffix is not a count is taken as a
			// plain name (trace paths may contain '@'); a final stage WITH
			// a count is the one misuse worth a dedicated message.
		}
		if !last && ops == 0 {
			return nil, fmt.Errorf("phase stage %q needs an op count: write name@ops", strings.TrimSpace(st))
		}
		if last && ops != 0 {
			return nil, fmt.Errorf("the final phase runs until the simulation ends; drop %q", "@"+tail)
		}
		child, err := parseAtom(atom, depth)
		if err != nil {
			return nil, err
		}
		n.stages = append(n.stages, child)
		n.ops = append(n.ops, ops)
	}
	return n, nil
}

func parseRepeat(body string, depth int) (specNode, error) {
	head, tail, ok := cutTop(body, '@')
	if !ok {
		return nil, fmt.Errorf("repeat needs an op count: repeat:name@ops, got %q", body)
	}
	ops, err := parseCount(tail, "repeat op count", 1, maxSpecOps)
	if err != nil {
		return nil, err
	}
	child, err := parseAtom(head, depth)
	if err != nil {
		return nil, err
	}
	return repeatNode{child: child, ops: ops}, nil
}

func parseOffset(body string, depth int) (specNode, error) {
	head, tail, ok := cutTop(body, '+')
	if !ok {
		return nil, fmt.Errorf("offset needs a page count: offset:name+pages, got %q", body)
	}
	pages, err := parseCount(tail, "offset page count", 0, maxSpecPages)
	if err != nil {
		return nil, err
	}
	child, err := parseAtom(head, depth)
	if err != nil {
		return nil, err
	}
	return offsetNode{child: child, pages: pages}, nil
}

func parseScale(body string, depth int) (specNode, error) {
	head, tail, ok := cutTop(body, '*')
	if !ok {
		return nil, fmt.Errorf("scale needs a factor: scale:name*factor, got %q", body)
	}
	factor, err := parseCount(tail, "scale factor", 1, maxSpecFactor)
	if err != nil {
		return nil, err
	}
	child, err := parseAtom(head, depth)
	if err != nil {
		return nil, err
	}
	return scaleNode{child: child, factor: factor}, nil
}

// validateNode checks every leaf against the registry without building
// anything (trace: leaves only need a path; the file is opened at build).
func (r *WorkloadRegistry) validateNode(n specNode) error {
	switch n := n.(type) {
	case leafNode:
		if path, ok := strings.CutPrefix(n.name, TraceScheme); ok {
			if path == "" {
				return fmt.Errorf("%q needs a path after the scheme", n.name)
			}
			return nil
		}
		if hash, ok := strings.CutPrefix(n.name, CorpusScheme); ok {
			if !errfs.ValidHash(hash) {
				return fmt.Errorf("%q needs a lowercase hex sha256 after the scheme", n.name)
			}
			// Shape only: whether the hash is actually in a store is a
			// build-time question (the resolver may live in another process).
			return nil
		}
		if _, ok := r.Lookup(n.name); !ok {
			return fmt.Errorf("unknown workload %q (known: %s)", n.name, strings.Join(r.Names(), ", "))
		}
		return nil
	case mixNode:
		for _, c := range n.parts {
			if err := r.validateNode(c); err != nil {
				return err
			}
		}
		return nil
	case phasesNode:
		for _, c := range n.stages {
			if err := r.validateNode(c); err != nil {
				return err
			}
		}
		return nil
	case repeatNode:
		return r.validateNode(n.child)
	case offsetNode:
		return r.validateNode(n.child)
	case scaleNode:
		return r.validateNode(n.child)
	default:
		return fmt.Errorf("registry: unhandled spec node %T", n)
	}
}

// Validate reports whether name would resolve: it parses composition
// grammar and checks every referenced generator against the registry,
// without constructing anything or touching the filesystem. CLIs use it
// to reject a bad -workload before any simulation starts.
func (r *WorkloadRegistry) Validate(name string) error {
	node, err := parseSpec(name, 0)
	if err != nil {
		return fmt.Errorf("registry: workload %q: %w", name, err)
	}
	if err := r.validateNode(node); err != nil {
		return fmt.Errorf("registry: workload %q: %w", name, err)
	}
	return nil
}

// childSeed derives tenant i's seed from the run seed by splitmix64, so
// composed tenants of the same base workload draw distinct streams while
// the whole composition stays a pure function of the run seed.
func childSeed(seed, i uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// closeSources releases any children already built when a later step of a
// composite build fails, so a half-built mix over trace replays does not
// leak file handles.
func closeSources(srcs []trace.Source) {
	for _, s := range srcs {
		if c, ok := s.(io.Closer); ok {
			c.Close()
		}
	}
}

// buildNode materializes a parsed spec. ctr numbers the leaves across the
// whole tree (depth-first), giving every tenant its own derived seed.
func (r *WorkloadRegistry) buildNode(n specNode, p WorkloadParams, ctr *uint64) (trace.Source, error) {
	switch n := n.(type) {
	case leafNode:
		cp := p
		cp.Seed = childSeed(p.Seed, *ctr)
		*ctr++
		return r.New(n.name, cp)
	case mixNode:
		parts := make([]trace.Weighted, 0, len(n.parts))
		srcs := make([]trace.Source, 0, len(n.parts))
		for i, c := range n.parts {
			src, err := r.buildNode(c, p, ctr)
			if err != nil {
				closeSources(srcs)
				return nil, err
			}
			srcs = append(srcs, src)
			parts = append(parts, trace.Weighted{Source: src, Weight: n.weights[i]})
		}
		m, err := trace.NewMix(parts...)
		if err != nil {
			closeSources(srcs)
		}
		return m, err
	case phasesNode:
		stages := make([]trace.Stage, 0, len(n.stages))
		srcs := make([]trace.Source, 0, len(n.stages))
		for i, c := range n.stages {
			src, err := r.buildNode(c, p, ctr)
			if err != nil {
				closeSources(srcs)
				return nil, err
			}
			srcs = append(srcs, src)
			stages = append(stages, trace.Stage{Source: src, Ops: n.ops[i]})
		}
		ph, err := trace.NewPhases(stages...)
		if err != nil {
			closeSources(srcs)
		}
		return ph, err
	case repeatNode:
		src, err := r.buildNode(n.child, p, ctr)
		if err != nil {
			return nil, err
		}
		rep, err := trace.NewRepeat(src, n.ops)
		if err != nil {
			closeSources([]trace.Source{src})
		}
		return rep, err
	case offsetNode:
		src, err := r.buildNode(n.child, p, ctr)
		if err != nil {
			return nil, err
		}
		off, err := trace.NewOffset(src, n.pages)
		if err != nil {
			closeSources([]trace.Source{src})
		}
		return off, err
	case scaleNode:
		src, err := r.buildNode(n.child, p, ctr)
		if err != nil {
			return nil, err
		}
		sc, err := trace.NewScale(src, n.factor)
		if err != nil {
			closeSources([]trace.Source{src})
		}
		return sc, err
	default:
		return nil, fmt.Errorf("registry: unhandled spec node %T", n)
	}
}

// newComposite parses and builds a composition spec.
func (r *WorkloadRegistry) newComposite(name string, p WorkloadParams) (trace.Source, error) {
	node, err := parseSpec(name, 0)
	if err != nil {
		return nil, fmt.Errorf("registry: workload %q: %w", name, err)
	}
	ctr := uint64(0)
	src, err := r.buildNode(node, p, &ctr)
	if err != nil {
		return nil, fmt.Errorf("registry: workload %q: %w", name, err)
	}
	return src, nil
}

// SpecSyntax returns one line per composition scheme, for CLI listings —
// generated here so help output can never drift from what parses.
func SpecSyntax() []string {
	return []string{
		"mix:W*A,W*B,...    weighted round-robin interleave of tenants on disjoint page ranges (weight omitted = 1)",
		"phases:A@N,...,Z   run A for N ops, then the next stage; the final stage runs to the end",
		"repeat:A@N         capture A's first N ops, then loop them forever",
		"offset:A+N         shift A's pages up by N (page space grows by N)",
		"scale:A*K          stride A's pages by K (page space grows K-fold)",
		"(...)              parenthesize nested combinators: mix:0.7*(phases:cdn@50000,silo),0.3*zipf",
	}
}
