// Package xgboost proxies the paper's XGBoost training workload (§5.3:
// gradient-boosted trees over the Criteo click-logs, 248 GB footprint). The
// Criteo dataset is not redistributable at that scale, so per the
// substitution rule the proxy implements the memory-relevant core of
// histogram-based tree boosting over a synthetic quantized dataset:
//
//   - The feature matrix is stored column-major as uint8 bin indices, the
//     layout XGBoost's `hist` method uses; each feature column spans many
//     pages.
//   - Each boosting round samples a feature subset (colsample_bytree) and a
//     row subsample, then builds per-node gradient histograms by streaming
//     the sampled columns and the gradient array.
//
// Hotness therefore concentrates on the sampled columns of the current
// round and shifts every round — exactly the decay the paper measures in
// Fig. 2b, where ~50% of XGBoost's hot pages go cold within 5 minutes.
package xgboost

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// The boosting shape of the paper's Criteo run.
const (
	gradBytes     = 8   // per-row gradient+hessian footprint (two float32s)
	colSample     = 0.4 // fraction of features sampled per boosting round
	rowSample     = 0.8 // fraction of rows visited per round
	blockRows     = 512 // rows one operation scans
	nodesPerRound = 15  // tree nodes whose histograms one round builds (depth 4)
)

// Config sizes the training proxy.
type Config struct {
	// Rows is the number of training examples.
	Rows int
	// Features is the number of feature columns.
	Features int
	// Seed makes the instance deterministic.
	Seed uint64
}

// Default returns a proxy proportioned like the paper's Criteo run.
func Default(seed uint64) Config {
	return Config{
		Rows:     1 << 21, // 2M rows
		Features: 64,      // 2M × 64 × 1B = 128 MB of feature bins
		Seed:     seed,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Rows <= 0 || c.Features <= 0 {
		return fmt.Errorf("xgboost: Rows and Features must be positive")
	}
	return nil
}

// Trainer is the boosting workload; it implements trace.Source.
type Trainer struct {
	cfg        Config
	rng        *xrand.RNG
	colPages   int // pages per feature column
	gradBase   int // first gradient page
	histBase   int // first histogram page
	numPages   int
	activeCols []int // features sampled this round
	colCursor  int   // index into activeCols
	rowCursor  int   // current row within the active feature scan
	rowStart   int   // row-subsample offset for this round
	rowSpan    int   // rows visited per round
	node       int   // current tree node
	round      int64
}

var _ trace.Source = (*Trainer)(nil)

// New creates a Trainer from cfg.
func New(cfg Config) (*Trainer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &Trainer{cfg: cfg, rng: xrand.New(cfg.Seed)}
	t.colPages = (cfg.Rows + mem.RegularPageBytes - 1) / mem.RegularPageBytes // 1 B per row
	t.gradBase = t.colPages * cfg.Features
	gradPages := (cfg.Rows*gradBytes + mem.RegularPageBytes - 1) / mem.RegularPageBytes
	t.histBase = t.gradBase + gradPages
	histPages := cfg.Features // one histogram page per feature (256 bins × 16 B)
	t.numPages = t.histBase + histPages
	t.rowSpan = int(rowSample * float64(cfg.Rows))
	t.newRound()
	return t, nil
}

// newRound samples the feature subset and row window for the next tree.
func (t *Trainer) newRound() {
	t.round++
	k := int(colSample * float64(t.cfg.Features))
	if k < 1 {
		k = 1
	}
	perm := t.rng.Perm(t.cfg.Features)
	t.activeCols = perm[:k]
	t.rowStart = t.rng.Intn(t.cfg.Rows)
	t.colCursor = 0
	t.rowCursor = 0
	t.node = 0
}

// Name implements trace.Source.
func (t *Trainer) Name() string { return "xgboost" }

// NumPages implements trace.Source.
func (t *Trainer) NumPages() int { return t.numPages }

// AdvanceTime implements trace.Source.
func (t *Trainer) AdvanceTime(int64) {}

func (t *Trainer) featurePage(feature, row int) mem.PageID {
	return mem.PageID(feature*t.colPages + row/mem.RegularPageBytes)
}

func (t *Trainer) gradPage(row int) mem.PageID {
	return mem.PageID(t.gradBase + row*gradBytes/mem.RegularPageBytes)
}

// NextOp implements trace.Source: scan one row block of the current feature
// column, reading bins and gradients and accumulating into the feature's
// histogram page.
func (t *Trainer) NextOp(dst []trace.Access) []trace.Access {
	feature := t.activeCols[t.colCursor]
	row := (t.rowStart + t.rowCursor) % t.cfg.Rows

	// One block spans at most two feature pages and a few gradient pages.
	dst = append(dst, trace.Access{Page: t.featurePage(feature, row)})
	endRow := row + blockRows - 1
	if endRow/mem.RegularPageBytes != row/mem.RegularPageBytes {
		dst = append(dst, trace.Access{Page: t.featurePage(feature, endRow%t.cfg.Rows)})
	}
	// Gradient pages for the block (8 B per row → blockRows*8 bytes).
	for b := 0; b < blockRows*gradBytes; b += mem.RegularPageBytes {
		dst = append(dst, trace.Access{Page: t.gradPage((row + b/gradBytes) % t.cfg.Rows)})
	}
	// Histogram accumulation (read-modify-write).
	dst = append(dst, trace.Access{Page: mem.PageID(t.histBase + feature), Write: true})

	// Advance: rows → features → nodes → rounds.
	t.rowCursor += blockRows
	if t.rowCursor >= t.rowSpan {
		t.rowCursor = 0
		t.colCursor++
		if t.colCursor >= len(t.activeCols) {
			t.colCursor = 0
			t.node++
			if t.node >= nodesPerRound {
				t.newRound()
			}
		}
	}
	return dst
}

// NextBatch implements trace.BatchSource: training is cursor-driven with no
// time-triggered behaviour, so blocks generate back to back.
func (t *Trainer) NextBatch(dst []trace.Access, max int) []trace.Access {
	for i := 0; i < max; i++ {
		dst = t.NextOp(dst)
		dst[len(dst)-1].EndOp = true
	}
	return dst
}

// ClockFree implements trace.ClockFree: training ignores AdvanceTime.
func (t *Trainer) ClockFree() bool { return true }
