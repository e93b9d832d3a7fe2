package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	hybridtier "repro"
)

// defaultSeed is the seed golden.json was recorded at.
const defaultSeed = 1

// goldenIters is how many daemon_cold/fleet_cold iterations golden.json
// covers; later iterations are checked structurally and against nothing else.
const goldenIters = 16

func sha(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// checkShape verifies that data is the result of j: one cell per point of
// the cross product, in spec order, none carrying an error.
func checkShape(j job, data []byte) error {
	var cells []hybridtier.CellResult
	if err := json.Unmarshal(data, &cells); err != nil {
		return fmt.Errorf("%s: result is not a cell array: %w", j.name, err)
	}
	want := (&hybridtier.Sweep{Policies: j.spec.Policies, Ratios: j.spec.Ratios, Seeds: j.spec.Seeds}).Cells()
	if len(cells) != len(want) {
		return fmt.Errorf("%s: %d cells, want %d", j.name, len(cells), len(want))
	}
	for i, c := range cells {
		if c.Cell != want[i] {
			return fmt.Errorf("%s: cell %d is %+v, want %+v", j.name, i, c.Cell, want[i])
		}
		if c.Err != "" || c.Result == nil {
			return fmt.Errorf("%s: cell %d failed: %q", j.name, i, c.Err)
		}
		if c.Result.Ops != j.spec.Ops {
			return fmt.Errorf("%s: cell %d ran %d ops, want %d", j.name, i, c.Result.Ops, j.spec.Ops)
		}
	}
	return nil
}

// runInProcess is the reference every served result must equal byte for
// byte: an in-process Sweep.Run of the job, marshalled as the CLI does.
func runInProcess(ctx context.Context, j job) ([]byte, []hybridtier.CellResult, error) {
	sw, err := j.sweep()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", j.name, err)
	}
	cells, err := sw.Run(ctx)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", j.name, err)
	}
	data, err := json.Marshal(cells)
	return data, cells, err
}

// golden maps job names to the sha256 of their result bytes at defaultSeed.
type golden map[string]string

func goldenPath(root string) string { return filepath.Join(root, "bench", "golden.json") }

func loadGolden(root string) (golden, error) {
	data, err := os.ReadFile(goldenPath(root))
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// check compares one result with its golden hash. Jobs golden.json does not
// list (cold iterations past goldenIters) pass.
func (g golden) check(name string, data []byte) error {
	want, ok := g[name]
	if !ok {
		return nil
	}
	if got := sha(data); got != want {
		return fmt.Errorf("%s: result sha256 %s differs from golden %s: a simulated statistic changed", name, got[:12], want[:12])
	}
	return nil
}

// updateGolden recomputes every job of every workload in process at
// defaultSeed and rewrites golden.json.
func updateGolden(ctx context.Context, root, workDir string) error {
	g := golden{}
	for _, w := range workloads {
		iters := 1
		if w.kind == kindCold {
			iters = goldenIters
		}
		for it := 0; it < iters; it++ {
			js := w.jobs(sizing{}, defaultSeed, it)
			if w.recordsTrace {
				path, err := recordTrace(ctx, sizing{}, defaultSeed, workDir)
				if err != nil {
					return err
				}
				setReplayPath(js, path)
			}
			for _, j := range js {
				if _, done := g[j.name]; done {
					continue // fleet_cold shares daemon_cold's job list
				}
				data, _, err := runInProcess(ctx, j)
				if err != nil {
					return err
				}
				if err := checkShape(j, data); err != nil {
					return err
				}
				g[j.name] = sha(data)
			}
		}
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath(root), append(data, '\n'), 0o644)
}
