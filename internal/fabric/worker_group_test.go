package fabric

// A worker executes a shard as one cell group: the shards of a sweep that
// shares an op stream build its workload once per process, a later sweep
// over the same stream builds it not at all, and every executed cell is
// stored in the worker's cache exactly once.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	hybridtier "repro"
	"repro/internal/errfs"
	"repro/internal/jobs"
	"repro/internal/registry"
	"repro/internal/registry/registrytest"
	"repro/internal/trace"
)

// groupBuilds counts constructions of the "group-zipf" workload; pages
// makes every test run's stream identity its own, since the facade's
// stream cache outlives a test.
var groupBuilds, groupPages atomic.Int64

func groupSpec(t *testing.T, policies ...hybridtier.PolicyName) []byte {
	t.Helper()
	return canonical(t, hybridtier.SweepSpec{
		Workload: "group-zipf",
		Params:   &hybridtier.WorkloadParams{Pages: int(groupPages.Load())},
		Policies: policies,
		Ratios:   []int{16, 8, 4, 2},
		Seeds:    []uint64{1},
		Ops:      8_000,
	})
}

// postShards sends spec's cells to h in shards of two and returns the
// reindexed, merged result.
func postShards(t *testing.T, h http.Handler, spec []byte) []byte {
	t.Helper()
	_, plans, err := hybridtier.CellPlans(spec)
	if err != nil {
		t.Fatal(err)
	}
	elements := make([][]byte, len(plans))
	for lo := 0; lo < len(plans); lo += 2 {
		body, _ := json.Marshal(shardRequest{Spec: spec, Cells: []int{lo, lo + 1}})
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/fabric/run", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("shard [%d %d]: status %d: %s", lo, lo+1, rec.Code, rec.Body)
		}
		var resp shardResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Cells) != 2 {
			t.Fatalf("shard [%d %d] answered %d cells", lo, lo+1, len(resp.Cells))
		}
		for _, sc := range resp.Cells {
			if sc.Err != "" || sc.Hash != plans[sc.Index].Hash {
				t.Fatalf("cell %d: error %q, hash %s", sc.Index, sc.Err, sc.Hash)
			}
			if elements[sc.Index], err = hybridtier.ReindexCellJSON(sc.Body, sc.Index); err != nil {
				t.Fatal(err)
			}
		}
	}
	return hybridtier.MergeCellJSON(elements)
}

// singletonRun is the reference: every cell as a sweep of its own, which
// shares and caches nothing.
func singletonRun(t *testing.T, spec []byte) []byte {
	t.Helper()
	_, plans, err := hybridtier.CellPlans(spec)
	if err != nil {
		t.Fatal(err)
	}
	elements := make([][]byte, len(plans))
	for i, p := range plans {
		single, err := referenceRunner(1)(context.Background(), p.Spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if elements[i], err = hybridtier.ReindexCellJSON(single, i); err != nil {
			t.Fatal(err)
		}
	}
	return hybridtier.MergeCellJSON(elements)
}

func TestWorkerShardsShareOneStreamAndStoreEachCellOnce(t *testing.T) {
	registrytest.WithWorkloads(t, registry.WorkloadEntry{
		Name: "group-zipf", Doc: "test: Zipf that counts its constructions",
		New: func(p registry.WorkloadParams) (trace.Source, error) {
			groupBuilds.Add(1)
			return trace.NewZipfSource("group-zipf", p.Pages, 1.0, 0.1, p.Seed), nil
		},
	})
	groupPages.CompareAndSwap(0, 2048)
	groupPages.Add(1)

	fsys := errfs.Inject(errfs.OS{})
	cache, err := jobs.NewCacheFS(64<<20, t.TempDir(), fsys)
	if err != nil {
		t.Fatal(err)
	}
	h := NewWorker(WorkerConfig{
		Self: "http://self", Coordinator: "http://coord",
		Cells: LocalCells(1), Cache: cache,
	}).Handler()
	const perPut = 1 // one entry file, one atomic rename

	three := groupSpec(t, hybridtier.PolicyHybridTier, hybridtier.PolicyMemtis, "LRU")
	want := singletonRun(t, three)
	groupBuilds.Store(0)
	if got := postShards(t, h, three); !bytes.Equal(got, want) {
		t.Error("six shards of a 12-cell sweep differ from singleton runs")
	}
	if n := groupBuilds.Swap(0); n != 1 {
		t.Errorf("six shards built the workload %d times, want 1", n)
	}
	if n := fsys.Count(errfs.OpRename); n != 12*perPut {
		t.Errorf("12 executed cells cost %d renames, want %d (one Put each)", n, 12*perPut)
	}

	four := groupSpec(t, hybridtier.PolicyHybridTier, hybridtier.PolicyMemtis, "LRU", "ARC")
	want = singletonRun(t, four)
	groupBuilds.Store(0)
	if got := postShards(t, h, four); !bytes.Equal(got, want) {
		t.Error("the widened sweep's shards differ from singleton runs")
	}
	if n := groupBuilds.Swap(0); n != 0 {
		t.Errorf("a second sweep over the same stream built the workload %d times, want 0", n)
	}
	if n := fsys.Count(errfs.OpRename); n != 16*perPut {
		t.Errorf("after 4 more executed cells the store saw %d renames, want %d (12 cells were cache hits)", n, 16*perPut)
	}

	// A worker assembled with only Run executes the same shards cell by
	// cell, to the same bytes.
	plain := NewWorker(WorkerConfig{
		Self: "http://self", Coordinator: "http://coord", Run: referenceRunner(1),
	}).Handler()
	if got := postShards(t, plain, four); !bytes.Equal(got, want) {
		t.Error("a Run-only worker's shards differ from singleton runs")
	}
}
