package service

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/fabric"
)

func TestServiceMountsFabricAndReportsFleet(t *testing.T) {
	srv, _, d := newTestServer(t, DaemonConfig{})

	// Registration travels through the daemon's real mux to the mounted
	// fabric handler.
	resp, err := http.Post(srv.URL+"/fabric/register", "application/json",
		strings.NewReader(`{"url":"http://w0:1"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register via service mux: status %d", resp.StatusCode)
	}

	// /healthz now carries the fleet section with the registered worker.
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Fleet fabric.FleetStatus `json:"fleet"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Fleet.Live != 1 || len(health.Fleet.Workers) != 1 || health.Fleet.Workers[0].URL != "http://w0:1" {
		t.Errorf("healthz fleet = %+v, want one live worker http://w0:1", health.Fleet)
	}

	// The coordinator's cache probe endpoint answers through the mount
	// too — from LOCAL tiers, pinned by the shared serveLocalResult path.
	// A worker's remote tier is the client of that endpoint.
	hash := strings.Repeat("a", 64)
	if err := d.cache.Put(hash, []byte(`{"x":1}`), nil); err != nil {
		t.Fatal(err)
	}
	wk := fabric.NewWorker(fabric.WorkerConfig{
		Self: "http://w0:1", Coordinator: srv.URL, Cells: fabric.LocalCells(1),
	})
	data, ok := wk.ProbeCoordinator(hash)
	if !ok || string(data) != `{"x":1}` {
		t.Errorf("probe via service mux = %q, %v; want cached bytes", data, ok)
	}
}

// TestWorkerDaemonNeedsJoinAndAdvertise: a worker-mode config that lacks
// the coordinator or its own URL is a construction error, not a panic
// inside the fabric, and builds nothing.
func TestWorkerDaemonNeedsJoinAndAdvertise(t *testing.T) {
	for name, cfg := range map[string]DaemonConfig{
		"worker alone":        {Worker: true},
		"worker without join": {Worker: true, Advertise: "http://127.0.0.1:1"},
		"join without self":   {Join: "http://127.0.0.1:1"},
	} {
		cfg.CacheMB, cfg.CorpusDir = 1, t.TempDir()
		d, err := NewDaemon(cfg)
		if err == nil {
			d.Close()
			t.Errorf("%s: NewDaemon succeeded, want an error", name)
		} else if !strings.Contains(err.Error(), "Join and Advertise") {
			t.Errorf("%s: error %q does not name Join and Advertise", name, err)
		}
	}
}
