package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"coolair/internal/loadtest"
	"coolair/internal/trace/httpserve"
)

// getSites fetches and decodes the fleet's JSON listing.
func getSites(t *testing.T, base string) httpserve.SiteList {
	t.Helper()
	resp, err := http.Get(base + "/sites")
	if err != nil {
		t.Fatalf("GET /sites: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /sites = %d, want 200", resp.StatusCode)
	}
	var list httpserve.SiteList
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatalf("decode /sites: %v", err)
	}
	return list
}

// firstStreamID opens an SSE stream and returns the first event id's
// decision and tick cursors (replayed from the retained window or the
// first live event, whichever comes first).
func firstStreamID(t *testing.T, streamURL string) (dec, ticks uint64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, streamURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", streamURL, err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("stream %s ended before an event id: %v", streamURL, err)
		}
		id, ok := strings.CutPrefix(strings.TrimRight(line, "\n"), "id: ")
		if !ok {
			continue
		}
		ds, ts, ok := strings.Cut(id, "-")
		if !ok {
			t.Fatalf("malformed event id %q", id)
		}
		d, err1 := strconv.ParseUint(ds, 10, 64)
		tk, err2 := strconv.ParseUint(ts, 10, 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("malformed event id %q", id)
		}
		return d, tk
	}
}

// stopServe cancels the daemon context and requires a clean unwind.
func stopServe(t *testing.T, cancel context.CancelFunc, runErr chan error) {
	t.Helper()
	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run returned %v on shutdown", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not shut down after cancel")
	}
}

// TestFleetLifecycle boots a three-site fleet in-process and walks the
// whole surface: the /sites listing carries stable ids and seeds, every
// site serves its own metrics/readyz/stream plane under /sites/<id>/,
// the combined /metrics page aggregates and labels per-site series, and
// the fleet readiness probe flips once every site is ready.
func TestFleetLifecycle(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base, runErr := startServe(t, ctx, serveConfig{
		addr: "127.0.0.1:0", fleetSpec: "newark:baseline:2,chad:baseline",
		workloadName: "facebook", days: 1, startDay: 150,
	})

	// Liveness is immediate; fleet readiness needs every site's first
	// decision.
	if code := getStatus(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", code)
	}
	waitReady(t, base, 60*time.Second)

	list := getSites(t, base)
	if list.Total != 3 || list.Ready != 3 {
		t.Fatalf("sites total=%d ready=%d, want 3/3", list.Total, list.Ready)
	}
	wantIDs := []string{"newark-0", "newark-1", "chad-2"}
	for i, s := range list.Sites {
		if s.ID != wantIDs[i] {
			t.Errorf("site[%d].ID = %q, want %q", i, s.ID, wantIDs[i])
		}
		if s.Seed != int64(i) {
			t.Errorf("site %s seed = %d, want %d", s.ID, s.Seed, i)
		}
		if s.System != "Baseline" {
			t.Errorf("site %s system = %q, want Baseline", s.ID, s.System)
		}
		if !s.Ready {
			t.Errorf("site %s not ready after fleet readyz 200: %+v", s.ID, s)
		}
	}

	// Each site has its own plane with its own registry.
	for _, id := range wantIDs {
		plane := base + "/sites/" + id
		if code := getStatus(t, plane+"/readyz"); code != http.StatusOK {
			t.Errorf("%s/readyz = %d, want 200", id, code)
		}
		if got := metricValue(t, plane, "decisions_total"); got < 1 {
			t.Errorf("site %s decisions_total = %v, want >= 1", id, got)
		}
	}

	// The combined page: fleet gauges, summed counters, labeled series.
	if got := metricValue(t, base, "fleet_sites"); got != 3 {
		t.Errorf("fleet_sites = %v, want 3", got)
	}
	if got := metricValue(t, base, "fleet_sites_ready"); got != 3 {
		t.Errorf("fleet_sites_ready = %v, want 3", got)
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"fleet_decisions_total ",
		`decisions_total{site="newark-0"}`,
		`decisions_total{site="chad-2"}`,
		`serve_mode{site="newark-1"}`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("fleet /metrics missing %q", want)
		}
	}

	// Per-site SSE delivers events with parseable cursors.
	if dec, _ := firstStreamID(t, base+"/sites/chad-2/stream"); dec == 0 {
		t.Error("chad-2 stream produced event id with decision cursor 0")
	}

	// The fleet daemon does not claim the single-site stream URL: the
	// root surface is /sites, /metrics, probes, pprof — nothing else.
	if code := getStatus(t, base+"/stream"); code != http.StatusNotFound {
		t.Errorf("fleet-mode GET /stream = %d, want 404", code)
	}

	stopServe(t, cancel, runErr)
}

// TestSingleSiteLegacyPaths pins the PR-5 single-site URL surface: with
// no -fleet spec the daemon keeps serving /metrics, /stream, /readyz,
// and /healthz at the root, and grows no fleet endpoints. This is the
// regression guard for the MountSitePlane router seam.
func TestSingleSiteLegacyPaths(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base, runErr := startServe(t, ctx, serveConfig{
		addr: "127.0.0.1:0", location: "newark", system: "baseline",
		workloadName: "facebook", days: 1, startDay: 150,
	})
	waitReady(t, base, 60*time.Second)

	for path, want := range map[string]int{
		"/healthz":                http.StatusOK,
		"/readyz":                 http.StatusOK,
		"/metrics":                http.StatusOK,
		"/sites":                  http.StatusNotFound,
		"/sites/newark-0/metrics": http.StatusNotFound,
		"/sites/newark-0/stream":  http.StatusNotFound,
	} {
		if code := getStatus(t, base+path); code != want {
			t.Errorf("single-site GET %s = %d, want %d", path, code, want)
		}
	}
	if dec, _ := firstStreamID(t, base+"/stream"); dec == 0 {
		t.Error("legacy /stream produced event id with decision cursor 0")
	}
	stopServe(t, cancel, runErr)
}

// TestFleetBreakerIsolation is the blast-radius contract: a chaos panic
// armed on exactly one site crash-loops that site's supervisor — its
// breaker opens, its plane reports 503 — while every other site runs to
// completion and stays ready. Table-driven over the victim's position
// so neither the first nor the last slot is special.
func TestFleetBreakerIsolation(t *testing.T) {
	for _, victim := range []string{"newark-0", "newark-2"} {
		t.Run(victim, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			base, runErr := startServe(t, ctx, serveConfig{
				addr: "127.0.0.1:0", fleetSpec: "newark:baseline:3",
				workloadName: "facebook", days: 1, startDay: 150,
				maxRestarts: 2, restartBackoff: time.Millisecond,
				chaosPanicAfter: 1, chaosPanicCount: 1 << 20,
				chaosSite: victim,
			})

			// Wait for the victim's breaker to open and the survivors to
			// come up ready.
			deadline := time.Now().Add(90 * time.Second)
			for {
				list := getSites(t, base)
				tripped, othersReady := false, 0
				for _, s := range list.Sites {
					if s.ID == victim {
						tripped = s.Mode == "crash-loop"
					} else if s.Ready {
						othersReady++
					}
				}
				if tripped && othersReady == 2 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("breaker/ready state never settled: %+v", list.Sites)
				}
				time.Sleep(10 * time.Millisecond)
			}

			// The victim's own plane owns the failure...
			if got := metricValue(t, base+"/sites/"+victim, "serve_mode"); got != 4 {
				t.Errorf("victim serve_mode = %v, want 4 (crash-loop)", got)
			}
			if code := getStatus(t, base+"/sites/"+victim+"/readyz"); code != http.StatusServiceUnavailable {
				t.Errorf("victim readyz = %d, want 503", code)
			}
			// ...the survivors' planes never see it...
			for _, s := range getSites(t, base).Sites {
				if s.ID == victim {
					continue
				}
				if code := getStatus(t, base+"/sites/"+s.ID+"/readyz"); code != http.StatusOK {
					t.Errorf("survivor %s readyz = %d, want 200", s.ID, code)
				}
				if s.Restarts != 0 {
					t.Errorf("survivor %s restarts = %d, want 0", s.ID, s.Restarts)
				}
			}
			// ...and the fleet probe reports the census honestly.
			resp, err := http.Get(base + "/readyz")
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "2/3 sites ready") {
				t.Errorf("fleet readyz = %d %q, want 503 with 2/3 census", resp.StatusCode, body)
			}

			stopServe(t, cancel, runErr)
		})
	}
}

// fleetDigests runs cfg's fleet to completion and returns each site's
// sha256 over its full retained decision and tick streams.
func fleetDigests(t *testing.T, cfg serveConfig) map[string]string {
	t.Helper()
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	f, err := newFleet(cfg, logger)
	if err != nil {
		t.Fatal(err)
	}
	f.run(context.Background())
	out := make(map[string]string, len(f.sites))
	for _, s := range f.sites {
		if mode := serveMode(s.sup.mode.Load()); mode != modeComplete {
			t.Fatalf("site %s finished in mode %s, want complete", s.spec.ID, mode)
		}
		h := sha256.New()
		enc := json.NewEncoder(h)
		if err := enc.Encode(s.ring.Decisions()); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(s.ring.Ticks()); err != nil {
			t.Fatal(err)
		}
		out[s.spec.ID] = hex.EncodeToString(h.Sum(nil))
	}
	return out
}

// TestFleetShardDeterminism is the metamorphic sharding contract: the
// worker-pool size decides only how many sites compute concurrently,
// never what any site computes. The same fleet run at pool sizes 1, 4,
// and NumCPU must produce byte-identical per-site decision and tick
// streams — with the fault injector and guard armed, so the digests
// cover the full per-site state, not just a quiet baseline day.
func TestFleetShardDeterminism(t *testing.T) {
	cfg := serveConfig{
		fleetSpec:    "newark:baseline,chad:baseline,santiago:baseline",
		workloadName: "facebook", days: 1, startDay: 150,
		guard: true, faultSeed: 7,
	}

	var golden map[string]string
	for _, workers := range []int{1, 4, runtime.NumCPU()} {
		cfg.fleetWorkers = workers
		got := fleetDigests(t, cfg)
		if golden == nil {
			golden = got
			// Different climates must yield different streams — a sanity
			// check that the digest actually covers the site's run.
			if golden["newark-0"] == golden["chad-1"] {
				t.Fatal("newark and chad digests identical: digest is not covering the run")
			}
			continue
		}
		for id, want := range golden {
			if got[id] != want {
				t.Errorf("site %s digest diverged at pool size %d: %s != %s",
					id, workers, got[id][:12], want[:12])
			}
		}
	}
}

// TestFleetLoadtestReducedScale drives the internal/loadtest harness
// against an in-process fleet at CI scale: a handful of scrapers and
// streamers over a paced two-site fleet, with the full acceptance
// checks (cursor monotonicity, stall detection, error rate) armed.
// `make loadtest` runs the same harness at the 64-site / 2000-client
// acceptance profile via cmd/coolair-loadtest.
func TestFleetLoadtestReducedScale(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base, runErr := startServe(t, ctx, serveConfig{
		addr: "127.0.0.1:0", fleetSpec: "newark:baseline:2",
		workloadName: "facebook", days: 2, startDay: 150,
		speed: 7200, // paced so sim time visibly advances during the phase
	})
	waitReady(t, base, 60*time.Second)

	rep, err := loadtest.Run(ctx, loadtest.Config{
		BaseURL:        base,
		Scrapers:       6,
		Streamers:      4,
		Duration:       1200 * time.Millisecond,
		ScrapeInterval: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("reduced-scale phase: scrapes=%d p99=%v events=%d reconnects=%d",
		rep.Scrapes, rep.P99, rep.Events, rep.Reconnects)
	if rep.Sites != 2 {
		t.Fatalf("harness saw %d sites, want 2", rep.Sites)
	}
	if err := loadtest.Assert(rep, 5*time.Second, 0.05); err != nil {
		t.Fatalf("reduced-scale load phase failed acceptance: %v", err)
	}
	for _, id := range []string{"newark-0", "newark-1"} {
		if rep.SiteCursor[id] == 0 {
			t.Errorf("no SSE cursor high-water mark for %s: %v", id, rep.SiteCursor)
		}
	}
	stopServe(t, cancel, runErr)
}
