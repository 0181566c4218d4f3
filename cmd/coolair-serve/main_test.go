package main

import (
	"bufio"
	"context"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"testing"
	"time"

	"coolair/internal/trace"
)

// TestServeDaemonLifecycle drives the daemon in-process with the
// baseline system (no model training) at maximum clock speed: the
// health probe answers immediately, readiness flips to 200 once the
// first decision lands, /metrics renders the live registry, /stream
// delivers a decision record that round-trips through the JSONL
// decoder, and cancelling the context shuts everything down cleanly.
func TestServeDaemonLifecycle(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))

	cfg := serveConfig{
		addr: "127.0.0.1:0", location: "newark", system: "baseline",
		workloadName: "facebook", days: 1, startDay: 150,
	}
	addrCh := make(chan string, 1)
	runErr := make(chan error, 1)
	go func() { runErr <- run(ctx, cfg, logger, func(a string) { addrCh <- a }) }()

	var base string
	select {
	case a := <-addrCh:
		base = "http://" + a
	case err := <-runErr:
		t.Fatalf("run exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never started listening")
	}

	// Liveness is immediate.
	if code := getStatus(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", code)
	}

	// Readiness flips 503 → 200 once the first decision completes; poll
	// across the flip (at max speed it can happen arbitrarily fast, so a
	// 503 sighting is possible but not guaranteed).
	deadline := time.Now().Add(60 * time.Second)
	saw503 := false
	for {
		code := getStatus(t, base+"/readyz")
		if code == http.StatusOK {
			break
		}
		if code != http.StatusServiceUnavailable {
			t.Fatalf("readyz = %d, want 503 or 200", code)
		}
		saw503 = true
		if time.Now().After(deadline) {
			t.Fatal("readyz never flipped to 200")
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Logf("readiness observed 503 before 200: %v", saw503)

	// Metrics render the live registry.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"# TYPE decisions_total counter",
		"# TYPE inlet_max_celsius gauge",
		"# TYPE decision_phase_seconds histogram",
		"active_regime",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The stream replays the retained window; its first decision event
	// decodes through the archival JSONL codec.
	req, _ := http.NewRequest("GET", base+"/stream", nil)
	sresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	br := bufio.NewReader(sresp.Body)
	var data string
	for data == "" {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("stream ended early: %v", err)
		}
		if strings.HasPrefix(line, "data: ") {
			data = strings.TrimPrefix(strings.TrimRight(line, "\n"), "data: ")
		}
	}
	got, err := trace.ReadJSONL(strings.NewReader(data))
	if err != nil {
		t.Fatalf("stream payload does not decode: %v", err)
	}
	if len(got.Decisions) != 1 {
		t.Fatalf("first stream event decoded to %+v, want one decision", got)
	}
	sresp.Body.Close()

	// Graceful shutdown: cancelling the context (what SIGTERM does via
	// signal.NotifyContext) unwinds run without error.
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

// TestServeRejectsBadFlags: unknown locations/systems/workloads fail
// fast instead of serving an empty plane (or, for a workload, silently
// running the Facebook trace).
func TestServeRejectsBadFlags(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	if err := run(context.Background(), serveConfig{addr: "127.0.0.1:0", location: "atlantis", system: "baseline"}, logger, nil); err == nil {
		t.Fatal("unknown location accepted")
	}
	if err := run(context.Background(), serveConfig{addr: "127.0.0.1:0", location: "newark", system: "hal9000"}, logger, nil); err == nil {
		t.Fatal("unknown system accepted")
	}
	err := run(context.Background(), serveConfig{addr: "127.0.0.1:0", location: "newark", system: "baseline", workloadName: "hadoop"}, logger, nil)
	if err == nil || !strings.Contains(err.Error(), `unknown workload "hadoop"`) {
		t.Fatalf("unknown workload: err = %v, want an unknown-workload error", err)
	}
	// A bind failure surfaces synchronously too.
	if err := run(context.Background(), serveConfig{addr: "256.0.0.1:bad", location: "newark", system: "baseline", workloadName: "facebook"}, logger, nil); err == nil {
		t.Fatal("unusable address accepted")
	}
}

func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}
