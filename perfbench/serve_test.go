package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestOpenLoopCountsLatencyFromDueTime(t *testing.T) {
	const stall = 100 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/stall":
			time.Sleep(stall)
		case "/fail":
			http.Error(w, "no", http.StatusInternalServerError)
		}
	}))
	defer srv.Close()

	const n, rate = 40, 200.0 // one request due every 5 ms
	targets := make([]target, n)
	for i := range targets {
		targets[i] = target{path: "/ok"}
	}
	targets[10].path = "/stall"
	targets[30].path = "/fail"
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer client.CloseIdleConnections()

	out := openLoop([]*http.Client{client}, srv.URL, targets, rate)

	if out.lat[10] < stall {
		t.Errorf("stalled request latency %v, want at least %v", out.lat[10], stall)
	}
	// Requests that fell due during the stall waited behind it on the one
	// connection; timing from the due time charges them that wait.
	for i := 11; i <= 14; i++ {
		due := time.Duration(i-10) * 5 * time.Millisecond
		if want := stall - due; out.lat[i] < want {
			t.Errorf("request %d latency %v, want at least %v (the stall still to run at its due time)", i, out.lat[i], want)
		}
	}
	if out.lat[30] >= 0 || out.failed != 1 {
		t.Errorf("500 reply: latency %v, failed %d; want a failure marker and 1 failure", out.lat[30], out.failed)
	}
	// Generator lateness is sampled only when the connection was idle at
	// the due time; the ~19 requests queued behind the stall were not.
	if len(out.late) > n-15 || len(out.late) < 10 {
		t.Errorf("%d lateness samples of %d requests, want between 10 and %d", len(out.late), n, n-15)
	}
	for _, l := range out.late {
		if l < 0 {
			t.Errorf("negative lateness %v", l)
		}
	}
}

func TestOpenLoopReportsAGrowingBacklog(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Millisecond) // capacity ~500 req/s on one connection
	}))
	defer srv.Close()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer client.CloseIdleConnections()

	targets := make([]target, 400)
	for i := range targets {
		targets[i] = target{path: "/"}
	}
	out := openLoop([]*http.Client{client}, srv.URL, targets, 2000) // four times capacity
	if r := out.rung(); r.growth <= 0 || r.meets(250) {
		t.Errorf("overloaded step: backlog growth %d, meets %t; want growth and a miss", r.growth, r.meets(250))
	}
}
