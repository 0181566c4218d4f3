package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"coolair/internal/trace/httpserve"
)

const (
	// fleetSites is the daemon's fleet size (-fleet world:8).
	fleetSites = 8
	// serveSpeed paces the simulation (simulated seconds per wall
	// second) so that the fleet's physics takes a steady minority share
	// of one core; serveDays keeps it running well past any run.
	serveSpeed = 5000
	serveDays  = 60
	// bootReps is how many cold boots an untraced run times; setup_s is
	// their median and the last boot serves the timed phase.
	bootReps = 3
	// nominalRate is the offered rate serve_p50_ms and serve_p99_ms are
	// measured at, in requests per second.
	nominalRate = 1500.0
	// limitMs is the p99 latency limit from due time (the loadtest's
	// scrape budget).
	limitMs = 250.0
	// requestTimeout bounds one request; a request still unsent this
	// long after it was due is counted as failed without being sent.
	requestTimeout = 2 * time.Second
	// rungMin is the shortest step of the rate search; a step also runs
	// long enough to hold 1100 requests, so its p99 is supported.
	rungMin = time.Second
	// warmup is traffic at the nominal rate sent after the boot and
	// before timing starts: the fleet catches up with its pace after the
	// training campaign and the daemon's caches fill.
	warmup = 3 * time.Second
	// readyTimeout bounds one cold boot.
	readyTimeout = 60 * time.Second
)

// Request classes: the loadtest's request population, grouped by the
// render path that serves them.
const (
	kindFleetMetrics = iota
	kindSiteMetrics
	kindSites
	kindQuery
	kindAlerts
	kindDashboard
	numKinds
)

var kindNames = [numKinds]string{"fleet_metrics", "site_metrics", "sites", "query", "alerts", "dashboard"}

// target is one request of the population.
type target struct {
	kind int
	path string
	gzip bool
}

// population lists the loadtest's request population per class for the
// given site ids: the fleet and per-site scrape pages, the site listing,
// fleet and per-site queries over raw and rollup windows, the alert feed
// and the dashboard page. Query-plane requests negotiate gzip, as a
// browser does; scrapes ask for identity, as the loadtest's scrapers do.
func population(sites []string) [numKinds][]target {
	var p [numKinds][]target
	p[kindFleetMetrics] = []target{{kindFleetMetrics, "/metrics", false}}
	p[kindSites] = []target{{kindSites, "/sites", false}}
	p[kindAlerts] = []target{{kindAlerts, "/api/alerts", true}}
	p[kindDashboard] = []target{{kindDashboard, "/dashboard", true}}
	for _, q := range []string{
		"/api/query?metric=inlet_max_celsius&from=now-1h&to=now",
		"/api/query?metric=cooling_watts&from=now-6h&to=now&step=60",
		"/api/query?metric=prediction_abs_error_celsius&from=now-24h&to=now&step=3600",
	} {
		p[kindQuery] = append(p[kindQuery], target{kindQuery, q, true})
	}
	for _, id := range sites {
		p[kindSiteMetrics] = append(p[kindSiteMetrics], target{kindSiteMetrics, "/sites/" + id + "/metrics", false})
		p[kindQuery] = append(p[kindQuery], target{kindQuery,
			"/sites/" + id + "/api/query?metric=inlet_max_celsius,outside_celsius&from=now-6h&to=now", true})
	}
	return p
}

// schedule draws n requests from the population: every class gets an
// equal share, so each class's p99 is supported at the nominal rate. The
// seed permutes the class order within each round of classes and the
// starting request within each class.
func schedule(pop [numKinds][]target, n int, rng *rand.Rand) []target {
	var cursor [numKinds]int
	for k := range cursor {
		cursor[k] = rng.Intn(len(pop[k]))
	}
	out := make([]target, 0, n)
	for len(out) < n {
		for _, k := range rng.Perm(numKinds) {
			if len(out) == n {
				break
			}
			out = append(out, pop[k][cursor[k]%len(pop[k])])
			cursor[k]++
		}
	}
	return out
}

// daemon is one running coolair-serve process.
type daemon struct {
	cmd    *exec.Cmd
	dir    string
	base   string
	exited chan struct{}
	err    error // cmd.Wait's result, valid once exited is closed
}

// bootDaemon execs coolair-serve on a fresh state directory and returns
// once /readyz answers 200, with the time from exec to that answer.
func bootDaemon(bin, workDir string) (*daemon, time.Duration, error) {
	dir, err := os.MkdirTemp(workDir, "fleet-")
	if err != nil {
		return nil, 0, err
	}
	addrFile := filepath.Join(dir, "addr")
	cmd := exec.Command(bin,
		"-fleet", fmt.Sprintf("world:%d", fleetSites),
		"-state-dir", filepath.Join(dir, "state"),
		"-fleet-workers", strconv.Itoa(runtime.NumCPU()),
		"-speed", strconv.Itoa(serveSpeed),
		"-days", strconv.Itoa(serveDays),
		// One checkpoint per site per wall second, the cadence the default
		// 900 simulated seconds gives at an hour per second.
		"-checkpoint-every", strconv.Itoa(serveSpeed),
		"-addr", "127.0.0.1:0",
		"-addr-file", addrFile,
		"-log-level", "error")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, 0, fmt.Errorf("exec coolair-serve: %w", err)
	}
	d := &daemon{cmd: cmd, dir: dir, exited: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.exited)
	}()
	client := &http.Client{Timeout: time.Second}
	for {
		select {
		case <-d.exited:
			d.stop()
			return nil, 0, fmt.Errorf("coolair-serve exited before ready: %v", d.err)
		default:
		}
		if time.Since(start) > readyTimeout {
			d.stop()
			return nil, 0, fmt.Errorf("coolair-serve not ready after %v", readyTimeout)
		}
		if d.base == "" {
			if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
				d.base = "http://" + strings.TrimSpace(string(b))
			}
		}
		if d.base != "" {
			if resp, err := client.Get(d.base + "/readyz"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, time.Since(start), nil
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop terminates the daemon (SIGTERM, then SIGKILL after ten seconds),
// waits for it to exit and removes its state directory.
func (d *daemon) stop() {
	select {
	case <-d.exited:
	default:
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.exited:
		case <-time.After(10 * time.Second):
			d.cmd.Process.Kill()
			<-d.exited
		}
	}
	os.RemoveAll(d.dir)
}

// procStat is a daemon's CPU time so far and its peak resident set.
func (d *daemon) procStat() (cpu time.Duration, hwmMiB float64, err error) {
	pid := d.cmd.Process.Pid
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks of 1/100 s.
	f := strings.Fields(string(raw[strings.LastIndexByte(string(raw), ')')+1:]))
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, 0, err
	}
	cpu = time.Duration(utime+stime) * 10 * time.Millisecond
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return cpu, kb / 1024, err
		}
	}
	return 0, 0, errors.New("no VmHWM in /proc status")
}

// sites fetches the daemon's /sites listing.
func (d *daemon) sites() (*httpserve.SiteList, error) {
	client := &http.Client{Timeout: requestTimeout}
	resp, err := client.Get(d.base + "/sites")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /sites: %s", resp.Status)
	}
	var list httpserve.SiteList
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return nil, fmt.Errorf("decode /sites: %w", err)
	}
	return &list, nil
}

// phaseOut is what one fixed-rate open-loop phase measured. lat[i] is
// request i's latency from its due time, or -1 if it failed.
type phaseOut struct {
	rate    float64
	targets []target
	lat     []time.Duration
	bytes   []int64
	// late holds, for every request whose connection was idle when it
	// fell due, how late the generator sent it.
	late   []time.Duration
	growth int // see rung.growth
	failed int
}

// openLoop sends the targets at a fixed rate, each due at start+i/rate
// whether or not earlier replies have arrived, over one keep-alive
// connection per client; a request is taken by whichever connection
// frees first, so a stall delays every request queued behind it and the
// delay is counted from the due time.
func openLoop(clients []*http.Client, base string, targets []target, rate float64) *phaseOut {
	n := len(targets)
	out := &phaseOut{rate: rate, targets: targets, lat: make([]time.Duration, n), bytes: make([]int64, n)}
	sent := make([]time.Time, n)
	lates := make([][]time.Duration, len(clients))
	start := time.Now().Add(5 * time.Millisecond)
	due := func(i int) time.Time { return start.Add(time.Duration(float64(i) / rate * float64(time.Second))) }
	var next atomic.Int64
	var wg sync.WaitGroup
	for c, client := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				d := due(i)
				if wait := time.Until(d); wait > 0 {
					time.Sleep(wait)
					lates[c] = append(lates[c], time.Since(d))
				}
				sent[i] = time.Now()
				if sent[i].Sub(d) > requestTimeout {
					out.lat[i] = -1 // hopelessly behind: missed without sending
					continue
				}
				size, ok := fetch(client, base+targets[i].path, targets[i].gzip)
				out.lat[i], out.bytes[i] = time.Since(d), size
				if !ok {
					out.lat[i] = -1
				}
			}
		}()
	}
	wg.Wait()
	mid, end := due(n/2), due(n)
	for i := range sent {
		if sent[i].After(end) {
			out.growth++
		}
		if i < n/2 && sent[i].After(mid) {
			out.growth--
		}
		if out.lat[i] < 0 {
			out.failed++
		}
	}
	for _, l := range lates {
		out.late = append(out.late, l...)
	}
	return out
}

// fetch GETs url and drains the body; ok means a 2xx reply read whole.
func fetch(client *http.Client, url string, gzip bool) (int64, bool) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, false
	}
	if gzip {
		req.Header.Set("Accept-Encoding", "gzip")
	} else {
		req.Header.Set("Accept-Encoding", "identity")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	return n, err == nil && resp.StatusCode >= 200 && resp.StatusCode < 300
}

// rung summarizes the phase for the rate search.
func (p *phaseOut) rung() rung {
	p99, ok := percentile(millis(p.lat), 0.99)
	return rung{rate: p.rate, p99ms: p99, ok99: ok, failed: p.failed, growth: p.growth}
}

// kindLatencies returns the millisecond latencies of one request class.
func (p *phaseOut) kindLatencies(kind int) []float64 {
	var ds []time.Duration
	for i, t := range p.targets {
		if t.kind == kind {
			ds = append(ds, p.lat[i])
		}
	}
	return millis(ds)
}

// meanBytes is the mean reply size of one request class.
func (p *phaseOut) meanBytes(kind int) float64 {
	var sum, n float64
	for i, t := range p.targets {
		if t.kind == kind && p.lat[i] >= 0 {
			sum += float64(p.bytes[i])
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// stream holds one SSE connection to a site's decision stream for the
// timed phase and counts what arrives.
type stream struct {
	events, drops atomic.Int64
	done          chan struct{}
	broken        atomic.Bool // the connection ended before it was stopped
}

// openStream connects to base+path with Last-Event-ID cursor; cancel
// ctx to stop it, then wait on done.
func openStream(ctx context.Context, base, path, cursor string) *stream {
	s := &stream{done: make(chan struct{})}
	go func() {
		defer close(s.done)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
		if err != nil {
			s.broken.Store(true)
			return
		}
		req.Header.Set("Last-Event-ID", cursor)
		resp, err := http.DefaultTransport.RoundTrip(req)
		if err != nil {
			s.broken.Store(ctx.Err() == nil)
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			s.broken.Store(true)
			return
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64*1024), 1024*1024)
		for sc.Scan() {
			if ev, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
				if ev == "dropped" {
					s.drops.Add(1)
				} else {
					s.events.Add(1)
				}
			}
		}
		s.broken.Store(ctx.Err() == nil)
	}()
	return s
}

// runServe is the fleet-serve workload. An untraced run times bootReps
// cold boots, then holds one SSE stream open while it offers the request
// population at the nominal rate for half the time and climbs the rate
// ladder for the rest. A traced run boots once and spends the whole time
// at the nominal rate, reporting per-class latency, the daemon's CPU and
// the simulation's pace.
func runServe(bin, workDir string, seed int64, seconds time.Duration, traced bool) (*result, error) {
	reps := bootReps
	if traced {
		reps = 1
	}
	var boots []float64
	var d *daemon
	for i := 0; i < reps; i++ {
		if d != nil {
			d.stop()
		}
		var took time.Duration
		var err error
		if d, took, err = bootDaemon(bin, workDir); err != nil {
			return nil, err
		}
		boots = append(boots, took.Seconds())
	}
	defer d.stop()

	before, err := d.sites()
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, s := range before.Sites {
		ids = append(ids, s.ID)
	}
	if len(ids) != fleetSites {
		return nil, fmt.Errorf("/sites lists %d sites, want %d", len(ids), fleetSites)
	}
	pop := population(ids)
	rng := rand.New(rand.NewSource(seed))

	conns := max(runtime.NumCPU()-1, 1) // the SSE stream takes the last connection
	clients := make([]*http.Client, conns)
	for i := range clients {
		clients[i] = &http.Client{Timeout: requestTimeout, Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}}
	}
	defer func() {
		for _, c := range clients {
			c.CloseIdleConnections()
		}
	}()

	openLoop(clients, d.base, schedule(pop, int(nominalRate*warmup.Seconds()), rng), nominalRate)
	ctx, cancel := context.WithCancel(context.Background())
	st := openStream(ctx, d.base, "/sites/"+ids[0]+"/stream", before.Sites[0].Cursor)
	cpu0, _, err := d.procStat()
	if err != nil {
		cancel()
		return nil, err
	}
	wall0 := time.Now()

	nominalFor := seconds / 2
	if traced {
		nominalFor = seconds
	}
	nominal := openLoop(clients, d.base, schedule(pop, int(nominalRate*nominalFor.Seconds()), rng), nominalRate)
	var maxRPS float64
	var found bool
	if !traced {
		deadline := wall0.Add(seconds)
		maxRPS, found = searchRate(2*nominalRate, limitMs, func(rate float64) (rung, bool) {
			dur := max(rungMin, time.Duration(1100/rate*float64(time.Second)))
			if time.Now().Add(dur).After(deadline) {
				return rung{}, false
			}
			r := openLoop(clients, d.base, schedule(pop, int(rate*dur.Seconds()), rng), rate).rung()
			fmt.Fprintf(os.Stderr, "fleet-serve: offered %.0f req/s for %v: p99 %.2f ms (supported %t), failed %d, backlog growth %d, meets %.0f ms limit: %t\n",
				r.rate, dur, r.p99ms, r.ok99, r.failed, r.growth, limitMs, r.meets(limitMs))
			return r, true
		})
	}
	wall := time.Since(wall0)
	cpu1, hwm, err := d.procStat()
	cancel()
	<-st.done
	if err != nil {
		return nil, err
	}
	after, err := d.sites()
	if err != nil {
		return nil, err
	}

	// Every nominal-rate request is an operation, and so are the SSE
	// stream and each site's progress; the rate search's steps past the
	// limit are expected to miss it and are not counted.
	var t tally
	for _, l := range nominal.lat {
		t.check(l >= 0 && l <= time.Duration(limitMs*float64(time.Millisecond)), "nominal-rate request missed the %.0f ms limit", limitMs)
	}
	t.check(!st.broken.Load() && st.drops.Load() == 0 && st.events.Load() > 0,
		"SSE stream: broken %t, %d drops, %d events", st.broken.Load(), st.drops.Load(), st.events.Load())
	for i, s := range after.Sites {
		t.check(s.SimTime > before.Sites[i].SimTime && s.Mode == "running",
			"site %s: mode %s, simulated time %.0f -> %.0f", s.ID, s.Mode, before.Sites[i].SimTime, s.SimTime)
	}

	lat := millis(nominal.lat)
	p99, windows := windowedP99(lat)
	p50, _ := percentile(lat, 0.50)
	fmt.Fprintf(os.Stderr, "fleet-serve: nominal %.0f req/s, %d requests: p50 %.3f ms, p99 %.3f ms (median of %d windows of 1000)\n",
		nominalRate, len(lat), p50, p99, windows)
	if !traced {
		if windows == 0 {
			return nil, fmt.Errorf("%d nominal-rate requests: too few for a p99", len(lat))
		}
		t.check(found, "no offered rate met the %.0f ms p99 limit", limitMs)
		if !found {
			maxRPS = nominalRate
		}
		fmt.Fprintf(os.Stderr, "fleet-serve: highest offered rate meeting the limit: %.0f req/s\n", maxRPS)
		return &result{
			Correct:   t.failed == 0,
			Attempted: t.attempted,
			Failed:    t.failed,
			Metrics: map[string]metric{
				"setup_s":       {median(boots), "s"},
				"max_rss_mb":    {hwm, "MiB"},
				"serve_p50_ms":  {p50, "ms"},
				"serve_p99_ms":  {p99, "ms"},
				"serve_max_rps": {maxRPS, "req/s"},
			},
		}, nil
	}

	m := map[string]metric{}
	for k, name := range kindNames {
		lat := nominal.kindLatencies(k)
		p50, _ := percentile(lat, 0.50)
		m["httpserve."+name+"_p50_ms"] = metric{p50, "ms"}
		if p99, ok := percentile(lat, 0.99); ok {
			m["httpserve."+name+"_p99_ms"] = metric{p99, "ms"}
		} else {
			fmt.Fprintf(os.Stderr, "fleet-serve: %d %s samples, too few for a p99\n", len(lat), name)
		}
	}
	m["httpserve.fleet_metrics_bytes"] = metric{nominal.meanBytes(kindFleetMetrics), "bytes"}
	m["httpserve.query_bytes"] = metric{nominal.meanBytes(kindQuery), "bytes"}
	m["httpserve.stream_events"] = metric{float64(st.events.Load()), "count"}
	m["httpserve.stream_drops"] = metric{float64(st.drops.Load()), "count"}
	cpu := (cpu1 - cpu0).Seconds()
	m["serve.daemon_cpu_s"] = metric{cpu, "s"}
	m["serve.cpu_us_per_req"] = metric{1e6 * cpu / float64(len(nominal.lat)), "us"}
	m["serve.sim_lag_s"] = metric{simLag(before, after, wall), "s"}
	late := millis(nominal.late)
	lateMs, ok := percentile(late, 0.99)
	if !ok {
		lateMs, _ = percentile(late, 1)
	}
	m["serve.generator_late_ms"] = metric{lateMs, "ms"}
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// simLag is how far, in wall seconds, the slowest site's simulated clock
// fell behind the pace over the phase.
func simLag(before, after *httpserve.SiteList, wall time.Duration) float64 {
	worst := 0.0
	for i, s := range after.Sites {
		advance := s.SimTime - before.Sites[i].SimTime
		if lag := wall.Seconds() - advance/serveSpeed; lag > worst {
			worst = lag
		}
	}
	return worst
}
