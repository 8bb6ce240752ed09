package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dvsync/internal/fleet"
	"dvsync/internal/flight"
	"dvsync/internal/telemetry"
)

// Serve op kinds, and how many of each one deck of serveDeck ops holds.
const (
	opMetricsHot = iota
	opMetricsFresh
	opStream
	opFleet
	opAnomalies
)

var serveMix = []struct{ kind, n int }{
	{opMetricsHot, 6}, {opMetricsFresh, 6}, {opStream, 5}, {opFleet, 2}, {opAnomalies, 1},
}

var serveSpan = [...]string{
	opMetricsHot:   "dvserve.metrics_hot",
	opMetricsFresh: "dvserve.metrics_fresh",
	opStream:       "dvserve.stream",
	opFleet:        "dvserve.fleet",
	opAnomalies:    "dvserve.anomalies",
}

// serveShapes are the scenario shapes /metrics and /stream ask for; the
// seed query parameter tells hot keys from fresh ones.
var serveShapes = []string{
	"mode=dvsync&hz=60", "mode=vsync&hz=60", "mode=dvsync&hz=90",
	"mode=dvsync&hz=120", "mode=vsync&hz=120", "mode=dvsync&hz=60&buffers=5",
}

const serveWarmupDecks = 2

// serve drives a dvserve child over loopback HTTP with one closed-loop
// client: the next request goes out when the previous body has been read
// to its end.
type serve struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	seed   int64
	rng    *rand.Rand
	deck   []int
	fresh  int
	fleets int
	bodies map[string][32]byte // request → digest of its first body
	tally  struct{ ops, bytes, streams, streamEvents int }
}

func setupServe(seed int64, e *env, tr *tracer) (instance, error) {
	if e.dvserve == "" {
		return nil, fmt.Errorf("serve: no dvserve binary (-dvserve)")
	}
	client := &http.Client{Transport: &http.Transport{DisableCompression: true, MaxIdleConnsPerHost: 1}}
	cmd, base, err := startDvserve(e.dvserve, client)
	if err != nil {
		return nil, err
	}
	w := &serve{cmd: cmd, base: base, client: client, seed: seed,
		rng: rand.New(rand.NewSource(seed)), bodies: map[string][32]byte{}}
	// The stall cohort seeds the anomaly store, so /anomalies always has
	// a dump to fetch.
	if _, _, err := w.fleet(`{"seed":`+strconv.FormatInt(seed, 10)+`,"frames":240,"cohorts":[`+
		`{"device":"mate40","hz":[90],"modes":["dvsync"],"workload":"heavy-tail","fault":"stall","severity":0.8}]}`, nil); err != nil {
		w.close()
		return nil, fmt.Errorf("serve warm-up: %w", err)
	}
	for i := 0; i < serveWarmupDecks*serveDeckLen(); i++ {
		if _, _, err := w.op(tr); err != nil {
			w.close()
			return nil, fmt.Errorf("serve warm-up: %w", err)
		}
	}
	return w, nil
}

func serveDeckLen() int {
	n := 0
	for _, m := range serveMix {
		n += m.n
	}
	return n
}

// startDvserve starts dvserve on a kernel-chosen loopback port and waits
// until /healthz answers.
func startDvserve(bin string, client *http.Client) (*exec.Cmd, string, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, "", err
	}
	if err := cmd.Start(); err != nil {
		return nil, "", fmt.Errorf("start dvserve: %w", err)
	}
	stop := func() {
		cmd.Process.Kill()
		cmd.Wait()
	}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "dvserve listening on ")
	if err != nil || !ok {
		stop()
		return nil, "", fmt.Errorf("dvserve did not report its address (%q, %v)", line, err)
	}
	base := "http://" + addr
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return cmd, base, nil
			}
		}
		if time.Now().After(deadline) {
			stop()
			return nil, "", fmt.Errorf("dvserve /healthz did not answer: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (w *serve) op(tr *tracer) (int, time.Duration, error) {
	if len(w.deck) == 0 {
		for _, m := range serveMix {
			for i := 0; i < m.n; i++ {
				w.deck = append(w.deck, m.kind)
			}
		}
		w.rng.Shuffle(len(w.deck), func(i, j int) { w.deck[i], w.deck[j] = w.deck[j], w.deck[i] })
	}
	kind := w.deck[0]
	w.deck = w.deck[1:]
	sp := tr.begin(serveSpan[kind])
	defer tr.end(sp)
	switch kind {
	case opMetricsHot:
		j := w.rng.Intn(len(serveShapes))
		return w.metrics(fmt.Sprintf("%s&seed=%d", serveShapes[j], w.seed*10+int64(j)))
	case opMetricsFresh:
		w.fresh++
		j := w.fresh % len(serveShapes)
		return w.metrics(fmt.Sprintf("%s&seed=%d", serveShapes[j], 1_000_000+w.seed*100_000+int64(w.fresh)))
	case opStream:
		j := w.rng.Intn(len(serveShapes))
		return w.stream(fmt.Sprintf("%s&seed=%d", serveShapes[j], w.seed*10+int64(j)), tr)
	case opFleet:
		return w.fleet(w.fleetSpec(), tr)
	default:
		return w.anomalies()
	}
}

// fleetSpec draws a small census: mostly one of three recurring specs
// (cache hits after their first run), every fourth a fresh seed.
func (w *serve) fleetSpec() string {
	w.fleets++
	seed := w.seed*10 + int64(w.rng.Intn(3))
	if w.fleets%4 == 0 {
		seed = 1_000_000 + w.seed*100_000 + int64(w.fleets)
	}
	return fmt.Sprintf(`{"seed":%d,"frames":120,"cohorts":[`+
		`{"name":"a","device":"pixel5","hz":[60],"workload":"moderate"},`+
		`{"name":"b","device":"mate60","hz":[120],"modes":["dvsync"],"workload":"scattered","replicas":2}]}`, seed)
}

// same checks that a request's body is byte-identical to its first one.
func (w *serve) same(req string, sum [32]byte) error {
	if prev, ok := w.bodies[req]; ok && prev != sum {
		return fmt.Errorf("serve: %s body differs from its first scrape", req)
	}
	w.bodies[req] = sum
	return nil
}

func (w *serve) count(n int) {
	w.tally.ops++
	w.tally.bytes += n
}

func (w *serve) metrics(query string) (int, time.Duration, error) {
	t0 := time.Now()
	body, err := w.get("/metrics?" + query)
	took := time.Since(t0)
	if err != nil {
		return 0, took, err
	}
	w.count(len(body))
	if err := w.same("/metrics?"+query, sha256.Sum256(body)); err != nil {
		return 0, took, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, telemetry.MetricFramesPresented+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return 0, took, fmt.Errorf("serve: /metrics frames %q: %w", v, err)
			}
			return int(f), took, nil
		}
	}
	return 0, took, fmt.Errorf("serve: /metrics without %s", telemetry.MetricFramesPresented)
}

func (w *serve) get(path string) ([]byte, error) {
	resp, err := w.client.Get(w.base + path)
	if err != nil {
		return nil, fmt.Errorf("serve: GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("serve: GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("serve: GET %s: %s", path, resp.Status)
	}
	return body, nil
}

func (w *serve) stream(query string, tr *tracer) (int, time.Duration, error) {
	fe := tr.begin("dvserve.stream_first_event")
	t0 := time.Now()
	resp, err := w.client.Get(w.base + "/stream?" + query)
	if err != nil {
		tr.end(fe)
		return 0, time.Since(t0), fmt.Errorf("serve: /stream: %w", err)
	}
	sse, err := readSSE(resp.Body, tr, fe)
	resp.Body.Close()
	took := time.Since(t0)
	if err != nil {
		return 0, took, fmt.Errorf("serve: /stream: %w", err)
	}
	w.count(sse.bytes)
	w.tally.streams++
	w.tally.streamEvents += len(sse.events)
	if err := w.same("/stream?"+query, sse.sum); err != nil {
		return 0, took, err
	}
	// columns, sample…, snapshot, then only anomaly announcements.
	ev := sse.events
	if len(ev) < 3 || ev[0].name != "columns" || ev[1].name != "sample" {
		return 0, took, fmt.Errorf("serve: /stream opened with %v", sse.names())
	}
	i := 1
	for i < len(ev) && ev[i].name == "sample" {
		i++
	}
	if i == len(ev) || ev[i].name != "snapshot" {
		return 0, took, fmt.Errorf("serve: /stream has no terminal snapshot: %v", sse.names())
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal([]byte(ev[i].data), &snap); err != nil {
		return 0, took, fmt.Errorf("serve: /stream snapshot: %w", err)
	}
	for _, e := range ev[i+1:] {
		if e.name != "anomaly" {
			return 0, took, fmt.Errorf("serve: /stream event %q after its snapshot", e.name)
		}
	}
	frames, ok := metricValue(&snap, telemetry.MetricFramesPresented)
	if !ok {
		return 0, took, fmt.Errorf("serve: /stream snapshot without %s", telemetry.MetricFramesPresented)
	}
	return int(frames), took, nil
}

func (w *serve) fleet(spec string, tr *tracer) (int, time.Duration, error) {
	fe := tr.begin("dvserve.fleet_first_cohort")
	t0 := time.Now()
	resp, err := w.client.Post(w.base+"/fleet", "application/json", strings.NewReader(spec))
	if err != nil {
		tr.end(fe)
		return 0, time.Since(t0), fmt.Errorf("serve: /fleet: %w", err)
	}
	sse, err := readSSE(resp.Body, tr, fe)
	resp.Body.Close()
	took := time.Since(t0)
	if err != nil {
		return 0, took, fmt.Errorf("serve: /fleet: %w", err)
	}
	w.count(sse.bytes)
	ev := sse.events
	if resp.StatusCode != http.StatusOK || len(ev) < 2 || ev[0].name != "cohort" || ev[len(ev)-1].name != "fleet" {
		return 0, took, fmt.Errorf("serve: /fleet %s: events %v", resp.Status, sse.names())
	}
	for _, e := range ev[:len(ev)-1] {
		if e.name != "cohort" && e.name != "anomaly" {
			return 0, took, fmt.Errorf("serve: /fleet event %q before its terminal event", e.name)
		}
	}
	var res fleet.Result
	if err := json.Unmarshal([]byte(ev[len(ev)-1].data), &res); err != nil {
		return 0, took, fmt.Errorf("serve: /fleet result: %w", err)
	}
	if res.Cells == 0 || res.Simulated+res.CacheHits != res.Cells {
		return 0, took, fmt.Errorf("serve: /fleet simulated %d + hits %d != cells %d", res.Simulated, res.CacheHits, res.Cells)
	}
	return censusFrames(&res), took, nil
}

func (w *serve) anomalies() (int, time.Duration, error) {
	t0 := time.Now()
	body, err := w.get("/anomalies")
	if err != nil {
		return 0, time.Since(t0), err
	}
	var list struct {
		Anomalies []string `json:"anomalies"`
	}
	if err := json.Unmarshal(body, &list); err != nil || len(list.Anomalies) == 0 {
		return 0, time.Since(t0), fmt.Errorf("serve: /anomalies: %d ids, %v", len(list.Anomalies), err)
	}
	id := list.Anomalies[w.rng.Intn(len(list.Anomalies))]
	dump, err := w.get("/anomalies/" + id)
	took := time.Since(t0)
	if err != nil {
		return 0, took, err
	}
	w.count(len(body) + len(dump))
	if _, _, err := flight.DecodeDump(bytes.NewReader(dump), ""); err != nil {
		return 0, took, fmt.Errorf("serve: dump %s: %w", id, err)
	}
	return 0, took, nil
}

func (w *serve) counts() map[string]float64 {
	return map[string]float64{
		"dvserve.stream_events": float64(w.tally.streamEvents) / float64(w.tally.streams),
		"dvserve.body_bytes":    float64(w.tally.bytes) / float64(w.tally.ops),
	}
}

func (w *serve) pid() int { return w.cmd.Process.Pid }

func (w *serve) close() {
	w.client.CloseIdleConnections()
	w.cmd.Process.Kill()
	w.cmd.Wait()
}

// sseEvent is one server-sent event.
type sseEvent struct{ name, data string }

// sseBody is a server-sent-event body read to its end. Keep-alive
// comments are host-time artefacts: they are skipped, and bytes and sum
// cover every other line.
type sseBody struct {
	events []sseEvent
	bytes  int
	sum    [32]byte
}

func (b *sseBody) names() []string {
	out := make([]string, len(b.events))
	for i, e := range b.events {
		out[i] = e.name
	}
	return out
}

// readSSE reads an SSE body to EOF. The first event line closes span sp,
// which the caller opened when it sent the request.
func readSSE(r io.Reader, tr *tracer, sp int) (*sseBody, error) {
	br := bufio.NewReader(r)
	h := sha256.New()
	out := &sseBody{}
	var cur sseEvent
	for {
		line, err := br.ReadString('\n')
		if len(line) > 0 && !strings.HasPrefix(line, ":") {
			out.bytes += len(line)
			h.Write([]byte(line))
			switch {
			case strings.HasPrefix(line, "event: "):
				if sp >= 0 {
					tr.end(sp)
					sp = -1
				}
				cur.name = strings.TrimSpace(line[len("event: "):])
			case strings.HasPrefix(line, "data: "):
				cur.data = strings.TrimSuffix(line[len("data: "):], "\n")
			case line == "\n":
				if cur.name != "" {
					out.events = append(out.events, cur)
				}
				cur = sseEvent{}
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			if sp >= 0 {
				tr.end(sp)
			}
			return nil, err
		}
	}
	if sp >= 0 {
		tr.end(sp)
	}
	copy(out.sum[:], h.Sum(nil))
	return out, nil
}
