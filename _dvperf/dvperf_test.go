package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"dvsync/internal/fleet"
	"dvsync/internal/scenarios"
	"dvsync/internal/sim"
	"dvsync/internal/telemetry"
	"dvsync/internal/workload"
)

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median %v, want 2", got)
	}
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("even median %v, want 2.5", got)
	}
	if xs[0] != 4 {
		t.Error("median reordered its input")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	p90, err := percentile(xs, 0.9)
	if err != nil || p90 != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90 with 10 beyond", p90, err)
	}
	if _, err := percentile(xs[:99], 0.9); err == nil {
		t.Error("p90 of 99 samples has 9 beyond it and must be refused")
	}
	if _, err := percentile(xs, 1); err == nil {
		t.Error("q = 1 must be refused")
	}
}

func TestBatchesReportMedianBatch(t *testing.T) {
	var b batches
	for _, r := range []struct {
		frames int
		took   time.Duration
	}{{100, time.Second}, {300, time.Second}, {1000, 100 * time.Millisecond}} {
		b.add(r.frames, r.took)
		b.cut()
	}
	b.cut() // an empty batch is dropped
	if len(b.rates) != 3 {
		t.Fatalf("%d batches, want 3", len(b.rates))
	}
	// Rates 100, 300, 10000 frames/s: the outlier batch does not move
	// the median.
	if got := b.rate(); got != 300 {
		t.Errorf("rate %v, want the median batch 300", got)
	}
}

func TestParseVmHWM(t *testing.T) {
	got, err := parseVmHWM(strings.NewReader("Name:\tx\nVmPeak:\t  9999 kB\nVmHWM:\t    2048 kB\nVmRSS:\t1 kB\n"))
	if err != nil || got != 2 {
		t.Errorf("VmHWM 2048 kB read as %v MiB, %v", got, err)
	}
	if _, err := parseVmHWM(strings.NewReader("VmRSS:\t1 kB\n")); err == nil {
		t.Error("a status without VmHWM must be an error")
	}
	if _, err := parseVmHWM(strings.NewReader("VmHWM:\t12 MB\n")); err == nil {
		t.Error("a VmHWM in another unit must be an error")
	}
	if mib, err := peakRSSMiB(os.Getpid()); err != nil || mib <= 0 {
		t.Errorf("own peak RSS %v MiB, %v", mib, err)
	}
}

func testRun(t *testing.T, seed int64) *sim.Result {
	t.Helper()
	prof := scenarios.BaseProfile("t", scenarios.Pixel5, scenarios.HeavyTail, workload.Deterministic)
	res, err := sim.TryRun(sim.Config{Mode: sim.ModeDVSync, Panel: scenarios.Pixel5.Panel(), Buffers: 4,
		Trace: prof.Generate(200, seed)})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestResultDigest(t *testing.T) {
	a, b := testRun(t, 1), testRun(t, 1)
	if resultDigest(a) != resultDigest(b) {
		t.Fatal("two runs of one config digest differently")
	}
	if resultDigest(a) == resultDigest(testRun(t, 2)) {
		t.Error("runs of different traces share a digest")
	}
	before := resultDigest(a)
	a.LatencyMs[len(a.LatencyMs)-1] += 1e-9
	if resultDigest(a) == before {
		t.Error("a changed latency does not change the digest")
	}
}

func TestCohortDigestIgnoresCacheAccounting(t *testing.T) {
	mk := func(sim, hits int, fdps float64) *fleet.CohortResult {
		return &fleet.CohortResult{Name: "c", Cells: 4, Simulated: sim, CacheHits: hits, MeanFDPS: fdps,
			Metrics: &telemetry.Snapshot{Metrics: []telemetry.MetricSnapshot{
				{Name: "fleet_cache_hits_total", Kind: "counter", Value: float64(hits)},
				{Name: "fleet_cells_simulated_total", Kind: "counter", Value: float64(sim)},
				{Name: "fleet_janks_total", Kind: "counter", Value: 7},
			}}}
	}
	fresh, err1 := cohortDigest(mk(4, 0, 1.5))
	cached, err2 := cohortDigest(mk(0, 4, 1.5))
	other, err3 := cohortDigest(mk(0, 4, 1.25))
	if err1 != nil || err2 != nil || err3 != nil {
		t.Fatal(err1, err2, err3)
	}
	if fresh != cached {
		t.Error("cache accounting changes the cohort digest")
	}
	if cached == other {
		t.Error("a changed aggregate does not change the cohort digest")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 50, End: 90, Parent: 0},
		{Name: "c", Start: 55, End: 65, Parent: 2},
	}
	self := selfTimes(spans)
	for name, want := range map[string]time.Duration{"op": 30, "a": 30, "b": 30, "c": 10} {
		if got := self[name]; len(got) != 1 || got[0] != want {
			t.Errorf("self time of %s = %v, want %v", name, got, want)
		}
	}
	if got := totalTimes(spans)["op"]; got[0] != 100 {
		t.Errorf("total time of op = %v, want 100", got)
	}
}

func TestTracerNestsAndDrops(t *testing.T) {
	var off *tracer
	off.end(off.begin("x")) // the untraced run: no-ops
	tr := newTracer()
	tr.setOp(3)
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	tr.end(inner)
	gone := tr.begin("gone")
	tr.drop(gone)
	tr.end(outer)
	if len(tr.spans) != 2 || tr.spans[1].Parent != outer || tr.spans[0].Op != 3 || len(tr.open) != 0 {
		t.Errorf("spans %+v, open %v", tr.spans, tr.open)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"dvsync/internal/event.(*Engine).Run":    "event",
		"dvsync/internal/sim.(*System).onEdge":   "sim",
		"dvsync/internal/workload.(*Profile).Gn": "other",
		"runtime.mapassign_fast64":               "runtime",
		"internal/runtime/maps.(*Map).Get":       "runtime",
		"container/heap.Fix":                     "",
		"main.main":                              "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestCPUSharesOfARealProfile(t *testing.T) {
	shapes := probeShapes(1)
	rn := sim.NewRunner(withTrace(shapes[0].base, shapes[0].traces[0]))
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		rn.RunTrace(shapes[0].traces[0])
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(buf.Bytes(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
	for _, l := range append(cpuLayers, "runtime", "other") {
		if _, ok := shares[l]; !ok {
			t.Errorf("no %s share", l)
		}
	}
	if shares["event"] == 0 {
		t.Errorf("a replay profile with no event-engine samples: %v", shares)
	}
}

func TestBucketTraces(t *testing.T) {
	out := `File: dvperf
Type: cpu
-----------+-------------------------------------------------------
      30ms   dvsync/internal/event.(*Engine).Run
             dvsync/internal/sim.(*Runner).RunTrace
-----------+-------------------------------------------------------
      10ms   container/heap.Fix
             dvsync/internal/pipeline.(*Queue).Push (inline)
             dvsync/internal/sim.(*Runner).RunTrace
-----------+-------------------------------------------------------
      50ms   runtime.mallocgc
             dvsync/internal/sim.(*Runner).RunTrace
-----------+-------------------------------------------------------
      10ms   main.main
-----------+-------------------------------------------------------
`
	shares, err := bucketTraces([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	for layer, want := range map[string]float64{"event": 0.3, "pipeline": 0.1, "runtime": 0.5, "other": 0.1, "sim": 0} {
		if math.Abs(shares[layer]-want) > 1e-9 {
			t.Errorf("%s share %v, want %v", layer, shares[layer], want)
		}
	}
	if _, err := bucketTraces([]byte("File: x\n")); err == nil {
		t.Error("output without stacks must be refused")
	}
}

// TestBenchmarkFileMatchesTables keeps BENCHMARK.json and the metric
// tables the program reports from in step.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, dvperf %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if e := bf.EndToEnd[i]; e.Name != m.name || e.Unit != m.unit || e.Better != m.better || e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v, dvperf %+v", i, e, m)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, dvperf %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if e := bf.PerLayer[i]; e.Name != m.name || e.Unit != m.unit || e.Better != m.better {
			t.Errorf("per_layer[%d] = %+v, dvperf %+v", i, e, m)
		}
	}
}

func TestCompareMetricsAppliesBounds(t *testing.T) {
	var bf benchmarkFile
	if err := json.Unmarshal([]byte(`{"end_to_end":[{"name":"op_p50_ms","unit":"ms","better":"lower","bound":0.1}]}`), &bf); err != nil {
		t.Fatal(err)
	}
	res := func(v float64) *result {
		return &result{Correct: true, Metrics: map[string]metric{"op_p50_ms": {Value: v, Unit: "ms"}}}
	}
	var out bytes.Buffer
	if code := compareMetrics(&bf, res(10), res(10.9), &out); code != 0 {
		t.Errorf("9%% apart under a 10%% bound failed:\n%s", out.String())
	}
	if code := compareMetrics(&bf, res(10), res(8.5), &out); code != 1 {
		t.Errorf("15%% apart under a 10%% bound passed:\n%s", out.String())
	}
}

// TestSmoke runs every workload for a few ops and fails on any failed op.
func TestSmoke(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "dvserve")
	build := exec.Command("go", "build", "-o", bin, "./cmd/dvserve")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build dvserve: %v\n%s", err, out)
	}
	e := &env{dvserve: bin, workers: 2}
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			w, err := def.setup(1, e, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer w.close()
			p := measure(w, 0, 5, newTracer(), os.Stderr)
			if p.attempted != 5 || p.failed != 0 {
				t.Errorf("%d of %d ops failed", p.failed, p.attempted)
			}
			if mib, err := peakRSSMiB(w.pid()); err != nil || mib <= 0 {
				t.Errorf("peak RSS %v, %v", mib, err)
			}
		})
	}
}
