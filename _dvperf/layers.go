package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"dvsync/internal/scenarios"
	"dvsync/internal/sim"
	"dvsync/internal/workload"
)

// Where each layer metric should show up end to end.
const (
	onReplay  = "replay; diluted on census and serve"
	onFlight  = "replay, serve (dvserve always attaches a ring); not census"
	onTelem   = "serve (/metrics, /stream), replay"
	onCPU     = "replay"
	onDigest  = "census (hit-heavy censuses)"
	onFleet   = "census; serve (/fleet)"
	onServe   = "serve"
	onRecover = "recover"
	onTraced  = "the traced workload"
)

// perLayer lists the traced run's metrics in report order. BENCHMARK.json
// mirrors the name, unit and direction of each.
var perLayer = []metricDef{
	{"sim.run_us", "us", "lower", "frames_per_s, op_p50_ms", onReplay},
	{"sim.allocs_per_run", "count", "lower", "frames_per_s, op_p50_ms", onReplay},
	{"sim.bytes_per_run", "B", "lower", "frames_per_s, op_p50_ms", onReplay},
	{"flight.run_us", "us", "lower", "frames_per_s", onFlight},
	{"flight.tax_ratio", "ratio", "lower", "frames_per_s", onFlight},
	{"telemetry.run_us", "us", "lower", "op_p50_ms", onTelem},
	{"event.cpu_share", "ratio", "lower", "frames_per_s", onCPU},
	{"signal.cpu_share", "ratio", "lower", "frames_per_s", onCPU},
	{"display.cpu_share", "ratio", "lower", "frames_per_s", onCPU},
	{"buffer.cpu_share", "ratio", "lower", "frames_per_s", onCPU},
	{"pipeline.cpu_share", "ratio", "lower", "frames_per_s", onCPU},
	{"core.cpu_share", "ratio", "lower", "frames_per_s", onCPU},
	{"flight.cpu_share", "ratio", "lower", "frames_per_s", onCPU},
	{"telemetry.cpu_share", "ratio", "lower", "frames_per_s", onCPU},
	{"dist.cpu_share", "ratio", "lower", "frames_per_s", onCPU},
	{"sim.cpu_share", "ratio", "lower", "frames_per_s", onCPU},
	{"runtime.cpu_share", "ratio", "lower", "frames_per_s", onCPU},
	{"other.cpu_share", "ratio", "lower", "frames_per_s", onCPU},
	{"workload.generate_us", "us", "lower", "op_p50_ms, setup_s", onDigest},
	{"sim.digest_us", "us", "lower", "op_p50_ms, setup_s", onDigest},
	{"sim.new_runner_ms", "ms", "lower", "op_p50_ms, setup_s", onDigest},
	{"fleet.census_ms", "ms", "lower", "op_p50_ms, frames_per_s", onFleet},
	{"fleet.cohort_ms", "ms", "lower", "op_p50_ms, frames_per_s", onFleet},
	{"fleet.hit_ratio", "ratio", "higher", "op_p50_ms, frames_per_s", onFleet},
	{"fleet.simulated_cells", "count", "lower", "op_p50_ms, frames_per_s", onFleet},
	{"fleet.anomaly_ratio", "ratio", "lower", "op_p50_ms, frames_per_s", onFleet},
	{"dvserve.metrics_hot_ms", "ms", "lower", "op_p50_ms, op_p90_ms", onServe},
	{"dvserve.metrics_fresh_ms", "ms", "lower", "op_p50_ms, op_p90_ms", onServe},
	{"dvserve.stream_ms", "ms", "lower", "op_p50_ms, op_p90_ms", onServe},
	{"dvserve.stream_first_event_ms", "ms", "lower", "op_p50_ms, op_p90_ms", onServe},
	{"dvserve.stream_events", "count", "higher", "op_p50_ms, op_p90_ms", onServe},
	{"dvserve.fleet_ms", "ms", "lower", "op_p50_ms, op_p90_ms", onServe},
	{"dvserve.fleet_first_cohort_ms", "ms", "lower", "op_p50_ms, op_p90_ms", onServe},
	{"dvserve.anomalies_ms", "ms", "lower", "op_p50_ms, op_p90_ms", onServe},
	{"dvserve.body_bytes", "B", "lower", "op_p50_ms, op_p90_ms", onServe},
	{"sim.checkpointed_run_ms", "ms", "lower", "op_p50_ms", onRecover},
	{"checkpoint.encode_us", "us", "lower", "op_p50_ms", onRecover},
	{"checkpoint.decode_us", "us", "lower", "op_p50_ms", onRecover},
	{"checkpoint.bytes", "B", "lower", "op_p50_ms", onRecover},
	{"sim.resume_ms", "ms", "lower", "op_p50_ms", onRecover},
	{"flight.dump_decode_us", "us", "lower", "op_p50_ms", onRecover},
	{"obs.attribute_ms", "ms", "lower", "op_p50_ms", onRecover},
	{"obs.perfetto_ms", "ms", "lower", "op_p50_ms", onRecover},
	{"obs.validate_ms", "ms", "lower", "op_p50_ms", onRecover},
	{"obs.perfetto_bytes", "B", "lower", "op_p50_ms", onRecover},
	{"trace.overhead_p50_ms", "ms", "lower", "op_p50_ms (tracing cost, not a layer)", onTraced},
	{"trace.overhead_frames_per_s", "1/s", "higher", "frames_per_s (tracing cost, not a layer)", onTraced},
}

// countMetrics must repeat exactly for one seed; the traced run computes
// them twice and fails if they differ.
var countMetrics = []string{
	"sim.allocs_per_run", "fleet.hit_ratio", "fleet.simulated_cells", "checkpoint.bytes",
	"dvserve.stream_events", "dvserve.body_bytes", "obs.perfetto_bytes",
}

// spanMetrics maps span-timed metrics to their span. self selects the
// span's self time (children subtracted) over its full duration.
var spanMetrics = map[string]struct {
	span string
	self bool
}{
	"sim.run_us":                    {"sim.run", true},
	"flight.run_us":                 {"flight.run", true},
	"telemetry.run_us":              {"telemetry.run", true},
	"workload.generate_us":          {"workload.generate", true},
	"sim.digest_us":                 {"sim.digest", true},
	"sim.new_runner_ms":             {"sim.new_runner", true},
	"fleet.census_ms":               {"fleet.census", false},
	"fleet.cohort_ms":               {"fleet.cohort", false},
	"dvserve.metrics_hot_ms":        {"dvserve.metrics_hot", false},
	"dvserve.metrics_fresh_ms":      {"dvserve.metrics_fresh", false},
	"dvserve.stream_ms":             {"dvserve.stream", false},
	"dvserve.stream_first_event_ms": {"dvserve.stream_first_event", false},
	"dvserve.fleet_ms":              {"dvserve.fleet", false},
	"dvserve.fleet_first_cohort_ms": {"dvserve.fleet_first_cohort", false},
	"dvserve.anomalies_ms":          {"dvserve.anomalies", false},
	"sim.checkpointed_run_ms":       {"sim.checkpointed_run", true},
	"checkpoint.encode_us":          {"checkpoint.encode", true},
	"checkpoint.decode_us":          {"checkpoint.decode", true},
	"sim.resume_ms":                 {"sim.resume", true},
	"flight.dump_decode_us":         {"flight.dump_decode", true},
	"obs.attribute_ms":              {"obs.attribute", true},
	"obs.perfetto_ms":               {"obs.perfetto", true},
	"obs.validate_ms":               {"obs.validate", true},
}

// prefixOps is how many ops of each workload the exact counts cover.
var prefixOps = map[string]int{"replay": 0, "census": 12, "serve": 40, "recover": 8}

const probeRounds = 5

// tracedRun measures every layer: fixed-count probes of the sim, flight,
// telemetry and cell-construction layers (first, while no other goroutine
// allocates), then a traced pass of every workload. The named workload
// also runs an untraced stretch, and the difference is the tracing
// overhead. The exact counts are computed twice, on fresh set-ups, and
// must agree.
func tracedRun(def workloadDef, seed int64, d time.Duration, e *env, outDir string, stdout io.Writer) (*result, error) {
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
	}
	tr := newTracer()
	vals := map[string]float64{}
	res := &result{Correct: true, Metrics: map[string]metric{}}

	checked := map[string]bool{"sim.allocs_per_run": true}
	allocs, bytesPerRun, err := probeRunners(seed, tr)
	if err != nil {
		return nil, err
	}
	// The second allocation count: fresh Runners, the same shapes.
	allocs2, _, err := probeRunners(seed, nil)
	if err != nil {
		return nil, err
	}
	if allocs2 != allocs {
		fmt.Fprintf(os.Stderr, "dvperf: count sim.allocs_per_run is %v, then %v on the same seed\n", allocs, allocs2)
		res.Correct = false
	}
	vals["sim.allocs_per_run"], vals["sim.bytes_per_run"] = allocs, bytesPerRun
	probeCells(seed, tr)

	slice := d / time.Duration(len(workloads))
	for _, wdef := range workloads {
		wd := wdef.name
		w, err := wdef.setup(seed, e, nil)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", wd, err)
		}
		phases := []*phase{measure(w, 0, prefixOps[wd], tr, os.Stderr)}
		counts := w.counts()
		traced := measure(w, slice, 0, tr, os.Stderr)
		phases = append(phases, traced)
		if wd == "replay" {
			var prof bytes.Buffer
			if err := pprof.StartCPUProfile(&prof); err != nil {
				w.close()
				return nil, fmt.Errorf("cpu profile: %w", err)
			}
			phases = append(phases, measure(w, slice, 0, nil, os.Stderr))
			pprof.StopCPUProfile()
			shares, err := cpuShares(prof.Bytes(), outDir)
			if err != nil {
				w.close()
				return nil, fmt.Errorf("cpu profile: %w", err)
			}
			for k, v := range shares {
				vals[k+".cpu_share"] = v
			}
		}
		if wd == def.name {
			plain := measure(w, slice, 0, nil, os.Stderr)
			phases = append(phases, plain)
			vals["trace.overhead_p50_ms"] = median(traced.lat) - median(plain.lat)
			vals["trace.overhead_frames_per_s"] = traced.thr.rate() - plain.thr.rate()
		}
		w.close()
		for _, p := range phases {
			res.Attempted += p.attempted
			res.Failed += p.failed
		}
		if counts == nil {
			continue
		}
		// The second count run: a fresh set-up, the same prefix.
		w2, err := wdef.setup(seed, e, nil)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", wd, err)
		}
		again := measure(w2, 0, prefixOps[wd], nil, os.Stderr)
		counts2 := w2.counts()
		w2.close()
		res.Attempted += again.attempted
		res.Failed += again.failed
		for k, v := range counts {
			checked[k] = true
			if counts2[k] != v {
				fmt.Fprintf(os.Stderr, "dvperf: count %s is %v, then %v on the same seed\n", k, v, counts2[k])
				res.Correct = false
			}
			vals[k] = v
		}
	}

	for _, k := range countMetrics {
		if !checked[k] {
			return nil, fmt.Errorf("count metric %s was not computed twice", k)
		}
	}

	self, total := selfTimes(tr.spans), totalTimes(tr.spans)
	for name, sm := range spanMetrics {
		src := total
		if sm.self {
			src = self
		}
		var xs []float64
		for _, t := range src[sm.span] {
			xs = append(xs, float64(t))
		}
		vals[name] = median(xs) // ns; converted by unit below
	}
	vals["flight.tax_ratio"] = vals["flight.run_us"] / vals["sim.run_us"]

	if res.Failed > 0 {
		res.Correct = false
	}
	fmt.Fprintf(stdout, "# dvperf traced run: workload=%s seed=%d seconds=%v attempted=%d failed=%d spans=%d\n",
		def.name, seed, d.Seconds(), res.Attempted, res.Failed, len(tr.spans))
	for _, m := range perLayer {
		v, ok := vals[m.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s not measured", m.name)
		}
		n := ""
		if sm, ok := spanMetrics[m.name]; ok {
			v = fromNanos(v, m.unit)
			n = fmt.Sprintf("n=%d", len(total[sm.span]))
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("per-layer metric %s is %v", m.name, v)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		fmt.Fprintf(stdout, "# %-30s %14.6g %-5s %-8s moves %s on %s\n", m.name, v, m.unit, n, m.moves, m.on)
	}
	if outDir != "" {
		if err := writeSpans(filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.jsonl", def.name, seed)), tr.spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	return res, nil
}

func fromNanos(ns float64, unit string) float64 {
	switch unit {
	case "us":
		return ns / 1e3
	case "ms":
		return ns / 1e6
	}
	panic("dvperf: span metric with unit " + unit)
}

// probeShapes are the matched shapes of the runner probe: the replay
// corpus at four buffers, one trace each.
func probeShapes(seed int64) []replayShape {
	var out []replayShape
	for _, s := range replayShapeList(seed) {
		if s.base.Buffers == 4 {
			out = append(out, s)
		}
	}
	return out
}

// probeRunners times one reused run per shape bare, with a flight ring and
// with a telemetry registry, and counts the bare run's allocations. It
// runs before any other goroutine of the benchmark starts, so the
// process-wide allocation counters see only the probed runs.
func probeRunners(seed int64, tr *tracer) (allocs, bytesPerRun float64, err error) {
	var mallocs, total uint64
	shapes := 0
	for _, s := range probeShapes(seed) {
		t := s.traces[0]
		var rns [3]*sim.Runner
		for a := range rns {
			rns[a] = sim.NewRunner(attached(withTrace(s.base, t), a))
			rns[a].RunTrace(t)
			if r := rns[a].RunTrace(t); !r.Completed {
				return 0, 0, fmt.Errorf("runner probe: run did not complete")
			}
		}
		// As testing.AllocsPerRun does: one P, so no other goroutine
		// allocates inside the window, and whole allocations per run, so
		// a stray runtime allocation does not count as the program's.
		runtime.GC()
		prev := runtime.GOMAXPROCS(1)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for r := 0; r < probeRounds; r++ {
			rns[attachBare].RunTrace(t)
		}
		runtime.ReadMemStats(&m1)
		runtime.GOMAXPROCS(prev)
		mallocs += (m1.Mallocs - m0.Mallocs) / probeRounds
		total += m1.TotalAlloc - m0.TotalAlloc
		shapes++
		for r := 0; r < probeRounds; r++ {
			for a, name := range []string{"sim.run", "flight.run", "telemetry.run"} {
				sp := tr.begin(name)
				rns[a].RunTrace(t)
				tr.end(sp)
			}
		}
	}
	return float64(mallocs) / float64(shapes), float64(total) / float64(shapes*probeRounds), nil
}

// probeCells times the per-cell work a census does before it can look a
// cell up: trace generation, the config digest, and wiring a Runner.
func probeCells(seed int64, tr *tracer) {
	for r := 0; r < probeRounds; r++ {
		for i, c := range censusTemplates {
			dev := deviceByKey(c.Device)
			dev.RefreshHz = c.Hz[0]
			prof := cellProfile(c.Workload, dev)
			sp := tr.begin("workload.generate")
			t := prof.Generate(300, seed*100+int64(r*len(censusTemplates)+i))
			tr.end(sp)
			cfg := sim.Config{Mode: sim.ModeDVSync, Panel: dev.Panel(), Buffers: dev.Buffers, Trace: t}
			sp = tr.begin("sim.digest")
			sim.ConfigDigest(cfg)
			tr.end(sp)
			sp = tr.begin("sim.new_runner")
			sim.NewRunner(cfg)
			tr.end(sp)
		}
	}
}

func deviceByKey(key string) scenarios.Device {
	switch key {
	case "mate40":
		return scenarios.Mate40Pro
	case "mate60":
		return scenarios.Mate60Pro
	}
	return scenarios.Pixel5
}

// cellProfile mirrors the census engine's workload keys.
func cellProfile(key string, dev scenarios.Device) workload.Profile {
	switch key {
	case "scattered":
		return scenarios.BaseProfile("fleet-scattered", dev, scenarios.Scattered, workload.Deterministic)
	case "moderate":
		return scenarios.BaseProfile("fleet-moderate", dev, scenarios.Moderate, workload.Deterministic)
	case "heavy-tail":
		return scenarios.BaseProfile("fleet-heavy-tail", dev, scenarios.HeavyTail, workload.Deterministic)
	case "mixed":
		return scenarios.MixedRealWorldProfile()
	}
	return workload.DefaultProfile("fleet-default", dev.Period().Milliseconds())
}

// cpuLayers are the packages the CPU profile is bucketed into.
var cpuLayers = []string{"event", "signal", "display", "buffer", "pipeline", "core", "flight", "telemetry", "dist", "sim"}

// layerOf maps a function name to its cpu_share bucket: a dvsync layer,
// "runtime", or "" for anything else.
func layerOf(fn string) string {
	pkg := funcPackage(fn)
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	if l, ok := strings.CutPrefix(pkg, "dvsync/internal/"); ok {
		for _, c := range cpuLayers {
			if l == c {
				return l
			}
		}
		return "other"
	}
	return ""
}

// funcPackage returns the import path of a symbolized function name.
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold import paths of their own
	}
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// cpuShares buckets a CPU profile by the package of each sample's leaf
// frame. A leaf in a helper package outside dvsync and the runtime (heap,
// sort, rand) is charged to the nearest dvsync caller, whose work it is.
// The stacks come from `go tool pprof -traces`; the profile is written to
// dir (the system's temporary directory when dir is "") for it.
func cpuShares(prof []byte, dir string) (map[string]float64, error) {
	f, err := os.CreateTemp(dir, "cpu-*.pprof")
	if err != nil {
		return nil, err
	}
	defer os.Remove(f.Name())
	_, err = f.Write(prof)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "tool", "pprof", "-traces", f.Name())
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, stderr.Bytes())
	}
	return bucketTraces(out)
}

// bucketTraces sums the samples of `go tool pprof -traces` output by
// layer. Each stack is a block between separator lines: the first line
// holds the weight and the leaf function, each further line one caller.
func bucketTraces(out []byte) (map[string]float64, error) {
	weight := map[string]float64{}
	var sum float64
	inBlock, leaf := false, true
	var w float64
	bucket := ""
	flush := func() {
		if inBlock && w > 0 {
			if bucket == "" {
				bucket = "other"
			}
			weight[bucket] += w
			sum += w
		}
		w, bucket, leaf = 0, "", true
	}
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlock = true
			continue
		}
		fields := strings.Fields(line)
		if !inBlock || len(fields) == 0 {
			continue
		}
		fn := fields[0]
		if leaf {
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: bad stack line %q", line)
			}
			w, fn, leaf = d.Seconds(), fields[1], false
		}
		if bucket == "" {
			bucket = layerOf(fn)
		}
	}
	flush()
	if sum == 0 {
		return nil, fmt.Errorf("no samples")
	}
	out2 := map[string]float64{"runtime": 0, "other": 0}
	for _, c := range cpuLayers {
		out2[c] = 0
	}
	for k, v := range weight {
		out2[k] = v / sum
	}
	return out2, nil
}
