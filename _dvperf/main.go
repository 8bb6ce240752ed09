// Command dvperf is the repository's host-time benchmark. It drives each
// layer of dvsync through its public functions on one of four seeded
// workloads and prints the end-to-end metrics, or, with -trace 1, the
// per-layer metrics of a traced run.
//
// Usage (from the repository root; run.sh builds dvperf and dvserve first):
//
//	bash _dvperf/run.sh --workload census --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}.
// The lines before it are a readable report with sample counts and, for a
// traced run, the end-to-end metric and workload each layer metric maps to.
//
// Workloads:
//
//	replay   one goroutine replays a seeded trace corpus through pooled
//	         sim.Runners; op = one RunTrace
//	census   one long-lived fleet.Engine runs a seeded spec stream at par
//	         workers = nproc; op = one Census
//	serve    a dvserve child with one closed-loop client; op = one request
//	recover  op = one incident: checkpointed run, decode, resume, dump
//	         decode, attribution and a validated Perfetto export
//
// BENCHMARK.json lists census and recover, with why each was chosen. Host
// speed on a shared 2-vCPU VM drifts by up to 2x over minutes, fewer
// workloads leave fewer ten-seed sets exposed to that, and of the four
// these two went over their bounds least often. replay and serve run the
// same way, and every traced run measures all four, so each layer keeps
// its metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// instance is one set-up workload: its seeded inputs and the op that
// drives them.
type instance interface {
	// op runs the next op of the seeded stream and returns the frames its
	// output carries and the host time of the user-visible call. The op
	// checks its own output; an error marks it failed.
	op(tr *tracer) (frames int, took time.Duration, err error)
	// counts reports the workload's exact count metrics so far.
	counts() map[string]float64
	// pid is the process doing the work, for peak RSS.
	pid() int
	close()
}

// rssNoter is an instance that can say what its peak RSS holds.
type rssNoter interface{ rssNote() string }

// env is what set-up may need from outside the workload's inputs.
type env struct {
	dvserve string // built dvserve binary
	workers int    // par workers for the census engine
}

type workloadDef struct {
	name  string
	setup func(seed int64, e *env, tr *tracer) (instance, error)
}

var workloads = []workloadDef{
	{"replay", setupReplay},
	{"census", setupCensus},
	{"serve", setupServe},
	{"recover", setupRecover},
}

var selfPID = os.Getpid()

const (
	// Set-ups run before and again after the timed phase, at least
	// setupRuns times and for at least setupTime on each side, so a quick
	// set-up is timed often enough for its median to hold still.
	setupRuns = 2
	setupTime = 2 * time.Second
	nBatches  = 20 // throughput batches per timed phase
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dvperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: replay, census, serve or recover")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measured host seconds")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	dvserve := fs.String("dvserve", "", "path to a built dvserve binary")
	out := fs.String("out", "", "directory for the traced run's span file")
	compare := fs.String("compare", "", "BENCHMARK.json: compare the result files given as arguments against its bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare != "" {
		return compareResults(*compare, fs.Args(), stdout, stderr)
	}
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "dvperf: want -workload replay|census|serve|recover, -seconds > 0, -trace 0|1\n")
		return 2
	}
	e := &env{dvserve: *dvserve, workers: runtime.NumCPU()}
	d := time.Duration(*seconds * float64(time.Second))
	var res *result
	var err error
	if *trace == 1 {
		res, err = tracedRun(*def, *seed, d, e, *out, stdout)
	} else {
		res, err = endToEndRun(*def, *seed, d, e, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "dvperf:", err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "dvperf:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef describes one reported metric. For layer metrics, moves and
// on say which end-to-end metric the layer should move, on which workload.
type metricDef struct {
	name, unit, better string
	moves, on          string
}

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "peak_rss_mb", unit: "MiB", better: "lower"},
	{name: "frames_per_s", unit: "1/s", better: "higher"},
	{name: "op_p50_ms", unit: "ms", better: "lower"},
	{name: "op_p90_ms", unit: "ms", better: "lower"},
}

// phase is one timed stretch of ops.
type phase struct {
	lat       []float64 // ms, completed ops only
	thr       batches
	attempted int
	failed    int
}

// measure runs ops for at least d and at least minOps ops. Failed ops
// count as attempted and failed, and add no latency sample.
func measure(w instance, d time.Duration, minOps int, tr *tracer, stderr io.Writer) *phase {
	p := &phase{}
	start := time.Now()
	next := 1 // next batch boundary, in units of d/nBatches
	for time.Since(start) < d || p.attempted < minOps {
		tr.setOp(p.attempted)
		frames, took, err := w.op(tr)
		p.attempted++
		if err != nil {
			if p.failed < 5 {
				fmt.Fprintln(stderr, "dvperf: failed op:", err)
			}
			p.failed++
			continue
		}
		p.lat = append(p.lat, ms(took))
		p.thr.add(frames, took)
		if el := time.Since(start); d > 0 && el >= time.Duration(next)*d/nBatches {
			p.thr.cut()
			for el >= time.Duration(next)*d/nBatches {
				next++
			}
		}
	}
	p.thr.cut()
	return p
}

// latency returns the phase's op p50 and p90 in ms.
func (p *phase) latency() (p50, p90 float64, err error) {
	if len(p.lat) == 0 {
		return 0, 0, fmt.Errorf("no completed ops")
	}
	p90, err = percentile(p.lat, 0.9)
	return median(p.lat), p90, err
}

// setUp sets the workload up at least setupRuns times and until the
// set-ups have taken setupTime, timing each, and keeps the last instance.
func setUp(def workloadDef, seed int64, e *env, times *[]float64) (instance, error) {
	var w instance
	var spent time.Duration
	for i := 0; i < setupRuns || spent < setupTime; i++ {
		if w != nil {
			w.close()
			w = nil
			// Drop the previous instance before timing the next, so
			// neither set-up time nor peak RSS depends on when the
			// collector last ran.
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		var err error
		w, err = def.setup(seed, e, nil)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", def.name, err)
		}
		took := time.Since(t0)
		spent += took
		*times = append(*times, took.Seconds())
	}
	return w, nil
}

// endToEndRun is the untraced run: set-up, then the timed phase.
func endToEndRun(def workloadDef, seed int64, d time.Duration, e *env, stdout io.Writer) (*result, error) {
	var setups []float64
	w, err := setUp(def, seed, e, &setups)
	if err != nil {
		return nil, err
	}
	// A p90 needs minBeyond samples past it: at least 10*minBeyond ops,
	// however slow the host.
	p := measure(w, d, 10*minBeyond, nil, os.Stderr)
	pid := w.pid()
	rss, err := peakRSSMiB(pid)
	rssNote := fmt.Sprintf("VmHWM of pid %d", pid)
	if n, ok := w.(rssNoter); ok {
		rssNote += "; " + n.rssNote()
	}
	w.close()
	if err != nil {
		return nil, fmt.Errorf("peak RSS: %w", err)
	}
	// Host speed drifts over seconds, so set-up is also timed after the
	// timed phase: the median then does not hang on the moment the run
	// started.
	debug.FreeOSMemory()
	w, err = setUp(def, seed, e, &setups)
	if err != nil {
		return nil, err
	}
	w.close()
	setupS := median(setups)
	p50, p90, err := p.latency()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}
	vals := map[string]float64{
		"setup_s":      setupS,
		"peak_rss_mb":  rss,
		"frames_per_s": p.thr.rate(),
		"op_p50_ms":    p50,
		"op_p90_ms":    p90,
	}
	samples := map[string]string{
		"setup_s":      fmt.Sprintf("median of %d set-ups, before and after the timed phase", len(setups)),
		"peak_rss_mb":  rssNote,
		"frames_per_s": fmt.Sprintf("median of %d batches", len(p.thr.rates)),
		"op_p50_ms":    fmt.Sprintf("n=%d ops", len(p.lat)),
		"op_p90_ms":    fmt.Sprintf("n=%d ops, %d beyond", len(p.lat), len(p.lat)-int(math.Ceil(0.9*float64(len(p.lat))))),
	}
	fmt.Fprintf(stdout, "# dvperf workload=%s seed=%d seconds=%v attempted=%d failed=%d\n",
		def.name, seed, d.Seconds(), p.attempted, p.failed)
	res := &result{Correct: p.failed == 0, Attempted: p.attempted, Failed: p.failed, Metrics: map[string]metric{}}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
		fmt.Fprintf(stdout, "# %-14s %14.6g %-4s (%s)\n", m.name, vals[m.name], m.unit, samples[m.name])
	}
	return res, nil
}
