package main

import (
	"fmt"
	"math/rand"
	"time"

	"dvsync/internal/flight"
	"dvsync/internal/scenarios"
	"dvsync/internal/sim"
	"dvsync/internal/telemetry"
	"dvsync/internal/workload"
)

// Replay corpus dimensions. The corpus composition is fixed; the seed
// only draws the traces and the replay order, so every seed presents the
// same mix of shapes.
var (
	replayModes   = []sim.Mode{sim.ModeVSync, sim.ModeDVSync}
	replayHz      = []int{60, 90, 120}
	replayBuffers = []int{3, 4, 5}
	replayShapes  = []struct {
		name  string
		class scenarios.TailClass
	}{
		{"moderate", scenarios.Moderate},
		{"scattered", scenarios.Scattered},
		{"heavy-tail", scenarios.HeavyTail},
	}
)

const (
	replayFrames = 400 // frames per trace
	// A shape's run cost swings up to 2x from trace to trace, so each
	// shape carries enough traces that the corpus median barely moves
	// with the seed.
	replayTracesPerShape = 8
	replayWarmupPasses   = 1 // warm-up passes over the corpus
)

// Attachments of a replay shape: dvserve always wires a flight ring, and a
// scraped scenario also carries a telemetry registry.
const (
	attachBare = iota
	attachRing
	attachRegistry
)

// attachment assigns shape k its attachment: half the shapes carry a
// ring, a quarter a registry, a quarter nothing.
func attachment(k int) int {
	switch k % 4 {
	case 0, 2:
		return attachRing
	case 1:
		return attachRegistry
	}
	return attachBare
}

// attached returns cfg with fresh instances of the attachment wired in.
func attached(cfg sim.Config, attach int) sim.Config {
	switch attach {
	case attachRing:
		cfg.Recorder = flight.New(flight.Config{})
	case attachRegistry:
		cfg.Metrics = telemetry.NewRegistry()
	}
	return cfg
}

// replayShape is one configuration of the corpus with its traces.
type replayShape struct {
	base   sim.Config // without trace or attachments
	attach int
	traces []*workload.Trace
}

// replayShapeList builds the corpus shapes, traces seeded from seed.
func replayShapeList(seed int64) []replayShape {
	var out []replayShape
	for _, mode := range replayModes {
		for _, hz := range replayHz {
			for _, buffers := range replayBuffers {
				for _, sh := range replayShapes {
					k := len(out)
					dev := scenarios.Pixel5
					dev.RefreshHz = hz
					prof := scenarios.BaseProfile("replay-"+sh.name, dev, sh.class, workload.Deterministic)
					s := replayShape{attach: attachment(k),
						base: sim.Config{Mode: mode, Panel: dev.Panel(), Buffers: buffers}}
					for t := 0; t < replayTracesPerShape; t++ {
						s.traces = append(s.traces, prof.Generate(replayFrames, seed*1000+int64(k*replayTracesPerShape+t)))
					}
					out = append(out, s)
				}
			}
		}
	}
	return out
}

// replayEntry is one (shape, trace) pair with its expected digest.
type replayEntry struct {
	rn    *sim.Runner
	trace *workload.Trace
	want  uint64
}

func withTrace(cfg sim.Config, tr *workload.Trace) sim.Config {
	cfg.Trace = tr
	return cfg
}

// replay replays the corpus through pooled Runners, one op per run.
type replay struct {
	entries []replayEntry
	order   []int
	pos     int
	rng     *rand.Rand
}

func setupReplay(seed int64, _ *env, tr *tracer) (instance, error) {
	w := &replay{rng: rand.New(rand.NewSource(seed))}
	for _, s := range replayShapeList(seed) {
		rn := sim.NewRunner(attached(withTrace(s.base, s.traces[0]), s.attach))
		for _, t := range s.traces {
			// The expected output comes from a fresh, unpooled run of the
			// same configuration: pooled replays must match it exactly.
			cfg := attached(withTrace(s.base, t), s.attach)
			res, err := sim.TryRun(cfg)
			if err != nil {
				return nil, fmt.Errorf("replay reference: %w", err)
			}
			w.entries = append(w.entries, replayEntry{rn: rn, trace: t, want: resultDigest(res)})
		}
	}
	w.order = make([]int, len(w.entries))
	for i := range w.order {
		w.order[i] = i
	}
	w.shuffle()
	for i := 0; i < replayWarmupPasses*len(w.entries); i++ {
		if _, _, err := w.op(tr); err != nil {
			return nil, fmt.Errorf("replay warm-up: %w", err)
		}
	}
	return w, nil
}

// shuffle starts a new pass over the corpus in a seeded order.
func (w *replay) shuffle() {
	w.rng.Shuffle(len(w.order), func(i, j int) { w.order[i], w.order[j] = w.order[j], w.order[i] })
	w.pos = 0
}

func (w *replay) op(tr *tracer) (int, time.Duration, error) {
	if w.pos == len(w.order) {
		w.shuffle()
	}
	e := &w.entries[w.order[w.pos]]
	w.pos++
	sp := tr.begin("replay.run")
	t0 := time.Now()
	res := e.rn.RunTrace(e.trace)
	took := time.Since(t0)
	tr.end(sp)
	if !res.Completed {
		return 0, took, fmt.Errorf("replay: run did not complete: %s", res.WatchdogTripped)
	}
	if got := resultDigest(res); got != e.want {
		return 0, took, fmt.Errorf("replay: digest %016x, fresh run %016x", got, e.want)
	}
	return len(res.Presented), took, nil
}

func (w *replay) pid() int                   { return selfPID }
func (w *replay) counts() map[string]float64 { return nil }
func (w *replay) close()                     {}
