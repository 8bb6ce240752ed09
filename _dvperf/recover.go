package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"dvsync/internal/checkpoint"
	"dvsync/internal/fault"
	"dvsync/internal/flight"
	"dvsync/internal/health"
	"dvsync/internal/obs"
	"dvsync/internal/scenarios"
	"dvsync/internal/sim"
	"dvsync/internal/simtime"
	"dvsync/internal/workload"
)

const (
	recoverFrames   = 300
	recoverReplicas = 2                         // seeded incidents per fault class and refresh rate
	recoverEvery    = 500 * simtime.Millisecond // checkpoint cadence, virtual time
	recoverWarmup   = 4
)

var recoverHz = []int{60, 90, 120}

// incident is one faulted scenario of the recover corpus.
type incident struct {
	cfg  func() sim.Config // fresh config with a fresh flight ring
	want uint64            // digest of a plain, uncheckpointed run
	seen bool              // memo holds the first occurrence's digest
	memo uint64
}

// recoverW replays incidents: a checkpointed run, a resume from its middle
// checkpoint, and the post-mortem over the flight dumps.
type recoverW struct {
	incidents []incident
	deck      []int
	rng       *rand.Rand
	tally     struct{ incidents, ckptBytes, perfettoBytes int }
}

func recoverHealth() health.Config {
	return health.Config{
		Window:        500 * simtime.Millisecond,
		MaxFDPS:       5,
		MaxCalibErrMs: 10,
		StallTimeout:  250 * simtime.Millisecond,
		RecoverAfter:  simtime.Second,
	}
}

func setupRecover(seed int64, _ *env, tr *tracer) (instance, error) {
	w := &recoverW{rng: rand.New(rand.NewSource(seed))}
	for _, cls := range fault.Classes() {
		for _, hz := range recoverHz {
			for r := 0; r < recoverReplicas; r++ {
				dev := scenarios.Mate40Pro
				dev.RefreshHz = hz
				prof := scenarios.BaseProfile("recover", dev, scenarios.HeavyTail, workload.Deterministic)
				k := int64(len(w.incidents))
				fc, err := fault.Scenario(cls, 0.6, simtime.Time(simtime.FromMillis(500)),
					simtime.Time(simtime.FromSeconds(3600)), seed*100+k)
				if err != nil {
					return nil, err
				}
				trace := prof.Generate(recoverFrames, seed*100+k)
				panel := dev.Panel()
				inc := incident{cfg: func() sim.Config {
					cfg := sim.Config{Mode: sim.ModeDVSync, Panel: panel, Buffers: 5, Trace: trace,
						Faults: fc, EnableFallback: true, Health: recoverHealth(), FPEOverloadAfter: 4,
						Recorder: flight.New(flight.Config{})}
					cfg.DTV.MaxAbsErrMs = 8
					return cfg
				}}
				res, err := sim.TryRun(inc.cfg())
				if err != nil {
					return nil, fmt.Errorf("recover reference %s@%d: %w", cls, hz, err)
				}
				inc.want = resultDigest(res)
				w.incidents = append(w.incidents, inc)
			}
		}
	}
	for i := 0; i < recoverWarmup; i++ {
		if _, _, err := w.op(tr); err != nil {
			return nil, fmt.Errorf("recover warm-up: %w", err)
		}
	}
	return w, nil
}

func (w *recoverW) op(tr *tracer) (int, time.Duration, error) {
	if len(w.deck) == 0 {
		w.deck = w.rng.Perm(len(w.incidents))
	}
	inc := &w.incidents[w.deck[0]]
	w.deck = w.deck[1:]
	t0 := time.Now()
	out, err := runIncident(inc.cfg, tr)
	took := time.Since(t0)
	if err != nil {
		return 0, took, err
	}
	if out.straight != inc.want || out.resumed != inc.want {
		return 0, took, fmt.Errorf("recover: straight %016x / resumed %016x, plain run %016x", out.straight, out.resumed, inc.want)
	}
	if !inc.seen {
		inc.seen, inc.memo = true, out.digest
	} else if out.digest != inc.memo {
		return 0, took, fmt.Errorf("recover: incident artefacts differ from the first replay of the same scenario")
	}
	w.tally.incidents++
	w.tally.ckptBytes += out.ckptBytes
	w.tally.perfettoBytes += out.perfettoBytes
	return out.frames, took, nil
}

// incidentOut is what one incident produced.
type incidentOut struct {
	straight, resumed uint64 // result digests
	digest            uint64 // artefact digest: envelopes, dumps, causes, export
	frames            int
	ckptBytes         int
	perfettoBytes     int
}

// runIncident is one recover op: checkpointed run, decode of the middle
// envelope, resume to the end, dump decode, attribution and a validated
// Perfetto export.
func runIncident(mk func() sim.Config, tr *tracer) (*incidentOut, error) {
	cfg := mk()
	digest := sim.ConfigDigest(cfg)
	out := &incidentOut{}
	ad := newDigester()

	var envs [][]byte
	sp := tr.begin("sim.checkpointed_run")
	res, err := sim.New(cfg).RunCheckpointed(recoverEvery, func(st *sim.State) error {
		esp := tr.begin("checkpoint.encode")
		defer tr.end(esp)
		payload, err := json.Marshal(st)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := checkpoint.Encode(&buf, digest, st.At, nil, payload); err != nil {
			return err
		}
		envs = append(envs, buf.Bytes())
		return nil
	})
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("recover: checkpointed run: %w", err)
	}
	if len(envs) < 2 {
		return nil, fmt.Errorf("recover: only %d checkpoints", len(envs))
	}
	out.straight = resultDigest(res)
	out.frames = len(res.Presented)
	for _, e := range envs {
		out.ckptBytes += len(e)
		ad.bytes(e)
	}
	ring := cfg.Recorder.(*flight.Ring)
	var sealed [][]byte
	for i := range ring.Dumps() {
		var buf bytes.Buffer
		if err := flight.EncodeDump(&buf, digest, &ring.Dumps()[i]); err != nil {
			return nil, fmt.Errorf("recover: seal dump: %w", err)
		}
		sealed = append(sealed, buf.Bytes())
	}

	sp = tr.begin("checkpoint.decode")
	env, err := checkpoint.Decode(bytes.NewReader(envs[len(envs)/2]))
	var st sim.State
	if err == nil {
		err = env.VerifyConfig(digest)
	}
	if err == nil {
		err = env.DecodeState(&st)
	}
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("recover: decode checkpoint: %w", err)
	}

	cfg2 := mk()
	sp = tr.begin("sim.resume")
	sys, err := sim.Resume(cfg2, &st)
	var res2 *sim.Result
	if err == nil {
		res2 = sys.Run()
	}
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("recover: resume: %w", err)
	}
	out.resumed = resultDigest(res2)
	ring2 := cfg2.Recorder.(*flight.Ring)
	if pre := ring2.PreDumps(); pre+len(ring2.Dumps()) != len(sealed) {
		return nil, fmt.Errorf("recover: resumed run has %d+%d dumps, straight run %d", pre, len(ring2.Dumps()), len(sealed))
	}

	chains := 0
	for _, b := range sealed {
		sp = tr.begin("flight.dump_decode")
		d, _, err := flight.DecodeDump(bytes.NewReader(b), digest)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("recover: decode dump: %w", err)
		}
		sp = tr.begin("obs.attribute")
		cc := obs.Attribute(d.Events)
		tr.end(sp)
		chains += len(cc)
		ad.bytes(b)
	}
	ad.i64(int64(chains))

	var pf bytes.Buffer
	sp = tr.begin("obs.perfetto")
	err = obs.ExportPerfettoAnnotated(ring2, &pf)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("recover: perfetto export: %w", err)
	}
	sp = tr.begin("obs.validate")
	tracks, err := obs.ValidatePerfetto(pf.Bytes())
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("recover: perfetto export invalid: %w", err)
	}
	if len(tracks) == 0 {
		return nil, fmt.Errorf("recover: perfetto export has no counter tracks")
	}
	out.perfettoBytes = pf.Len()
	ad.bytes(pf.Bytes())
	out.digest = ad.sum()
	return out, nil
}

func (w *recoverW) counts() map[string]float64 {
	n := float64(w.tally.incidents)
	return map[string]float64{
		"checkpoint.bytes":   float64(w.tally.ckptBytes) / n,
		"obs.perfetto_bytes": float64(w.tally.perfettoBytes) / n,
	}
}

func (w *recoverW) pid() int { return selfPID }
func (w *recoverW) close()   {}
