package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"dvsync/internal/fleet"
	"dvsync/internal/par"
)

// censusTemplates is the fixed cohort pool the census stream draws from.
// Frames and the spec seed are filled in per census.
var censusTemplates = []fleet.Cohort{
	{Device: "pixel5", Hz: []int{60}, Workload: "moderate", Replicas: 3},
	{Device: "pixel5", Hz: []int{60, 90}, Modes: []string{"dvsync"}, Workload: "scattered", Replicas: 3},
	{Device: "mate40", Hz: []int{60, 90}, Workload: "moderate", Replicas: 2},
	{Device: "mate40", Hz: []int{90}, Modes: []string{"dvsync"}, Workload: "heavy-tail", Fault: "stall", Severity: sev(0.5), Replicas: 3},
	{Device: "mate60", Hz: []int{60, 120}, Modes: []string{"dvsync"}, Workload: "scattered", Replicas: 3},
	{Device: "mate60", Hz: []int{120}, Workload: "heavy-tail", Replicas: 3},
	{Device: "pixel5", Hz: []int{90}, Modes: []string{"vsync"}, Workload: "default", Replicas: 3},
	{Device: "mate40", Hz: []int{60}, Modes: []string{"dvsync"}, Workload: "mixed", Replicas: 3},
	{Device: "mate60", Hz: []int{90}, Workload: "moderate", Fault: "jitter", Severity: sev(0.4), Replicas: 2},
	{Device: "pixel5", Hz: []int{60, 120}, Modes: []string{"dvsync"}, Workload: "heavy-tail", Replicas: 2},
	{Device: "mate40", Hz: []int{120}, Workload: "scattered", Fault: "missed-vsync", Severity: sev(0.3), Replicas: 2},
	{Device: "mate60", Hz: []int{60}, Workload: "default", Replicas: 3},
}

func sev(v float64) *float64 { return &v }

const (
	censusFresh      = 2   // cohorts per census never seen before
	censusRepeat     = 2   // cohorts per census repeating an earlier one
	censusHistory    = 16  // how far back repeats reach
	censusBaseFrames = 240 // fresh cohorts run 240..359 frames
	censusFrameSpan  = 120
	// censusSeeds is how many spec seeds a run rotates through. Replica r
	// of every cell of a spec uses the spec seed plus r, so one seed would
	// give a template the same traces, cut to different lengths, for the
	// whole run; rotating seeds makes the cells a run simulates a wider
	// sample, and its costs and dump sizes depend less on the run seed.
	censusSeeds = 8
	// censusCacheCells is the fleet engine's result-cache bound. Set-up
	// inserts at least this many cells, so the timed phase starts on a
	// full cache whose live set no longer grows with the op count.
	censusCacheCells = 4096
	// censusWarmupDecks is how many whole decks of regular censuses
	// follow the fill.
	censusWarmupDecks = 1
)

// censusWidthCheck is the fixed cohort set of the set-up width check, so
// every seed does the same check work: plain, stalled, jittered and
// missed-vsync cohorts, 17 cells.
var censusWidthCheck = []int{0, 3, 8, 10}

// censusCohort is a cohort the stream has run, with its aggregate digest.
type censusCohort struct {
	c      fleet.Cohort
	digest [32]byte
}

// census drives one long-lived fleet.Engine with a seeded spec stream.
// Each census mixes fresh cohorts (unseen frame counts, so every cell
// simulates) with repeats of recent cohorts run under the same spec seed
// (every cell a cache hit).
type census struct {
	eng     *fleet.Engine
	seed    int64
	rng     *rand.Rand
	deck    []int
	next    int                         // censuses run; picks the spec seed
	uses    [censusSeeds][]int          // fresh draws per spec seed and template
	history [censusSeeds][]censusCohort // fresh cohorts per spec seed
	cached  int                         // cells inserted into the engine's cache, set-up included
	tally   struct{ cells, simulated, hits, anomalies, censuses int }
}

func setupCensus(seed int64, e *env, tr *tracer) (instance, error) {
	w := &census{seed: seed, rng: rand.New(rand.NewSource(seed))}
	for j := range w.uses {
		w.uses[j] = make([]int, len(censusTemplates))
	}
	// Width check: one census at par workers 1 and at the run's width
	// must write identical bytes.
	spec := fleet.Spec{Name: "dvperf-width", Seed: w.specSeed(0)}
	for _, t := range censusWidthCheck {
		c := censusTemplates[t]
		c.Frames = censusBaseFrames
		c.Name = fmt.Sprintf("w%02d", t)
		spec.Cohorts = append(spec.Cohorts, c)
	}
	var want []byte
	for _, workers := range []int{1, e.workers} {
		par.SetWorkers(workers)
		res, err := fleet.NewEngine().Census(spec, nil)
		if err != nil {
			return nil, fmt.Errorf("census width check: %w", err)
		}
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			return nil, err
		}
		if want == nil {
			want = buf.Bytes()
		} else if !bytes.Equal(want, buf.Bytes()) {
			return nil, fmt.Errorf("census at %d workers differs from 1 worker", workers)
		}
	}
	w.eng = fleet.NewEngine()
	// Fill: censuses of one whole deck of fresh cohorts each, until the
	// cache is full. Whole decks give every seed the same cells to run.
	for w.cached < censusCacheCells {
		j := w.nextSeed()
		spec := fleet.Spec{Name: "dvperf-fill", Seed: w.specSeed(j)}
		for range censusTemplates {
			spec.Cohorts = append(spec.Cohorts, w.freshCohort(j))
		}
		res, err := w.eng.Census(spec, nil)
		if err != nil {
			return nil, fmt.Errorf("census fill: %w", err)
		}
		if res.Simulated != res.Cells {
			return nil, fmt.Errorf("census fill: %d of %d cells simulated", res.Simulated, res.Cells)
		}
		w.cached += res.Simulated
		for i, cr := range res.Cohorts {
			d, err := cohortDigest(cr)
			if err != nil {
				return nil, err
			}
			w.remember(j, censusCohort{c: spec.Cohorts[i], digest: d})
		}
	}
	// Warm-up: regular censuses, each drawing censusFresh cohorts.
	for i := 0; i < censusWarmupDecks*len(censusTemplates)/censusFresh; i++ {
		if _, _, err := w.op(tr); err != nil {
			return nil, fmt.Errorf("census warm-up: %w", err)
		}
	}
	return w, nil
}

// specSeed is the j-th spec seed of the run. Replica r of a cell uses
// the spec seed plus r, so the seeds lie further apart than any
// template's replica count: no two spec seeds share a cell.
func (w *census) specSeed(j int) int64 { return w.seed*1000 + int64(j)*16 + 1 }

// nextSeed picks the spec seed of the next census, in rotation.
func (w *census) nextSeed() int {
	j := w.next % censusSeeds
	w.next++
	return j
}

// freshCohort draws the next unseen cohort under spec seed j: a template
// with a frame count that template has not used yet under j.
func (w *census) freshCohort(j int) fleet.Cohort {
	if len(w.deck) == 0 {
		w.deck = w.rng.Perm(len(censusTemplates))
	}
	t := w.deck[0]
	w.deck = w.deck[1:]
	c := censusTemplates[t]
	// 53 is coprime with the span, so a template cycles through every
	// frame count before repeating one.
	c.Frames = censusBaseFrames + (w.uses[j][t]*53)%censusFrameSpan
	w.uses[j][t]++
	c.Name = fmt.Sprintf("t%02d-f%d", t, c.Frames)
	return c
}

func (w *census) op(tr *tracer) (int, time.Duration, error) {
	j := w.nextSeed()
	spec := fleet.Spec{Name: "dvperf", Seed: w.specSeed(j)}
	isRepeat := map[string]*censusCohort{}
	if n := len(w.history[j]); n >= censusRepeat {
		lo := max(0, n-censusHistory)
		for _, k := range w.rng.Perm(n - lo)[:censusRepeat] {
			h := &w.history[j][lo+k]
			spec.Cohorts = append(spec.Cohorts, h.c)
			isRepeat[h.c.Name] = h
		}
	}
	for len(spec.Cohorts) < censusFresh+censusRepeat {
		spec.Cohorts = append(spec.Cohorts, w.freshCohort(j))
	}
	w.rng.Shuffle(len(spec.Cohorts), func(a, b int) { spec.Cohorts[a], spec.Cohorts[b] = spec.Cohorts[b], spec.Cohorts[a] })

	sp := tr.begin("fleet.census")
	// A traced census times the gap before each onCohort callback.
	var onCohort func(*fleet.CohortResult)
	gap := tr.begin("fleet.cohort")
	if tr != nil {
		onCohort = func(*fleet.CohortResult) {
			tr.end(gap)
			gap = tr.begin("fleet.cohort")
		}
	}
	t0 := time.Now()
	res, err := w.eng.Census(spec, onCohort)
	took := time.Since(t0)
	tr.drop(gap) // the stretch after the last cohort is no gap between cohorts
	tr.end(sp)
	if err != nil {
		return 0, took, fmt.Errorf("census: %w", err)
	}
	if res.Simulated+res.CacheHits != res.Cells {
		return 0, took, fmt.Errorf("census: simulated %d + hits %d != cells %d", res.Simulated, res.CacheHits, res.Cells)
	}
	var fresh []censusCohort
	for i, cr := range res.Cohorts {
		if cr.Simulated+cr.CacheHits != cr.Cells {
			return 0, took, fmt.Errorf("cohort %s: simulated %d + hits %d != cells %d", cr.Name, cr.Simulated, cr.CacheHits, cr.Cells)
		}
		d, err := cohortDigest(cr)
		if err != nil {
			return 0, took, err
		}
		if h, ok := isRepeat[cr.Name]; ok {
			if cr.CacheHits != cr.Cells {
				return 0, took, fmt.Errorf("repeated cohort %s: %d of %d cells from cache", cr.Name, cr.CacheHits, cr.Cells)
			}
			if d != h.digest {
				return 0, took, fmt.Errorf("repeated cohort %s aggregates differently from its first run", cr.Name)
			}
			continue
		}
		if cr.Simulated != cr.Cells {
			return 0, took, fmt.Errorf("fresh cohort %s: %d of %d cells simulated", cr.Name, cr.Simulated, cr.Cells)
		}
		fresh = append(fresh, censusCohort{c: spec.Cohorts[i], digest: d})
	}
	for _, f := range fresh {
		w.remember(j, f)
	}
	w.cached += res.Simulated
	w.tally.censuses++
	w.tally.cells += res.Cells
	w.tally.simulated += res.Simulated
	w.tally.hits += res.CacheHits
	w.tally.anomalies += res.Anomalies
	return censusFrames(res), took, nil
}

// remember adds a fresh cohort run under spec seed j to the history
// repeats under j draw from.
func (w *census) remember(j int, c censusCohort) {
	h := append(w.history[j], c)
	if len(h) > 4*censusHistory {
		h = append(h[:0], h[len(h)-censusHistory:]...)
	}
	w.history[j] = h
}

func (w *census) counts() map[string]float64 {
	t := w.tally
	return map[string]float64{
		"fleet.hit_ratio":       float64(t.hits) / float64(t.cells),
		"fleet.simulated_cells": float64(t.simulated),
		"fleet.anomaly_ratio":   float64(t.anomalies) / float64(t.cells),
	}
}

// rssNote says how full the engine's result cache is, which is what its
// peak RSS mostly holds.
func (w *census) rssNote() string {
	return fmt.Sprintf("fleet cache holds %d cells", min(w.cached, censusCacheCells))
}

func (w *census) pid() int { return selfPID }
func (w *census) close()   {}
