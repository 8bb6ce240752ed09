package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"hash"
	"hash/fnv"
	"math"

	"dvsync/internal/fleet"
	"dvsync/internal/sim"
	"dvsync/internal/telemetry"
)

// digester folds fixed-width values into an FNV-1a hash.
type digester struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigester() *digester { return &digester{h: fnv.New64a()} }

func (d *digester) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digester) i64(v int64)   { d.u64(uint64(v)) }
func (d *digester) f64(v float64) { d.u64(math.Float64bits(v)) }
func (d *digester) sum() uint64   { return d.h.Sum64() }

// bytes folds a length-prefixed byte string.
func (d *digester) bytes(b []byte) {
	d.i64(int64(len(b)))
	d.h.Write(b)
}

// resultDigest fingerprints what a user of a run sees: the presented
// latch sequence, the janks and the per-frame latency. Two runs of the
// same configuration must agree on it, however they were executed.
func resultDigest(r *sim.Result) uint64 {
	d := newDigester()
	d.i64(int64(len(r.Presented)))
	for _, f := range r.Presented {
		d.i64(int64(f.Seq))
		d.i64(int64(f.LatchedAt))
		d.i64(int64(f.PresentAt))
	}
	d.i64(int64(len(r.Janks)))
	for _, j := range r.Janks {
		d.i64(int64(j.At))
		d.u64(j.EdgeSeq)
	}
	d.i64(int64(len(r.LatencyMs)))
	for _, v := range r.LatencyMs {
		d.f64(v)
	}
	return d.sum()
}

// accountingMetrics are the cohort counters that depend on the engine's
// cache history rather than on the cohort's cells.
var accountingMetrics = map[string]bool{
	"fleet_cells_simulated_total": true,
	"fleet_cache_hits_total":      true,
}

// cohortDigest fingerprints a cohort aggregate without its cache
// accounting: a cohort served from the cache must aggregate exactly as it
// did when its cells were simulated.
func cohortDigest(c *fleet.CohortResult) ([32]byte, error) {
	v := *c
	v.Simulated, v.CacheHits = 0, 0
	if c.Metrics != nil {
		snap := *c.Metrics
		snap.Metrics = nil
		for _, m := range c.Metrics.Metrics {
			if !accountingMetrics[m.Name] {
				snap.Metrics = append(snap.Metrics, m)
			}
		}
		v.Metrics = &snap
	}
	b, err := json.Marshal(&v)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(b), nil
}

// metricValue returns the value of the named counter or gauge in snap.
func metricValue(snap *telemetry.Snapshot, name string) (float64, bool) {
	if snap == nil {
		return 0, false
	}
	for _, m := range snap.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// censusFrames totals the frames presented across a census's cohorts.
func censusFrames(res *fleet.Result) int {
	n := 0.0
	for _, c := range res.Cohorts {
		v, _ := metricValue(c.Metrics, "fleet_frames_presented_total")
		n += v
	}
	return int(n)
}
