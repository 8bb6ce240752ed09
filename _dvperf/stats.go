package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie strictly beyond a reported
// percentile: a tail read from fewer samples is one preemption, not a
// property of the program.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middle values for
// an even count). It sorts a copy; xs is left as it was.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of xs, 0 < q < 1, and
// reports an error when fewer than minBeyond samples lie beyond it.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %v of %d samples", q, n)
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%v of %d samples has %d beyond it, want at least %d", q*100, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// batches accumulates per-batch throughput: the timed phase is cut into
// equal host-time batches, and each batch's rate is the frames its ops
// delivered over the host time those ops took. The reported throughput is
// the median batch, so a stretch of host noise moves one batch, not the
// run.
type batches struct {
	rates  []float64
	frames float64
	busy   time.Duration
}

// add records one completed op.
func (b *batches) add(frames int, took time.Duration) {
	b.frames += float64(frames)
	b.busy += took
}

// cut closes the current batch. An empty batch is dropped.
func (b *batches) cut() {
	if b.busy > 0 {
		b.rates = append(b.rates, b.frames/b.busy.Seconds())
	}
	b.frames, b.busy = 0, 0
}

// rate is the median batch throughput in frames per second.
func (b *batches) rate() float64 { return median(b.rates) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
