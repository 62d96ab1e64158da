package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// summary is a sample's spread: the median and quartiles, and the tail —
// the highest whole percentile with at least tailBeyond samples above it.
type summary struct {
	N             int
	P25, P50, P75 float64
	Spread        float64 // (P75-P25)/P50, 0 when P50 is 0
	TailPct       int
	Tail          float64
}

// tailBeyond is how many samples must lie beyond a reported tail
// percentile for that percentile to mean anything.
const tailBeyond = 10

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{
		N:   len(s),
		P25: quantile(s, 0.25),
		P50: quantile(s, 0.50),
		P75: quantile(s, 0.75),
	}
	if out.P50 != 0 {
		out.Spread = (out.P75 - out.P25) / out.P50
	}
	// The highest percentile p with at least tailBeyond samples strictly
	// above rank p/100*n; with too few samples the tail is the median.
	out.TailPct = 50
	if n := len(s); n > tailBeyond {
		out.TailPct = max(50, int(math.Floor(100*float64(n-tailBeyond)/float64(n))))
	}
	out.Tail = quantile(s, float64(out.TailPct)/100)
	return out
}

// quantile interpolates linearly between closest ranks of a sorted
// sample (Hyndman-Fan type 7, the spreadsheet default).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

func median(xs []float64) float64 { return summarize(xs).P50 }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// runtimeCounters are the Go runtime's cumulative allocation and CPU
// accounting, read at pass boundaries.
type runtimeCounters struct {
	allocBytes float64
	gcCPU      float64
	totalCPU   float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() runtimeCounters {
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	return runtimeCounters{
		allocBytes: float64(s[0].Value.Uint64()),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
}

func (c runtimeCounters) sub(o runtimeCounters) runtimeCounters {
	return runtimeCounters{c.allocBytes - o.allocBytes, c.gcCPU - o.gcCPU, c.totalCPU - o.totalCPU}
}

// heapSampleEvery is how often the peak-heap sampler polls; the live
// heap changes only when a GC cycle ends, so a few milliseconds resolves
// every cycle of a pass without competing with the workers for a core.
const heapSampleEvery = 5 * time.Millisecond

// heapPeak polls the live heap, as marked by the latest GC cycle, until
// stop is called, which returns the largest value seen. The live heap
// rather than all allocated objects: the latter's peak depends on how far
// sweeping lags allocation, which is host timing, not the program.
func heapPeak() (stop func() uint64) {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() uint64 {
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	var (
		wg   sync.WaitGroup
		peak = read()
		done = make(chan struct{})
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				peak = max(peak, read())
			}
		}
	}()
	return func() uint64 {
		close(done)
		wg.Wait()
		return max(peak, read())
	}
}

// hostCheck times a fixed integer loop. It is printed before and after
// the passes so that a reader can tell a slower host from a slower
// program; it is not a metric.
func hostCheck() time.Duration {
	t0 := time.Now()
	x := uint64(1)
	for i := 0; i < 1<<26; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	hostSink = x
	return time.Since(t0)
}

var hostSink uint64

// settle collects garbage between passes so each pass starts from the
// same heap state; it is never inside a timed interval.
func settle() { runtime.GC() }
