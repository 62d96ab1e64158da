package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/fuzz"
	"repro/internal/sweep"
)

// campaign is the fuzz-campaign workload: a contiguous range of
// generator seeds, each generated and checked by every oracle, fanned
// over the worker pool the way cmd/retcon-fuzz does it.
type campaign struct {
	base    int64 // first generator seed, derived from the benchmark seed
	n       int   // seeds per pass
	nworker int

	seeds []int64
}

func (c *campaign) workers() int      { return c.nworker }
func (c *campaign) itemsPerPass() int { return len(c.seeds) }

func (c *campaign) describeSeeds() string {
	return fmt.Sprintf("fuzz generator seeds %d:%d", c.base, c.base+int64(c.n))
}

// setup expands the seed range. It reuses the previous set-up's slice:
// the expansion itself takes a microsecond or two, and a fresh slice
// would make its timing mostly that of the allocator and the collector.
func (c *campaign) setup() error {
	c.seeds = c.seeds[:0]
	for i := 0; i < c.n; i++ {
		c.seeds = append(c.seeds, c.base+int64(i))
	}
	return nil
}

type fuzzOut struct {
	prog *fuzz.Prog
	div  *fuzz.Divergence
	dur  time.Duration
}

// pass checks every seed once. An item's latency is its Generate+Check
// time, taken inside the worker; traced, the two calls get spans of
// their own.
func (c *campaign) pass(traced bool) *passResult {
	n := len(c.seeds)
	pr := &passResult{traced: traced, itemMS: make([]float64, n), attempted: n}
	if traced {
		pr.trace = newPassTrace(n)
	}
	tr := pr.trace
	rt0 := readRuntime()
	stopHeap := heapPeak()
	start := time.Now()
	if traced {
		tr.start = start
	}
	get, wait := sweep.Dispatch(n, c.nworker, func(i int) fuzzOut {
		t0 := time.Now()
		if !traced {
			p := fuzz.Generate(c.seeds[i], fuzz.GenOptions{})
			d := fuzz.Check(p, fuzz.Options{})
			return fuzzOut{p, d, time.Since(t0)}
		}
		item := tr.begin(i, spanItem, -1)
		s := tr.begin(i, spanGenerate, item)
		p := fuzz.Generate(c.seeds[i], fuzz.GenOptions{})
		tr.end(i, s)
		s = tr.begin(i, spanCheck, item)
		d := fuzz.Check(p, fuzz.Options{})
		tr.end(i, s)
		tr.end(i, item)
		return fuzzOut{p, d, time.Since(t0)}
	})
	outs := make([]fuzzOut, n)
	for i := range outs {
		outs[i] = get(i)
	}
	wait()
	pr.wall = time.Since(start)
	pr.heapPeak = stopHeap()
	pr.runtime = readRuntime().sub(rt0)

	h := fnv.New64a()
	for i, o := range outs {
		pr.itemMS[i] = ms(o.dur)
		if o.div != nil {
			pr.divergences++
			pr.fail(o.div)
		}
		b, err := json.Marshal(o.prog)
		if err != nil {
			pr.fail(fmt.Errorf("seed %d: %w", c.seeds[i], err))
			continue
		}
		h.Write(b)
		fmt.Fprintf(h, "|%v\n", o.div)
	}
	pr.digest = h.Sum64()
	return pr
}
