package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Span names. Each wraps one public call into the layer it is named
// after; "item" encloses the whole of one item (one simulation run, or
// one fuzz seed) and is the parent of the others.
const (
	spanItem     = "item"
	spanBuild    = "workloads.build"
	spanAcquire  = "sim.acquire"
	spanRun      = "sim.run"
	spanVerify   = "sim.verify"
	spanGenerate = "fuzz.generate"
	spanCheck    = "fuzz.check"
)

// span is one timed call, in nanoseconds since its pass started.
type span struct {
	name       string
	parent     int // index into the item's spans; -1 for a root
	start, end int64
}

// passTrace keeps one traced pass's spans in memory, one list per item.
// Each item is executed by exactly one worker, so workers never share a
// list; the lists are read only after the pass has returned.
type passTrace struct {
	start time.Time
	items [][]span
}

func newPassTrace(items int) *passTrace {
	tr := &passTrace{items: make([][]span, items)}
	for i := range tr.items {
		tr.items[i] = make([]span, 0, 5)
	}
	return tr
}

// begin opens a span for item i and returns its index for end.
func (tr *passTrace) begin(i int, name string, parent int) int {
	tr.items[i] = append(tr.items[i], span{name: name, parent: parent, start: time.Since(tr.start).Nanoseconds()})
	return len(tr.items[i]) - 1
}

func (tr *passTrace) end(i, s int) { tr.items[i][s].end = time.Since(tr.start).Nanoseconds() }

// selfTimes returns each span's duration minus the part of its interval
// covered by its children.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	for i, s := range spans {
		self[i] = s.end - s.start - covered(s, children[i])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(a, b int) bool { return kids[a].start < kids[b].start })
	var total, reach int64 = 0, parent.start
	for _, k := range kids {
		lo, hi := max(k.start, reach), min(k.end, parent.end)
		if hi > lo {
			total += hi - lo
			reach = hi
		}
	}
	return total
}

// layerTimes aggregates self time per span name over traced passes.
type layerTimes struct {
	totalNS map[string]int64
	selfMS  map[string][]float64
}

func aggregateSpans(traces []*passTrace) layerTimes {
	lt := layerTimes{totalNS: map[string]int64{}, selfMS: map[string][]float64{}}
	for _, tr := range traces {
		for _, spans := range tr.items {
			for j, self := range selfTimes(spans) {
				name := spans[j].name
				lt.totalNS[name] += self
				lt.selfMS[name] = append(lt.selfMS[name], float64(self)/1e6)
			}
		}
	}
	return lt
}

// itemNS is the total duration of every item span.
func itemNS(traces []*passTrace) int64 {
	var total int64
	for _, tr := range traces {
		for _, spans := range tr.items {
			for _, s := range spans {
				if s.parent < 0 {
					total += s.end - s.start
				}
			}
		}
	}
	return total
}

// spanRecord is one line of the span file.
type spanRecord struct {
	Pass    int    `json:"pass"`
	Item    int    `json:"item"`
	Span    string `json:"span"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	SelfNS  int64  `json:"self_ns"`
}

// writeSpans writes every traced pass's spans as JSON lines.
func writeSpans(path string, traces []*passTrace) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for p, tr := range traces {
		for i, spans := range tr.items {
			self := selfTimes(spans)
			for j, s := range spans {
				rec := spanRecord{Pass: p, Item: i, Span: s.name, StartNS: s.start, EndNS: s.end, SelfNS: self[j]}
				if s.parent >= 0 {
					rec.Parent = spans[s.parent].name
				}
				if err := enc.Encode(rec); err != nil {
					return fmt.Errorf("write spans: %w", err)
				}
			}
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
