// Package wspec is the declarative workload-specification subsystem: a
// JSON language for describing synthetic transactional workloads, plus a
// compiler that lowers specs to per-thread ISA programs (via isa.Builder)
// packaged as standard workloads.Bundle values.
//
// A spec declares:
//
//   - shared-memory objects: padded or packed arrays, counters,
//     open-addressing hash tables, and producer/consumer queues;
//   - per-thread phases, grouped by weighted thread groups and separated
//     by global barriers: transactional or non-transactional regions with
//     op mixes (read / write / fetch_add / probe / push / pop), loop
//     counts and private busy work;
//   - access-pattern distributions per op (uniform, zipfian, hot-set,
//     striding, per-thread-partitioned, fixed) — the contention knobs;
//   - an optional final-state oracle: named checks over the objects
//     (per-cell expectations, sums, hash-table membership, queue balance).
//
// Compiled specs implement workloads.Workload, so every existing consumer
// — retcon-sim, retcon-sweep, the report harness, simbench, the fuzz
// differential oracles — runs them with zero changes to its run loop.
// Registration is dynamic: Resolve("spec:path?knob=v") compiles a spec
// file with parameter overrides and registers it in the workloads
// registry under the reference string.
//
// # Determinism
//
// Compilation and Build are pure functions: the same spec, parameter
// overrides, thread count and seed always produce byte-identical memory
// images and instruction sequences. All randomness (distribution
// sampling) flows from the explicit Build seed through a split-mix
// generator in a fixed traversal order (epoch, group, phase, global
// iteration, op, repeat); nothing depends on map iteration, time or
// scheduling. Total work is a function of the spec alone — phase
// iteration counts are totals split across the owning group's threads —
// so the 1-thread build is the sequential baseline.
//
// # Oracle soundness
//
// The compiler only admits verify checks whose expected outcome is
// schedule-independent: a checked object's mutations must sit inside
// transactions, checked cells receive either commutative fetch-adds or
// same-valued stores but never both, and checked queues need pops
// barrier-ordered after every push with pops == pushes. Asking for a
// check the op mix cannot support is a compile-time error, so a spec
// that compiles always carries a sound final-state oracle; objects
// without a check may race freely (only liveness and memory bounds are
// enforced globally — probe occupancy <= slots/2, queue cursors within
// capacity). Omitting "verify" derives the natural check for every
// object that supports one; "verify": [] disables verification and with
// it every soundness restriction.
package wspec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Spec is the top-level JSON document. See the package comment and the
// examples under examples/workloads/.
type Spec struct {
	// Name labels the workload (registry name when registered without a
	// spec: reference).
	Name string `json:"name"`
	// Description is the one-line summary shown by -list.
	Description string `json:"description,omitempty"`
	// Params declares named numeric knobs with their default values.
	// Any Num-typed field may reference a knob as the string "$name",
	// and references are resolved at compile time against these defaults
	// patched by per-compile overrides ("spec:path?name=v").
	Params map[string]float64 `json:"params,omitempty"`
	// Objects are the shared-memory structures.
	Objects []Object `json:"objects"`
	// Threads are the weighted thread groups; build-time threads are
	// split across groups proportionally to weight.
	Threads []Group `json:"threads"`
	// Verify lists the final-state checks. Omitted entirely (nil): every
	// object gets its natural check when admissible. Present but empty:
	// verification is disabled. No omitempty — marshalling must preserve
	// the nil-vs-empty distinction or a round-tripped spec would silently
	// re-enable verification.
	Verify []Check `json:"verify"`
}

// Object kinds.
const (
	KindCounter = "counter" // one padded 8-byte cell
	KindArray   = "array"   // Cells 8-byte cells, padded (one block each) or packed
	KindTable   = "table"   // open-addressing hash table of Slots words
	KindQueue   = "queue"   // head/tail/checksum words plus a slot array
)

// Object declares one shared-memory structure.
type Object struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Cells sizes arrays (counters are 1-cell arrays).
	Cells Num `json:"cells,omitempty"`
	// Padded places each array cell on its own cache block (the
	// default); false packs cells 8 bytes apart — the false-sharing
	// layout. Counters are always padded.
	Padded *bool `json:"padded,omitempty"`
	// Init is the initial value of every cell (arrays, counters).
	Init Num `json:"init,omitempty"`
	// Slots sizes tables. Probe totals must stay <= Slots/2.
	Slots Num `json:"slots,omitempty"`
	// Capacity sizes queues and must cover the total pushes (the queue
	// is an append log plus cursors, not a wrapping ring, so the oracle
	// stays exact).
	Capacity Num `json:"capacity,omitempty"`
}

// Group is one weighted thread group with its phase list.
type Group struct {
	// Weight splits the build-time thread count across groups
	// (largest-remainder, every group gets at least one thread when
	// threads >= groups). Default 1.
	Weight Num `json:"weight,omitempty"`
	// Phases run in order; {"barrier": true} entries are global epoch
	// boundaries aligned across all groups.
	Phases []Phase `json:"phases"`
}

// Phase is either a global barrier or a work region: Iters iterations
// (split across the group's threads) of the op list plus Busy private
// busy-loop iterations, transactional when Tx is set.
type Phase struct {
	Barrier bool `json:"barrier,omitempty"`
	// Tx wraps each iteration in TXBEGIN/TXCOMMIT. Mutations in
	// non-transactional phases race architecturally, which disqualifies
	// the touched objects from verification (a compile error if a check
	// asks for them).
	Tx bool `json:"tx,omitempty"`
	// Iters is the group-total iteration count (default 1).
	Iters Num `json:"iters,omitempty"`
	// Busy emits a private busy loop of this many iterations inside
	// each iteration (after the ops, before commit).
	Busy Num  `json:"busy,omitempty"`
	Ops  []Op `json:"ops,omitempty"`
}

// Op kinds.
const (
	OpRead     = "read"      // load from an array/counter cell
	OpWrite    = "write"     // store Value into an array/counter cell
	OpFetchAdd = "fetch_add" // cell += Delta (read-modify-write)
	OpProbe    = "probe"     // insert an auto-assigned distinct key into a table
	OpPush     = "push"      // append Value (or an auto sequence) to a queue
	OpPop      = "pop"       // consume one queue entry into the checksum
)

// Op is one operation of a phase's mix, executed N times per iteration.
type Op struct {
	Op     string `json:"op"`
	Object string `json:"object"`
	// Dist picks the target cell for read/write/fetch_add; default is
	// {"kind": "fixed", "cell": 0}. Ignored by probe/push/pop.
	Dist *Dist `json:"dist,omitempty"`
	// Delta is the fetch_add increment (default 1).
	Delta Num `json:"delta,omitempty"`
	// Value is the stored constant for write (default 1) and the pushed
	// value for push (default: the global push sequence 1,2,3,...).
	Value Num `json:"value,omitempty"`
	// N repeats the op within each iteration (default 1).
	N Num `json:"n,omitempty"`
	// Size is the access size for read/write: 1, 2, 4 or 8 (default 8).
	Size Num `json:"size,omitempty"`
}

// Distribution kinds.
const (
	DistFixed       = "fixed"       // always Cell
	DistUniform     = "uniform"     // uniform over all cells
	DistZipfian     = "zipfian"     // zipf(s) over cells 0..n-1 (cell 0 hottest)
	DistHotSet      = "hotset"      // HotProb -> uniform over the first HotCells, else the rest
	DistStride      = "stride"      // deterministic (threadBase + i*Stride) mod cells
	DistPartitioned = "partitioned" // uniform within the thread's own contiguous partition
)

// Dist selects the access pattern of one op.
type Dist struct {
	Kind string `json:"kind"`
	Cell Num    `json:"cell,omitempty"`
	// S is the zipfian skew exponent (0 = uniform, ~1.2 = heavily
	// skewed toward cell 0).
	S        Num `json:"s,omitempty"`
	HotCells Num `json:"hot_cells,omitempty"`
	// HotProb in [0,1] is the probability of hitting the hot set.
	HotProb Num `json:"hot_prob,omitempty"`
	Stride  Num `json:"stride,omitempty"`
}

// Check kinds.
const (
	CheckCells    = "cells"    // every cell equals its statically-expected value
	CheckSum      = "sum"      // the cells sum to the statically-expected total
	CheckKeys     = "keys"     // the table holds exactly the probed keys
	CheckBalanced = "balanced" // head == tail == pushes, checksum == sum of pushed values
)

// Check is one final-state assertion over a named object.
type Check struct {
	Check  string `json:"check"`
	Object string `json:"object"`
	// Value optionally declares the expected sum for a "sum" check; the
	// compiler cross-checks it against the computed expectation and
	// rejects the spec on mismatch (a declared oracle that cannot
	// silently drift from the op mix).
	Value Num `json:"value,omitempty"`
}

// Num is a JSON number or a "$param" reference resolved at compile time.
type Num struct {
	present bool
	ref     string
	val     float64
}

// Lit returns a literal Num (for building specs in Go).
func Lit(v float64) Num { return Num{present: true, val: v} }

// ParamRef returns a Num referencing the named parameter.
func ParamRef(name string) Num { return Num{present: true, ref: name} }

// IsZero reports whether the field was absent from the JSON document.
func (n Num) IsZero() bool { return !n.present }

// String renders the literal value or the $reference.
func (n Num) String() string {
	if !n.present {
		return "<default>"
	}
	if n.ref != "" {
		return "$" + n.ref
	}
	return strconv.FormatFloat(n.val, 'g', -1, 64)
}

// UnmarshalJSON accepts a number, a "$name" string, or null (absent —
// so marshalled specs, where struct-typed Num fields cannot be
// omitempty, round-trip).
func (n *Num) UnmarshalJSON(b []byte) error {
	b = bytes.TrimSpace(b)
	if string(b) == "null" {
		*n = Num{}
		return nil
	}
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		if !strings.HasPrefix(s, "$") || len(s) < 2 {
			return fmt.Errorf("wspec: string value %q is not a \"$param\" reference", s)
		}
		*n = Num{present: true, ref: s[1:]}
		return nil
	}
	var f float64
	if err := json.Unmarshal(b, &f); err != nil {
		return err
	}
	*n = Num{present: true, val: f}
	return nil
}

// MarshalJSON round-trips the literal or reference form.
func (n Num) MarshalJSON() ([]byte, error) {
	if !n.present {
		return []byte("null"), nil
	}
	if n.ref != "" {
		return json.Marshal("$" + n.ref)
	}
	return json.Marshal(n.val)
}

// resolve returns the literal value, the referenced parameter, or def
// when the field was absent.
func (n Num) resolve(params map[string]float64, def float64) (float64, error) {
	if !n.present {
		return def, nil
	}
	if n.ref == "" {
		return n.val, nil
	}
	v, ok := params[n.ref]
	if !ok {
		return 0, fmt.Errorf("undeclared parameter %q", n.ref)
	}
	return v, nil
}

// Parse decodes one spec document. Unknown fields are rejected so typos
// fail loudly.
func Parse(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("wspec: parse spec: %w", err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return nil, fmt.Errorf("wspec: parse spec: trailing content after the spec object")
	}
	return &s, nil
}

// LoadFile reads and parses one spec file.
func LoadFile(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("wspec: %w", err)
	}
	defer f.Close()
	s, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("wspec: %s: %w", path, err)
	}
	return s, nil
}

// Validate resolves the spec with its default parameters and runs every
// compile-time check, without constructing a workload.
func (s *Spec) Validate() error {
	_, err := s.Compile("", nil)
	return err
}
