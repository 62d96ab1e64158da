package lab

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// Metric is a compiled arithmetic expression over the per-run result
// fields ("speedup", "aborts / commits", "cycles - baseline_cycles").
// Grammar: the four binary operators with the usual precedence, unary
// minus, parentheses, decimal literals, and the field identifiers in
// MetricVars. Evaluation follows IEEE float semantics (division by zero
// yields an infinity the harness flags as an anomaly), so a metric value
// is a pure deterministic function of the run's Result.
type Metric struct {
	src  string
	root mnode
	uses map[string]bool
}

// ParseMetric compiles src, rejecting unknown identifiers up front so a
// typo'd field fails at validation, not mid-grid.
func ParseMetric(src string) (*Metric, error) {
	p := &mparser{src: src, uses: make(map[string]bool)}
	root, err := p.parse()
	if err != nil {
		return nil, fmt.Errorf("lab: metric %q: %w", src, err)
	}
	return &Metric{src: src, root: root, uses: p.uses}, nil
}

// String returns the source expression.
func (m *Metric) String() string { return m.src }

// Uses reports whether the expression references the named field.
func (m *Metric) Uses(name string) bool { return m.uses[name] }

// Eval computes the metric over one run's environment.
func (m *Metric) Eval(env map[string]float64) float64 { return m.root.eval(env) }

// mnode is one compiled expression node.
type mnode interface {
	eval(env map[string]float64) float64
}

type mnum float64

func (n mnum) eval(map[string]float64) float64 { return float64(n) }

type mvar string

func (v mvar) eval(env map[string]float64) float64 { return env[string(v)] }

type mbin struct {
	op   byte
	l, r mnode
}

func (b mbin) eval(env map[string]float64) float64 {
	l, r := b.l.eval(env), b.r.eval(env)
	switch b.op {
	case '+':
		return l + r
	case '-':
		return l - r
	case '*':
		return l * r
	}
	return l / r
}

type mneg struct{ x mnode }

func (n mneg) eval(env map[string]float64) float64 { return -n.x.eval(env) }

// mparser is a tiny recursive-descent parser.
type mparser struct {
	src  string
	pos  int
	uses map[string]bool
}

func (p *mparser) parse() (mnode, error) {
	n, err := p.expr()
	if err != nil {
		return nil, err
	}
	p.skip()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("unexpected %q at offset %d", p.src[p.pos:], p.pos)
	}
	return n, nil
}

func (p *mparser) skip() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t') {
		p.pos++
	}
}

func (p *mparser) peek() byte {
	p.skip()
	if p.pos < len(p.src) {
		return p.src[p.pos]
	}
	return 0
}

func (p *mparser) expr() (mnode, error) {
	n, err := p.term()
	if err != nil {
		return nil, err
	}
	for {
		switch p.peek() {
		case '+', '-':
			op := p.src[p.pos]
			p.pos++
			r, err := p.term()
			if err != nil {
				return nil, err
			}
			n = mbin{op: op, l: n, r: r}
		default:
			return n, nil
		}
	}
}

func (p *mparser) term() (mnode, error) {
	n, err := p.factor()
	if err != nil {
		return nil, err
	}
	for {
		switch p.peek() {
		case '*', '/':
			op := p.src[p.pos]
			p.pos++
			r, err := p.factor()
			if err != nil {
				return nil, err
			}
			n = mbin{op: op, l: n, r: r}
		default:
			return n, nil
		}
	}
}

func (p *mparser) factor() (mnode, error) {
	switch c := p.peek(); {
	case c == '(':
		p.pos++
		n, err := p.expr()
		if err != nil {
			return nil, err
		}
		if p.peek() != ')' {
			return nil, fmt.Errorf("missing ')' at offset %d", p.pos)
		}
		p.pos++
		return n, nil
	case c == '-':
		p.pos++
		n, err := p.factor()
		if err != nil {
			return nil, err
		}
		return mneg{n}, nil
	case c >= '0' && c <= '9' || c == '.':
		start := p.pos
		for p.pos < len(p.src) {
			c := p.src[p.pos]
			if c >= '0' && c <= '9' || c == '.' || c == 'e' || c == 'E' {
				p.pos++
				continue
			}
			if (c == '+' || c == '-') && p.pos > start &&
				(p.src[p.pos-1] == 'e' || p.src[p.pos-1] == 'E') {
				p.pos++
				continue
			}
			break
		}
		v, err := strconv.ParseFloat(p.src[start:p.pos], 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q", p.src[start:p.pos])
		}
		return mnum(v), nil
	case c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z':
		start := p.pos
		for p.pos < len(p.src) {
			c := p.src[p.pos]
			if c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' {
				p.pos++
				continue
			}
			break
		}
		name := p.src[start:p.pos]
		if !metricVarSet[name] {
			return nil, fmt.Errorf("unknown field %q (have %s)", name, strings.Join(MetricVars(), ", "))
		}
		p.uses[name] = true
		return mvar(name), nil
	case c == 0:
		return nil, fmt.Errorf("unexpected end of expression")
	default:
		return nil, fmt.Errorf("unexpected %q at offset %d", string(c), p.pos)
	}
}

// metricVarSet names every field a metric may reference. The values come
// from the run's sim.Result (plus the attached 1-core eager baseline for
// speedup), mirroring the sweep.Record schema where the two overlap.
var metricVarSet = map[string]bool{
	"cycles":                true,
	"instrs":                true,
	"commits":               true,
	"aborts":                true,
	"nacks":                 true,
	"overflows":             true,
	"busy_frac":             true,
	"barrier_frac":          true,
	"conflict_frac":         true,
	"other_frac":            true,
	"baseline_cycles":       true,
	"speedup":               true,
	"retcon_txs":            true,
	"commit_cycles":         true,
	"so_aborts":             true,
	"constraint_violations": true,
	"fold_rejects":          true,
}

// MetricVars lists the available metric fields in sorted order.
func MetricVars() []string {
	names := make([]string, 0, len(metricVarSet))
	for n := range metricVarSet {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// needsBaseline reports whether the metric references a field computed
// from the 1-core eager baseline.
func (m *Metric) needsBaseline() bool {
	return m.Uses("speedup") || m.Uses("baseline_cycles")
}

// runEnv flattens one successful outcome (plus its optional baseline
// cycles) into the metric environment.
func runEnv(res *sim.Result, baseCycles int64, haveBase bool) map[string]float64 {
	t := res.Totals()
	bd := res.Breakdown()
	env := map[string]float64{
		"cycles":                float64(res.Cycles),
		"instrs":                float64(t.Instrs),
		"commits":               float64(t.Commits),
		"aborts":                float64(t.Aborts),
		"nacks":                 float64(t.Nacks),
		"overflows":             float64(res.Metrics.AbortCause[telemetry.CauseSpecOverflow]),
		"busy_frac":             bd[sim.CatBusy],
		"barrier_frac":          bd[sim.CatBarrier],
		"conflict_frac":         bd[sim.CatConflict],
		"other_frac":            bd[sim.CatOther],
		"retcon_txs":            float64(res.Retcon.Txs),
		"commit_cycles":         float64(res.Retcon.SumCommitCycles),
		"so_aborts":             float64(res.Metrics.AbortCause[telemetry.CauseStructOverflow]),
		"constraint_violations": float64(res.Metrics.AbortCause[telemetry.CauseConstraintViolation]),
		"fold_rejects":          float64(res.Metrics.AbortCause[telemetry.CauseUnfoldableConstraint]),
	}
	if haveBase && res.Cycles > 0 {
		env["baseline_cycles"] = float64(baseCycles)
		env["speedup"] = float64(baseCycles) / float64(res.Cycles)
	}
	return env
}

// metricValue evaluates the metric for one grid outcome.
func (m *Metric) metricValue(o sweep.Outcome, bix *sweep.BaselineIndex, withBase bool) (float64, error) {
	if o.Err != nil {
		return 0, o.Err
	}
	var baseCycles int64
	haveBase := false
	if withBase {
		if bc, ok := bix.Cycles(o.Run); ok {
			baseCycles, haveBase = bc, true
		} else if m.needsBaseline() {
			return 0, fmt.Errorf("lab: no baseline cycles for %s seed %d", o.Run.Workload, o.Run.Seed)
		}
	}
	return m.Eval(runEnv(o.Res, baseCycles, haveBase)), nil
}
