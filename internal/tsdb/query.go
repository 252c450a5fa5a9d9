package tsdb

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file is the query engine that turns the passive sample sink into a
// monitoring plane: a small PromQL-flavoured evaluator over stored series.
// Supported surface (see docs/observability.md "Monitoring plane"):
//
//	metric{label="v"}                     instant selector (5m staleness lookback)
//	rate(sel[5m]) / increase(sel[5m])     counter semantics with reset detection
//	sum/avg/min/max/count by (l1,l2) (e)  label aggregation
//	histogram_quantile(0.99, e)           from cumulative _bucket series
//	e1 + - * / e2                         one-to-one on label identity
//	e1 > < >= <= == != e2                 filters (vector cmp scalar/vector)
//	e1 and e2                             intersection on label identity
//
// Deliberate deviations from Prometheus, chosen for a hand-checkable spec:
// rate() divides the reset-adjusted delta by the observed sample span (no
// range extrapolation), and increase() returns the reset-adjusted delta
// itself. Both need at least two samples in the window.

// lookbackSec is the staleness window for instant selectors: the newest
// sample within [t-5m, t] represents the series at t.
const lookbackSec = 5 * 60

// Point is one element of an instant vector: a label identity and a value.
type Point struct {
	Labels Labels
	V      float64
}

// Vector is the result of evaluating an expression at one instant.
type Vector []Point

// Instant parses and evaluates expr at time ts (unix seconds). A scalar
// result becomes a single point with empty labels.
func (db *DB) Instant(expr string, ts int64) (Vector, error) {
	n, err := ParseExpr(expr)
	if err != nil {
		return nil, err
	}
	return db.evalInstant(n, ts)
}

// Range evaluates expr at each step in [from, to] (inclusive) and assembles
// the per-instant vectors into series keyed by label identity. NaN points
// are skipped.
func (db *DB) Range(expr string, from, to, step int64) ([]Series, error) {
	if step <= 0 {
		return nil, fmt.Errorf("tsdb: query step must be positive, got %d", step)
	}
	if to < from {
		return nil, fmt.Errorf("tsdb: query range end %d before start %d", to, from)
	}
	if (to-from)/step > 10000 {
		return nil, fmt.Errorf("tsdb: query resolves to more than 10000 steps; raise step or narrow the range")
	}
	n, err := ParseExpr(expr)
	if err != nil {
		return nil, err
	}
	byFP := make(map[string]*Series)
	var order []string
	for ts := from; ts <= to; ts += step {
		vec, err := db.evalInstant(n, ts)
		if err != nil {
			return nil, err
		}
		for _, p := range vec {
			if math.IsNaN(p.V) {
				continue
			}
			fp := p.Labels.Fingerprint()
			s, ok := byFP[fp]
			if !ok {
				s = &Series{Labels: p.Labels.Clone()}
				byFP[fp] = s
				order = append(order, fp)
			}
			s.Samples = append(s.Samples, Sample{T: ts, V: p.V})
		}
	}
	sort.Strings(order)
	out := make([]Series, 0, len(order))
	for _, fp := range order {
		out = append(out, *byFP[fp])
	}
	return out, nil
}

// ── AST ─────────────────────────────────────────────────────────────────

type exprNode interface{ exprString() string }

type numberNode float64

type selectorNode struct {
	name     string
	matchers Labels
	rangeSec int64 // >0 only inside rate()/increase()
}

type callNode struct {
	fn  string // rate | increase | histogram_quantile
	q   float64
	arg exprNode
}

type aggNode struct {
	op  string // sum | avg | min | max | count
	by  []string
	arg exprNode
}

type binNode struct {
	op       string
	lhs, rhs exprNode
}

func (n numberNode) exprString() string { return strconv.FormatFloat(float64(n), 'g', -1, 64) }
func (n *selectorNode) exprString() string {
	s := n.name
	if len(n.matchers) > 0 {
		s += "{" + n.matchers.Fingerprint() + "}"
	}
	if n.rangeSec > 0 {
		s += "[" + strconv.FormatInt(n.rangeSec, 10) + "s]"
	}
	return s
}
func (n *callNode) exprString() string { return n.fn + "(...)" }
func (n *aggNode) exprString() string  { return n.op + "(...)" }
func (n *binNode) exprString() string {
	return "(" + n.lhs.exprString() + n.op + n.rhs.exprString() + ")"
}

// ── Lexer ───────────────────────────────────────────────────────────────

type token struct {
	kind string // ident, number, string, op, punct, eof
	text string
	pos  int
}

func isIdentStart(c byte) bool {
	return c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

func lex(in string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(in) {
		c := in[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case isIdentStart(c):
			j := i + 1
			for j < len(in) && isIdentPart(in[j]) {
				j++
			}
			toks = append(toks, token{"ident", in[i:j], i})
			i = j
		case c >= '0' && c <= '9' || c == '.':
			j := i + 1
			for j < len(in) && (in[j] >= '0' && in[j] <= '9' || in[j] == '.' || in[j] == 'e' || in[j] == 'E' ||
				((in[j] == '+' || in[j] == '-') && (in[j-1] == 'e' || in[j-1] == 'E'))) {
				j++
			}
			// A duration like 5m inside brackets: digits followed by a unit
			// letter. Lex the unit into the number token and sort it out in
			// the parser (only valid in a range selector).
			for j < len(in) && (in[j] == 's' || in[j] == 'm' || in[j] == 'h' || in[j] == 'd' ||
				(in[j] >= '0' && in[j] <= '9')) {
				j++
			}
			toks = append(toks, token{"number", in[i:j], i})
			i = j
		case c == '"':
			j := i + 1
			for j < len(in) && in[j] != '"' {
				if in[j] == '\\' {
					j++
				}
				j++
			}
			if j >= len(in) {
				return nil, fmt.Errorf("tsdb: unterminated string at %d", i)
			}
			toks = append(toks, token{"string", in[i+1 : j], i})
			i = j + 1
		case strings.ContainsRune("{}()[],", rune(c)):
			toks = append(toks, token{"punct", string(c), i})
			i++
		case strings.ContainsRune("+-*/=<>!", rune(c)):
			j := i + 1
			if j < len(in) && in[j] == '=' && (c == '<' || c == '>' || c == '=' || c == '!') {
				j++
			}
			toks = append(toks, token{"op", in[i:j], i})
			i = j
		default:
			return nil, fmt.Errorf("tsdb: unexpected character %q at %d", c, i)
		}
	}
	toks = append(toks, token{kind: "eof", pos: len(in)})
	return toks, nil
}

// ── Parser ──────────────────────────────────────────────────────────────

type parser struct {
	toks []token
	pos  int
	// rangeErr is the first misplaced or missing range selector. It is
	// reported only once the whole input has parsed, so a syntax error
	// anywhere still wins.
	rangeErr error
}

// ParseExpr parses a query expression into an evaluable AST, validating
// function arities and range-selector placement.
func ParseExpr(in string) (exprNode, error) {
	if strings.TrimSpace(in) == "" {
		return nil, fmt.Errorf("tsdb: empty query expression")
	}
	toks, err := lex(in)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	n, err := p.parseExpr(1)
	if err != nil {
		return nil, err
	}
	if t := p.peek(); t.kind != "eof" {
		return nil, fmt.Errorf("tsdb: unexpected %q at %d", t.text, t.pos)
	}
	if p.rangeErr != nil {
		return nil, p.rangeErr
	}
	return n, nil
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) expect(kind, text string) (token, error) {
	t := p.next()
	if t.kind != kind || (text != "" && t.text != text) {
		return t, fmt.Errorf("tsdb: expected %q at %d, got %q", text, t.pos, t.text)
	}
	return t, nil
}

// binOps is the binary-operator table. prec ranks the operators loosest
// first: and, comparisons, + -, * /. Equal ranks associate left, except
// comparisons, which do not chain: a > b > c is an error. fn is the element
// function: the value to emit and whether the element survives. x/0 is NaN
// and drops the element; a comparison's value is 1 or 0, which only a
// scalar∘scalar result keeps (a vector element that passes is kept as is).
var binOps = map[string]struct {
	prec int
	fn   func(l, r float64) (float64, bool)
}{
	"and": {1, func(l, _ float64) (float64, bool) { return l, true }},
	">":   {cmpPrec, func(l, r float64) (float64, bool) { return truth(l > r) }},
	"<":   {cmpPrec, func(l, r float64) (float64, bool) { return truth(l < r) }},
	">=":  {cmpPrec, func(l, r float64) (float64, bool) { return truth(l >= r) }},
	"<=":  {cmpPrec, func(l, r float64) (float64, bool) { return truth(l <= r) }},
	"==":  {cmpPrec, func(l, r float64) (float64, bool) { return truth(l == r) }},
	"!=":  {cmpPrec, func(l, r float64) (float64, bool) { return truth(l != r) }},
	"+":   {3, func(l, r float64) (float64, bool) { return l + r, true }},
	"-":   {3, func(l, r float64) (float64, bool) { return l - r, true }},
	"*":   {4, func(l, r float64) (float64, bool) { return l * r, true }},
	"/": {4, func(l, r float64) (float64, bool) {
		if r == 0 {
			return math.NaN(), false
		}
		return l / r, true
	}},
}

const cmpPrec = 2

func truth(ok bool) (float64, bool) {
	if ok {
		return 1, true
	}
	return 0, false
}

// parseExpr climbs precedence: it parses a primary, then folds in every
// binary operator ranked at least minPrec. After an operator of rank r only
// rank ≤ r may follow at this level (< r after a comparison), which is the
// grammar and := cmp {and cmp}, cmp := add [cmpop add], add := mul {+- mul},
// mul := primary {*/ primary}.
func (p *parser) parseExpr(minPrec int) (exprNode, error) {
	lhs, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	ceil := 4 // the tightest rank
	for {
		t := p.peek()
		prec := binOps[t.text].prec // 0 for anything but an operator
		if t.kind != "op" && t.kind != "ident" || prec < minPrec || prec > ceil {
			return lhs, nil
		}
		p.next()
		rhs, err := p.parseExpr(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &binNode{op: t.text, lhs: lhs, rhs: rhs}
		ceil = prec
		if prec == cmpPrec {
			ceil--
		}
	}
}

func (p *parser) parsePrimary() (exprNode, error) {
	t := p.peek()
	switch {
	case t.kind == "number":
		p.next()
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, fmt.Errorf("tsdb: bad number %q at %d", t.text, t.pos)
		}
		return numberNode(v), nil
	case t.kind == "op" && t.text == "-":
		p.next()
		inner, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		num, ok := inner.(numberNode)
		if !ok {
			return nil, fmt.Errorf("tsdb: unary minus only applies to numbers (at %d)", t.pos)
		}
		return numberNode(-float64(num)), nil
	case t.kind == "punct" && t.text == "(":
		p.next()
		inner, err := p.parseExpr(1)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect("punct", ")"); err != nil {
			return nil, err
		}
		return inner, nil
	case t.kind == "ident":
		return p.parseIdent()
	}
	return nil, fmt.Errorf("tsdb: unexpected %q at %d", t.text, t.pos)
}

func (p *parser) parseIdent() (exprNode, error) {
	t := p.next()
	switch t.text {
	case "sum", "avg", "min", "max", "count":
		return p.parseAgg(t.text)
	case "rate", "increase":
		if _, err := p.expect("punct", "("); err != nil {
			return nil, err
		}
		sel, err := p.parseSelector(true)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect("punct", ")"); err != nil {
			return nil, err
		}
		return &callNode{fn: t.text, arg: sel}, nil
	case "histogram_quantile":
		if _, err := p.expect("punct", "("); err != nil {
			return nil, err
		}
		qTok, err := p.expect("number", "")
		if err != nil {
			return nil, fmt.Errorf("tsdb: histogram_quantile wants a numeric quantile first: %w", err)
		}
		q, err := strconv.ParseFloat(qTok.text, 64)
		if err != nil || q < 0 || q > 1 {
			return nil, fmt.Errorf("tsdb: histogram_quantile quantile %q out of [0,1]", qTok.text)
		}
		if _, err := p.expect("punct", ","); err != nil {
			return nil, err
		}
		arg, err := p.parseExpr(1)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect("punct", ")"); err != nil {
			return nil, err
		}
		return &callNode{fn: "histogram_quantile", q: q, arg: arg}, nil
	default:
		p.pos-- // selector consumes its own name token
		return p.parseSelector(false)
	}
}

func (p *parser) parseAgg(op string) (exprNode, error) {
	n := &aggNode{op: op}
	if t := p.peek(); t.kind == "ident" && t.text == "by" {
		p.next()
		if _, err := p.expect("punct", "("); err != nil {
			return nil, err
		}
		for {
			lt, err := p.expect("ident", "")
			if err != nil {
				return nil, err
			}
			n.by = append(n.by, lt.text)
			if p.peek().text == "," {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expect("punct", ")"); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect("punct", "("); err != nil {
		return nil, err
	}
	arg, err := p.parseExpr(1)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect("punct", ")"); err != nil {
		return nil, err
	}
	n.arg = arg
	return n, nil
}

// parseSelector parses name{matchers}[range]. Directly under rate() or
// increase() (inRate) the range is required; anywhere else it is rejected.
func (p *parser) parseSelector(inRate bool) (exprNode, error) {
	t, err := p.expect("ident", "")
	if err != nil {
		return nil, fmt.Errorf("tsdb: expected a metric name at %d", t.pos)
	}
	sel := &selectorNode{name: t.text, matchers: Labels{}}
	if p.peek().text == "{" {
		p.next()
		for p.peek().text != "}" {
			k, err := p.expect("ident", "")
			if err != nil {
				return nil, err
			}
			if _, err := p.expect("op", "="); err != nil {
				return nil, fmt.Errorf("tsdb: label matchers are equality-only: %w", err)
			}
			v, err := p.expect("string", "")
			if err != nil {
				return nil, err
			}
			sel.matchers[k.text] = v.text
			if p.peek().text == "," {
				p.next()
			}
		}
		p.next() // consume }
	}
	if p.peek().text == "[" {
		p.next()
		d, err := p.expect("number", "")
		if err != nil {
			return nil, err
		}
		dur, err := parseDuration(d.text)
		if err != nil {
			return nil, err
		}
		sel.rangeSec = dur
		if _, err := p.expect("punct", "]"); err != nil {
			return nil, err
		}
	}
	if p.rangeErr == nil {
		switch {
		case sel.rangeSec > 0 && !inRate:
			p.rangeErr = fmt.Errorf("tsdb: range selector %s only valid inside rate() or increase()", sel.exprString())
		case sel.rangeSec == 0 && inRate:
			p.rangeErr = fmt.Errorf("tsdb: rate()/increase() need a range selector like %s[5m]", sel.name)
		}
	}
	return sel, nil
}

// parseDuration understands 30s / 5m / 1h / 2d and bare seconds.
func parseDuration(s string) (int64, error) {
	mult := int64(1)
	num := s
	switch {
	case strings.HasSuffix(s, "s"):
		num = s[:len(s)-1]
	case strings.HasSuffix(s, "m"):
		num, mult = s[:len(s)-1], 60
	case strings.HasSuffix(s, "h"):
		num, mult = s[:len(s)-1], 3600
	case strings.HasSuffix(s, "d"):
		num, mult = s[:len(s)-1], 86400
	}
	n, err := strconv.ParseInt(num, 10, 64)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("tsdb: bad duration %q", s)
	}
	return n * mult, nil
}

// ── Evaluator ───────────────────────────────────────────────────────────

// value is either a scalar (float64) or a Vector.
type value struct {
	scalar float64
	vec    Vector
	isVec  bool
}

func scalarVal(v float64) value { return value{scalar: v} }
func vecVal(v Vector) value     { return value{vec: v, isVec: true} }

func (db *DB) evalInstant(n exprNode, ts int64) (Vector, error) {
	v, err := db.eval(n, ts)
	if err != nil {
		return nil, err
	}
	if !v.isVec {
		return Vector{{Labels: Labels{}, V: v.scalar}}, nil
	}
	return v.vec, nil
}

func (db *DB) eval(n exprNode, ts int64) (value, error) {
	switch node := n.(type) {
	case numberNode:
		return scalarVal(float64(node)), nil
	case *selectorNode:
		return vecVal(db.evalSelector(node, ts)), nil
	case *callNode:
		return db.evalCall(node, ts)
	case *aggNode:
		return db.evalAgg(node, ts)
	case *binNode:
		return db.evalBin(node, ts)
	}
	return value{}, fmt.Errorf("tsdb: unknown expression node %T", n)
}

// evalSelector resolves an instant selector: the newest sample of each
// matching series within the staleness window.
func (db *DB) evalSelector(sel *selectorNode, ts int64) Vector {
	matcher := sel.matchers.Clone()
	matcher["__name__"] = sel.name
	series := db.Query(matcher, ts-lookbackSec, ts)
	var out Vector
	for _, s := range series {
		if len(s.Samples) == 0 {
			continue
		}
		out = append(out, Point{Labels: s.Labels, V: s.Samples[len(s.Samples)-1].V})
	}
	return out
}

func (db *DB) evalCall(c *callNode, ts int64) (value, error) {
	switch c.fn {
	case "rate", "increase":
		sel := c.arg.(*selectorNode) // guaranteed by the parser
		matcher := sel.matchers.Clone()
		matcher["__name__"] = sel.name
		series := db.Query(matcher, ts-sel.rangeSec, ts)
		var out Vector
		for _, s := range series {
			if len(s.Samples) < 2 {
				continue
			}
			delta := counterDelta(s.Samples)
			dt := s.Samples[len(s.Samples)-1].T - s.Samples[0].T
			if dt <= 0 {
				continue
			}
			v := delta
			if c.fn == "rate" {
				v = delta / float64(dt)
			}
			out = append(out, Point{Labels: dropName(s.Labels), V: v})
		}
		return vecVal(out), nil
	case "histogram_quantile":
		arg, err := db.eval(c.arg, ts)
		if err != nil {
			return value{}, err
		}
		if !arg.isVec {
			return value{}, fmt.Errorf("tsdb: histogram_quantile needs a vector of _bucket series")
		}
		return vecVal(histogramQuantile(c.q, arg.vec)), nil
	}
	return value{}, fmt.Errorf("tsdb: unknown function %q", c.fn)
}

// counterDelta sums the increases of a counter over the window, detecting
// resets: whenever a sample is below its predecessor the counter restarted,
// so the predecessor's value is added to the running offset (the standard
// Prometheus adjustment).
func counterDelta(samples []Sample) float64 {
	first := samples[0].V
	prev := first
	offset := 0.0
	for _, s := range samples[1:] {
		if s.V < prev {
			offset += prev
		}
		prev = s.V
	}
	return prev - first + offset
}

func dropName(l Labels) Labels {
	out := make(Labels, len(l))
	for k, v := range l {
		if k != "__name__" {
			out[k] = v
		}
	}
	return out
}

// histogramQuantile reconstructs the q-quantile per bucket group. Input
// points carry an le label with the bucket's upper bound and cumulative
// counts (or cumulative rates — any monotone-in-le quantity works). The
// result interpolates linearly within the located bucket; a quantile landing
// in the +Inf bucket returns the highest finite bound.
func histogramQuantile(q float64, vec Vector) Vector {
	type bucket struct {
		le  float64
		cum float64
	}
	groups := make(map[string][]bucket)
	groupLabels := make(map[string]Labels)
	for _, p := range vec {
		leStr, ok := p.Labels["le"]
		if !ok {
			continue
		}
		le, err := parseLE(leStr)
		if err != nil {
			continue
		}
		rest := make(Labels, len(p.Labels))
		for k, v := range p.Labels {
			if k != "le" && k != "__name__" {
				rest[k] = v
			}
		}
		fp := rest.Fingerprint()
		groups[fp] = append(groups[fp], bucket{le: le, cum: p.V})
		groupLabels[fp] = rest
	}
	fps := make([]string, 0, len(groups))
	for fp := range groups {
		fps = append(fps, fp)
	}
	sort.Strings(fps)
	var out Vector
	for _, fp := range fps {
		bs := groups[fp]
		sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
		// Enforce monotonicity: scraped cumulative counts can jitter when
		// buckets of one histogram land in different scrape cycles.
		for i := 1; i < len(bs); i++ {
			if bs[i].cum < bs[i-1].cum {
				bs[i].cum = bs[i-1].cum
			}
		}
		total := bs[len(bs)-1].cum
		if total <= 0 || len(bs) < 2 {
			continue
		}
		rank := q * total
		idx := sort.Search(len(bs), func(i int) bool { return bs[i].cum >= rank })
		if idx >= len(bs) {
			idx = len(bs) - 1
		}
		var v float64
		if math.IsInf(bs[idx].le, 1) {
			v = bs[idx-1].le // quantile beyond the last finite bound
		} else {
			lower, prevCum := 0.0, 0.0
			if idx > 0 {
				lower, prevCum = bs[idx-1].le, bs[idx-1].cum
			}
			width := bs[idx].le - lower
			inBucket := bs[idx].cum - prevCum
			if inBucket <= 0 {
				v = bs[idx].le
			} else {
				v = lower + width*(rank-prevCum)/inBucket
			}
		}
		out = append(out, Point{Labels: groupLabels[fp], V: v})
	}
	return out
}

func parseLE(s string) (float64, error) {
	if s == "+Inf" || s == "Inf" || s == "inf" {
		return math.Inf(1), nil
	}
	return strconv.ParseFloat(s, 64)
}

func (db *DB) evalAgg(a *aggNode, ts int64) (value, error) {
	arg, err := db.eval(a.arg, ts)
	if err != nil {
		return value{}, err
	}
	if !arg.isVec {
		return value{}, fmt.Errorf("tsdb: %s() aggregates a vector, got a scalar", a.op)
	}
	type group struct {
		labels        Labels
		sum, min, max float64
		n             int
	}
	groups := make(map[string]*group)
	var order []string
	for _, p := range arg.vec {
		kept := Labels{}
		for _, k := range a.by {
			if v, ok := p.Labels[k]; ok {
				kept[k] = v
			}
		}
		fp := kept.Fingerprint()
		g, ok := groups[fp]
		if !ok {
			g = &group{labels: kept, min: math.Inf(1), max: math.Inf(-1)}
			groups[fp] = g
			order = append(order, fp)
		}
		g.sum += p.V
		if p.V < g.min {
			g.min = p.V
		}
		if p.V > g.max {
			g.max = p.V
		}
		g.n++
	}
	sort.Strings(order)
	out := make(Vector, 0, len(order))
	for _, fp := range order {
		g := groups[fp]
		var v float64
		switch a.op {
		case "sum":
			v = g.sum
		case "avg":
			v = g.sum / float64(g.n)
		case "min":
			v = g.min
		case "max":
			v = g.max
		case "count":
			v = float64(g.n)
		}
		out = append(out, Point{Labels: g.labels, V: v})
	}
	return vecVal(out), nil
}

func (db *DB) evalBin(b *binNode, ts int64) (value, error) {
	lhs, err := db.eval(b.lhs, ts)
	if err != nil {
		return value{}, err
	}
	rhs, err := db.eval(b.rhs, ts)
	if err != nil {
		return value{}, err
	}
	if b.op == "and" && (!lhs.isVec || !rhs.isVec) {
		return value{}, fmt.Errorf("tsdb: 'and' needs vectors on both sides")
	}
	op := binOps[b.op]
	return match(lhs, rhs, op.fn, op.prec <= cmpPrec), nil
}

// match applies op element-wise: scalar∘scalar, a vector against a scalar
// broadcast on either side, or vector∘vector one-to-one on the label set
// without __name__ (the right side's last duplicate wins). An element op
// drops is left out. pass (and, comparisons) keeps a survivor as it was;
// otherwise (arithmetic) it becomes its labels without __name__ and op's
// value.
func match(lhs, rhs value, op func(l, r float64) (float64, bool), pass bool) value {
	if !lhs.isVec && !rhs.isVec {
		v, _ := op(lhs.scalar, rhs.scalar)
		return scalarVal(v)
	}
	var out Vector
	emit := func(p Point, l, r float64) {
		v, keep := op(l, r)
		switch {
		case !keep:
		case pass:
			out = append(out, p)
		default:
			out = append(out, Point{Labels: dropName(p.Labels), V: v})
		}
	}
	switch {
	case !rhs.isVec:
		for _, p := range lhs.vec {
			emit(p, p.V, rhs.scalar)
		}
	case !lhs.isVec:
		for _, p := range rhs.vec {
			emit(p, lhs.scalar, p.V)
		}
	default:
		right := make(map[string]float64, len(rhs.vec))
		for _, p := range rhs.vec {
			right[dropName(p.Labels).Fingerprint()] = p.V
		}
		for _, p := range lhs.vec {
			if r, ok := right[dropName(p.Labels).Fingerprint()]; ok {
				emit(p, p.V, r)
			}
		}
	}
	return vecVal(out)
}
