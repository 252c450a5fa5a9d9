package tsdb

// The parser as it stood before the precedence functions became one loop
// and the range-selector walk folded into the parser: lexer, recursive
// descent and validate, verbatim but for the ref prefix. FuzzParseExpr
// holds ParseExpr to it. It builds the same AST node types.

import (
	"fmt"
	"strconv"
	"strings"
)

// ── Lexer ───────────────────────────────────────────────────────────────

type refToken struct {
	kind string // ident, number, string, op, punct, eof
	text string
	pos  int
}

func refIsIdentStart(c byte) bool {
	return c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func refIsIdentPart(c byte) bool {
	return refIsIdentStart(c) || (c >= '0' && c <= '9')
}

func refLex(in string) ([]refToken, error) {
	var toks []refToken
	i := 0
	for i < len(in) {
		c := in[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case refIsIdentStart(c):
			j := i + 1
			for j < len(in) && refIsIdentPart(in[j]) {
				j++
			}
			toks = append(toks, refToken{"ident", in[i:j], i})
			i = j
		case c >= '0' && c <= '9' || c == '.':
			j := i + 1
			for j < len(in) && (in[j] >= '0' && in[j] <= '9' || in[j] == '.' || in[j] == 'e' || in[j] == 'E' ||
				((in[j] == '+' || in[j] == '-') && (in[j-1] == 'e' || in[j-1] == 'E'))) {
				j++
			}
			// A duration like 5m inside brackets: digits followed by a unit
			// letter. Lex the unit into the number refToken and sort it out in
			// the refParser (only valid in a range selector).
			for j < len(in) && (in[j] == 's' || in[j] == 'm' || in[j] == 'h' || in[j] == 'd' ||
				(in[j] >= '0' && in[j] <= '9')) {
				j++
			}
			toks = append(toks, refToken{"number", in[i:j], i})
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
			toks = append(toks, refToken{"string", in[i+1 : j], i})
			i = j + 1
		case strings.ContainsRune("{}()[],", rune(c)):
			toks = append(toks, refToken{"punct", string(c), i})
			i++
		case strings.ContainsRune("+-*/=<>!", rune(c)):
			j := i + 1
			if j < len(in) && in[j] == '=' && (c == '<' || c == '>' || c == '=' || c == '!') {
				j++
			}
			toks = append(toks, refToken{"op", in[i:j], i})
			i = j
		default:
			return nil, fmt.Errorf("tsdb: unexpected character %q at %d", c, i)
		}
	}
	toks = append(toks, refToken{kind: "eof", pos: len(in)})
	return toks, nil
}

// ── Parser ──────────────────────────────────────────────────────────────

type refParser struct {
	toks []refToken
	pos  int
}

// refParseExpr parses a query expression into an evaluable AST, validating
// function arities and range-selector placement.
func refParseExpr(in string) (exprNode, error) {
	if strings.TrimSpace(in) == "" {
		return nil, fmt.Errorf("tsdb: empty query expression")
	}
	toks, err := refLex(in)
	if err != nil {
		return nil, err
	}
	p := &refParser{toks: toks}
	n, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if t := p.peek(); t.kind != "eof" {
		return nil, fmt.Errorf("tsdb: unexpected %q at %d", t.text, t.pos)
	}
	if err := refValidate(n, false); err != nil {
		return nil, err
	}
	return n, nil
}

// refValidate rejects range selectors anywhere but directly under rate() or
// increase().
func refValidate(n exprNode, underRange bool) error {
	switch v := n.(type) {
	case *selectorNode:
		if v.rangeSec > 0 && !underRange {
			return fmt.Errorf("tsdb: range selector %s only valid inside rate() or increase()", v.exprString())
		}
		if v.rangeSec == 0 && underRange {
			return fmt.Errorf("tsdb: rate()/increase() need a range selector like %s[5m]", v.name)
		}
	case *callNode:
		if v.fn == "rate" || v.fn == "increase" {
			sel, ok := v.arg.(*selectorNode)
			if !ok {
				return fmt.Errorf("tsdb: %s() takes a range selector argument", v.fn)
			}
			return refValidate(sel, true)
		}
		return refValidate(v.arg, false)
	case *aggNode:
		return refValidate(v.arg, false)
	case *binNode:
		if err := refValidate(v.lhs, false); err != nil {
			return err
		}
		return refValidate(v.rhs, false)
	}
	return nil
}

func (p *refParser) peek() refToken { return p.toks[p.pos] }
func (p *refParser) next() refToken { t := p.toks[p.pos]; p.pos++; return t }
func (p *refParser) expect(kind, text string) (refToken, error) {
	t := p.next()
	if t.kind != kind || (text != "" && t.text != text) {
		return t, fmt.Errorf("tsdb: expected %q at %d, got %q", text, t.pos, t.text)
	}
	return t, nil
}

// Precedence (loosest to tightest): and, comparisons, + -, * /.
func (p *refParser) parseExpr() (exprNode, error) { return p.parseAnd() }

func (p *refParser) parseAnd() (exprNode, error) {
	lhs, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == "ident" && p.peek().text == "and" {
		p.next()
		rhs, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		lhs = &binNode{op: "and", lhs: lhs, rhs: rhs}
	}
	return lhs, nil
}

func (p *refParser) parseCmp() (exprNode, error) {
	lhs, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if t := p.peek(); t.kind == "op" && refIsCmpOp(t.text) {
		p.next()
		rhs, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &binNode{op: t.text, lhs: lhs, rhs: rhs}, nil
	}
	return lhs, nil
}

func refIsCmpOp(op string) bool {
	switch op {
	case ">", "<", ">=", "<=", "==", "!=":
		return true
	}
	return false
}

func (p *refParser) parseAdd() (exprNode, error) {
	lhs, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != "op" || (t.text != "+" && t.text != "-") {
			return lhs, nil
		}
		p.next()
		rhs, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		lhs = &binNode{op: t.text, lhs: lhs, rhs: rhs}
	}
}

func (p *refParser) parseMul() (exprNode, error) {
	lhs, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != "op" || (t.text != "*" && t.text != "/") {
			return lhs, nil
		}
		p.next()
		rhs, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		lhs = &binNode{op: t.text, lhs: lhs, rhs: rhs}
	}
}

func (p *refParser) parsePrimary() (exprNode, error) {
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
		inner, err := p.parseExpr()
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

func (p *refParser) parseIdent() (exprNode, error) {
	t := p.next()
	switch t.text {
	case "sum", "avg", "min", "max", "count":
		return p.parseAgg(t.text)
	case "rate", "increase":
		if _, err := p.expect("punct", "("); err != nil {
			return nil, err
		}
		sel, err := p.parseSelector()
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
		arg, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect("punct", ")"); err != nil {
			return nil, err
		}
		return &callNode{fn: "histogram_quantile", q: q, arg: arg}, nil
	default:
		p.pos-- // selector consumes its own name refToken
		return p.parseSelector()
	}
}

func (p *refParser) parseAgg(op string) (exprNode, error) {
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
	arg, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect("punct", ")"); err != nil {
		return nil, err
	}
	n.arg = arg
	return n, nil
}

func (p *refParser) parseSelector() (exprNode, error) {
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
		dur, err := refParseDuration(d.text)
		if err != nil {
			return nil, err
		}
		sel.rangeSec = dur
		if _, err := p.expect("punct", "]"); err != nil {
			return nil, err
		}
	}
	return sel, nil
}

// refParseDuration understands 30s / 5m / 1h / 2d and bare seconds.
func refParseDuration(s string) (int64, error) {
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
