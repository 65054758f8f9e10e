package lang

import (
	"fmt"
	"strconv"
	"strings"
)

// DefaultThreshold is used when a satisfying clause omits "with threshold"
// (the paper's §6.3 DateOfBirth query and the Example 2.2 queries do). The
// value is calibrated so that Example 2.2's similarTo scores (≈0.36–0.51)
// pass while cross-category similarities (<0.3) do not.
const DefaultThreshold = 0.3

// Parse parses a KOKO query.
func Parse(query string) (*Query, error) {
	toks, err := lex(query)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, defined: map[string]bool{}}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	return q, nil
}

// MustParse parses or panics; for tests and embedded benchmark queries.
func MustParse(query string) *Query {
	q, err := Parse(query)
	if err != nil {
		panic(err)
	}
	return q
}

type parser struct {
	toks    []token
	pos     int
	defined map[string]bool // variables defined so far (block decls + outputs)
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) peek() token { return p.toks[p.pos+1] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("koko: %s (near offset %d)", fmt.Sprintf(format, args...), p.cur().pos)
}

func (p *parser) expect(kind tokKind, what string) (token, error) {
	if p.cur().kind != kind {
		return token{}, p.errf("expected %s, got %s", what, p.cur())
	}
	return p.next(), nil
}

func (p *parser) isKeyword(kw string) bool {
	return p.cur().kind == tIdent && strings.EqualFold(p.cur().text, kw)
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.isKeyword(kw) {
		p.next()
		return true
	}
	return false
}

func (p *parser) parseQuery() (*Query, error) {
	q := &Query{}
	if !p.acceptKeyword("extract") {
		return nil, p.errf("query must start with 'extract'")
	}
	// Output list (may be empty when followed directly by 'from', as in
	// "extract x:Entity" — at least the paper always has one; we require 1+).
	for {
		name, err := p.expect(tIdent, "output variable")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tColon, "':' after output variable"); err != nil {
			return nil, err
		}
		typ, err := p.expect(tIdent, "output type")
		if err != nil {
			return nil, err
		}
		q.Outputs = append(q.Outputs, OutVar{Name: name.text, Type: typ.text})
		p.defined[name.text] = true
		if p.cur().kind == tComma {
			p.next()
			continue
		}
		break
	}
	if !p.acceptKeyword("from") {
		return nil, p.errf("expected 'from'")
	}
	src, err := p.parseSource()
	if err != nil {
		return nil, err
	}
	q.Source = src
	if !p.acceptKeyword("if") {
		return nil, p.errf("expected 'if'")
	}
	if _, err := p.expect(tLParen, "'(' after if"); err != nil {
		return nil, err
	}
	if err := p.parseIfBody(q); err != nil {
		return nil, err
	}
	if _, err := p.expect(tRParen, "')' closing if"); err != nil {
		return nil, err
	}
	for p.isKeyword("satisfying") {
		sc, err := p.parseSatisfying()
		if err != nil {
			return nil, err
		}
		q.Satisfying = append(q.Satisfying, *sc)
	}
	if p.acceptKeyword("excluding") {
		for {
			if _, err := p.expect(tLParen, "'(' opening excluding condition"); err != nil {
				return nil, err
			}
			c, err := p.parseSatCond(false)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tRParen, "')' closing excluding condition"); err != nil {
				return nil, err
			}
			q.Excluding = append(q.Excluding, *c)
			if !p.acceptKeyword("or") {
				break
			}
		}
	}
	if p.cur().kind != tEOF {
		return nil, p.errf("unexpected trailing input %s", p.cur())
	}
	return q, nil
}

func (p *parser) parseSource() (string, error) {
	if p.cur().kind == tString {
		return p.next().text, nil
	}
	// Unquoted source: ident (. ident)* — e.g. input.txt, wiki.article.
	t, err := p.expect(tIdent, "source file")
	if err != nil {
		return "", err
	}
	src := t.text
	for p.cur().kind == tDot && p.peek().kind == tIdent {
		p.next()
		src += "." + p.next().text
	}
	return src, nil
}

func (p *parser) parseIfBody(q *Query) error {
	// Optional /ROOT:{ ... } block.
	if p.cur().kind == tSlash && p.peek().kind == tIdent && strings.EqualFold(p.peek().text, "root") {
		// Lookahead for ':' to distinguish a block from a path constraint.
		if p.toks[p.pos+2].kind == tColon {
			p.next() // /
			p.next() // ROOT
			p.next() // :
			if _, err := p.expect(tLBrace, "'{' opening block"); err != nil {
				return err
			}
			for {
				name, err := p.expect(tIdent, "variable name")
				if err != nil {
					return err
				}
				for _, d := range q.Block {
					if d.Name == name.text {
						// A redeclaration has no single meaning: which binding a
						// later reference sees would depend on declaration order,
						// which canonicalization is free to change.
						return p.errf("variable %q declared twice in /ROOT block", name.text)
					}
				}
				if _, err := p.expect(tEquals, "'=' in declaration"); err != nil {
					return err
				}
				expr, err := p.parseSpanExpr()
				if err != nil {
					return err
				}
				q.Block = append(q.Block, Decl{Name: name.text, Expr: expr})
				p.defined[name.text] = true
				if p.cur().kind == tComma {
					p.next()
					continue
				}
				break
			}
			if _, err := p.expect(tRBrace, "'}' closing block"); err != nil {
				return err
			}
		}
	}
	// Constraints: ( expr ) in|eq ( expr ), repeated.
	for p.cur().kind == tLParen {
		p.next()
		left, err := p.parseSpanExpr()
		if err != nil {
			return err
		}
		if _, err := p.expect(tRParen, "')' closing constraint side"); err != nil {
			return err
		}
		var op ConstraintOp
		switch {
		case p.acceptKeyword("in"):
			op = OpIn
		case p.acceptKeyword("eq"):
			op = OpEq
		default:
			return p.errf("expected 'in' or 'eq' in constraint")
		}
		if _, err := p.expect(tLParen, "'(' opening constraint side"); err != nil {
			return err
		}
		right, err := p.parseSpanExpr()
		if err != nil {
			return err
		}
		if _, err := p.expect(tRParen, "')' closing constraint side"); err != nil {
			return err
		}
		q.Constraints = append(q.Constraints, Constraint{Left: left, Op: op, Right: right})
	}
	return nil
}

func (p *parser) parseSpanExpr() (SpanExpr, error) {
	var e SpanExpr
	for {
		a, err := p.parseAtom()
		if err != nil {
			return e, err
		}
		e.Atoms = append(e.Atoms, a)
		if p.cur().kind == tPlus {
			p.next()
			continue
		}
		return e, nil
	}
}

func (p *parser) parseAtom() (Atom, error) {
	switch p.cur().kind {
	case tLParen:
		p.next()
		inner, err := p.parseSpanExpr()
		if err != nil {
			return Atom{}, err
		}
		if _, err := p.expect(tRParen, "')'"); err != nil {
			return Atom{}, err
		}
		if len(inner.Atoms) != 1 {
			return Atom{}, p.errf("parenthesized span must contain a single atom")
		}
		return inner.Atoms[0], nil
	case tCaret:
		p.next()
		a := Atom{Kind: AtomElastic}
		if p.cur().kind == tLBracket {
			conds, err := p.parseConds()
			if err != nil {
				return Atom{}, err
			}
			a.Conds = conds
		}
		return a, nil
	case tString:
		words := strings.Fields(p.next().text)
		return Atom{Kind: AtomTokens, Tokens: words}, nil
	case tSlash, tDSlash:
		steps, err := p.parseSteps()
		if err != nil {
			return Atom{}, err
		}
		return Atom{Kind: AtomPath, Steps: steps}, nil
	case tIdent:
		name := p.next().text
		// x.subtree
		if p.cur().kind == tDot && p.peek().kind == tIdent && strings.EqualFold(p.peek().text, "subtree") {
			p.next()
			p.next()
			return Atom{Kind: AtomSubtree, Var: name}, nil
		}
		// Var-anchored path: b//"delicious", a/dobj.
		if p.cur().kind == tSlash || p.cur().kind == tDSlash {
			steps, err := p.parseSteps()
			if err != nil {
				return Atom{}, err
			}
			if !p.defined[name] {
				return Atom{}, p.errf("path anchored at undefined variable %q", name)
			}
			return Atom{Kind: AtomPath, From: name, Steps: steps}, nil
		}
		// Defined variable reference.
		if p.defined[name] {
			return Atom{Kind: AtomVar, Var: name}, nil
		}
		// Bare label: "v = verb", "a = Entity".
		step := NewBareStep(name)
		if p.cur().kind == tLBracket {
			conds, err := p.parseConds()
			if err != nil {
				return Atom{}, err
			}
			step.Conds = conds
		}
		return Atom{Kind: AtomPath, Steps: []PathStep{step}}, nil
	}
	return Atom{}, p.errf("expected atom, got %s", p.cur())
}

func (p *parser) parseSteps() ([]PathStep, error) {
	var steps []PathStep
	for {
		var desc bool
		switch p.cur().kind {
		case tSlash:
			desc = false
		case tDSlash:
			desc = true
		default:
			if len(steps) == 0 {
				return nil, p.errf("expected path axis")
			}
			return steps, nil
		}
		p.next()
		st := PathStep{Desc: desc}
		switch p.cur().kind {
		case tIdent:
			st.Label = p.next().text
		case tString:
			// A quoted label is a word token; keep the quotes' content and
			// mark it via a text condition so analysis can't mistake it for
			// a parse label.
			w := p.next().text
			st.Label = "*"
			st.Conds = append(st.Conds, LabelCond{Key: "text", Value: w})
		case tStar:
			p.next()
			st.Label = "*"
		default:
			return nil, p.errf("expected path label, got %s", p.cur())
		}
		if p.cur().kind == tLBracket {
			conds, err := p.parseConds()
			if err != nil {
				return nil, err
			}
			st.Conds = append(st.Conds, conds...)
		}
		steps = append(steps, st)
		if p.cur().kind != tSlash && p.cur().kind != tDSlash {
			return steps, nil
		}
	}
}

func (p *parser) parseConds() ([]LabelCond, error) {
	if _, err := p.expect(tLBracket, "'['"); err != nil {
		return nil, err
	}
	var out []LabelCond
	for {
		// Optional '@'.
		if p.cur().kind == tAt {
			p.next()
		}
		key, err := p.expect(tIdent, "condition key")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tEquals, "'=' in condition"); err != nil {
			return nil, err
		}
		var val string
		switch p.cur().kind {
		case tString:
			val = p.next().text
		case tNumber:
			val = p.next().text
		case tIdent:
			val = p.next().text
		default:
			return nil, p.errf("expected condition value, got %s", p.cur())
		}
		k := strings.ToLower(key.text)
		switch k {
		case "pos", "regex", "etype", "text", "min", "max":
		default:
			return nil, p.errf("unknown condition key %q", key.text)
		}
		out = append(out, LabelCond{Key: k, Value: val})
		if p.cur().kind == tComma {
			p.next()
			continue
		}
		break
	}
	if _, err := p.expect(tRBracket, "']'"); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *parser) parseSatisfying() (*SatClause, error) {
	p.next() // consume 'satisfying'
	v, err := p.expect(tIdent, "satisfying variable")
	if err != nil {
		return nil, err
	}
	sc := &SatClause{Var: v.text, Threshold: DefaultThreshold}
	for {
		if _, err := p.expect(tLParen, "'(' opening condition"); err != nil {
			return nil, err
		}
		c, err := p.parseSatCond(true)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tRParen, "')' closing condition"); err != nil {
			return nil, err
		}
		sc.Conds = append(sc.Conds, *c)
		if p.acceptKeyword("or") {
			continue
		}
		break
	}
	if p.acceptKeyword("with") {
		if !p.acceptKeyword("threshold") {
			return nil, p.errf("expected 'threshold' after 'with'")
		}
		t, err := p.expect(tNumber, "threshold value")
		if err != nil {
			return nil, err
		}
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errf("bad threshold %q", t.text)
		}
		sc.Threshold = f
	}
	return sc, nil
}

// parseSatCond parses one satisfying/excluding condition. withWeight enables
// the trailing "{w}" weight (default 1 when absent).
func (p *parser) parseSatCond(withWeight bool) (*SatCond, error) {
	c := &SatCond{Weight: 1}
	switch {
	case p.isKeyword("str"):
		p.next()
		if _, err := p.expect(tLParen, "'(' after str"); err != nil {
			return nil, err
		}
		v, err := p.expect(tIdent, "variable in str()")
		if err != nil {
			return nil, err
		}
		c.Var = v.text
		if _, err := p.expect(tRParen, "')' after str(var"); err != nil {
			return nil, err
		}
		switch {
		case p.acceptKeyword("contains"):
			c.Kind = CondContains
		case p.acceptKeyword("mentions"):
			c.Kind = CondMentions
		case p.acceptKeyword("matches"):
			c.Kind = CondMatches
		case p.acceptKeyword("similarTo"):
			c.Kind = CondSimilarTo
		case p.cur().kind == tTilde:
			p.next()
			c.Kind = CondSimilarTo
		case p.acceptKeyword("in"):
			if !p.acceptKeyword("dict") {
				return nil, p.errf("expected dict(...) after 'in'")
			}
			if _, err := p.expect(tLParen, "'(' after dict"); err != nil {
				return nil, err
			}
			d, err := p.expect(tString, "dictionary name")
			if err != nil {
				return nil, err
			}
			c.Arg = d.text
			if _, err := p.expect(tRParen, "')' after dict name"); err != nil {
				return nil, err
			}
			c.Kind = CondInDict
			return p.finishWeight(c, withWeight)
		default:
			return nil, p.errf("expected contains/mentions/matches/in after str()")
		}
		s, err := p.expect(tString, "string argument")
		if err != nil {
			return nil, err
		}
		c.Arg = s.text
		return p.finishWeight(c, withWeight)

	case p.cur().kind == tString:
		// "s" x — preceded-by.
		c.Arg = p.next().text
		v, err := p.expect(tIdent, "variable after string")
		if err != nil {
			return nil, err
		}
		c.Var = v.text
		c.Kind = CondPrecededBy
		return p.finishWeight(c, withWeight)

	case p.cur().kind == tDLBracket:
		// [[d]] x — descriptor before x.
		d, err := p.parseDescriptor()
		if err != nil {
			return nil, err
		}
		v, err := p.expect(tIdent, "variable after descriptor")
		if err != nil {
			return nil, err
		}
		c.Kind = CondDescLeft
		c.Arg = d
		c.Var = v.text
		return p.finishWeight(c, withWeight)

	case p.cur().kind == tIdent:
		c.Var = p.next().text
		switch {
		case p.acceptKeyword("near"):
			c.Kind = CondNear
			s, err := p.expect(tString, "string after near")
			if err != nil {
				return nil, err
			}
			c.Arg = s.text
		case p.acceptKeyword("similarTo"):
			c.Kind = CondSimilarTo
			s, err := p.expect(tString, "string after similarTo")
			if err != nil {
				return nil, err
			}
			c.Arg = s.text
		case p.cur().kind == tTilde:
			p.next()
			c.Kind = CondSimilarTo
			s, err := p.expect(tString, "string after ~")
			if err != nil {
				return nil, err
			}
			c.Arg = s.text
		case p.cur().kind == tDLBracket:
			d, err := p.parseDescriptor()
			if err != nil {
				return nil, err
			}
			c.Kind = CondDescRight
			c.Arg = d
		case p.cur().kind == tString:
			c.Kind = CondFollowedBy
			c.Arg = p.next().text
		default:
			return nil, p.errf("expected condition operator after %q", c.Var)
		}
		return p.finishWeight(c, withWeight)
	}
	return nil, p.errf("expected satisfying condition, got %s", p.cur())
}

func (p *parser) parseDescriptor() (string, error) {
	if _, err := p.expect(tDLBracket, "'[['"); err != nil {
		return "", err
	}
	var d string
	if p.cur().kind == tString {
		d = p.next().text
	} else {
		var parts []string
		for p.cur().kind == tIdent {
			parts = append(parts, p.next().text)
		}
		d = strings.Join(parts, " ")
	}
	if d == "" {
		return "", p.errf("empty descriptor")
	}
	if _, err := p.expect(tDRBracket, "']]'"); err != nil {
		return "", err
	}
	return d, nil
}

func (p *parser) finishWeight(c *SatCond, withWeight bool) (*SatCond, error) {
	if withWeight && p.cur().kind == tLBrace {
		p.next()
		t, err := p.expect(tNumber, "weight")
		if err != nil {
			return nil, err
		}
		w, err := strconv.ParseFloat(t.text, 64)
		if err != nil || w < 0 || w > 1 {
			return nil, p.errf("weight must be a number in [0,1], got %q", t.text)
		}
		c.Weight = w
		if _, err := p.expect(tRBrace, "'}' closing weight"); err != nil {
			return nil, err
		}
	}
	return c, nil
}
