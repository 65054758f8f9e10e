// Package lang implements the KOKO query language: lexer, recursive-descent
// parser, and AST (paper §2). The concrete syntax follows the paper's
// examples, with ASCII-friendly spellings accepted alongside the paper's
// typography: "^" for the elastic-span ∧, plain double quotes for the curly
// quotes, and "~" for the similarTo operator abbreviation used in §6.3.
package lang

import (
	"fmt"
	"strconv"
	"strings"
)

// Query is a parsed KOKO query:
//
//	extract <outputs> from <source> if ( <block & constraints> )
//	[satisfying <var> <weighted conditions> with threshold <t>]...
//	[excluding <conditions>]
type Query struct {
	Outputs     []OutVar
	Source      string
	Block       []Decl
	Constraints []Constraint
	Satisfying  []SatClause
	Excluding   []SatCond
}

// OutVar is one output column: a variable name and its declared type
// (Entity, Person, GPE, Date, Str, ...).
type OutVar struct {
	Name string
	Type string
}

// Decl is a variable definition inside the /ROOT:{...} block.
type Decl struct {
	Name string
	Expr SpanExpr
}

// SpanExpr is a concatenation of atoms (a single-atom expression is a plain
// node/path definition).
type SpanExpr struct {
	Atoms []Atom
}

// AtomKind discriminates Atom.
type AtomKind int

const (
	AtomPath    AtomKind = iota // a path expression, possibly var-anchored
	AtomVar                     // reference to a defined variable
	AtomSubtree                 // x.subtree
	AtomTokens                  // quoted literal token sequence
	AtomElastic                 // ^ (the paper's ∧), with optional conditions
)

// Atom is one component of a span expression.
type Atom struct {
	Kind AtomKind

	// AtomPath: optional anchor variable and steps.
	From  string
	Steps []PathStep

	// AtomVar / AtomSubtree: the referenced variable.
	Var string

	// AtomTokens: the literal words.
	Tokens []string

	// AtomElastic: optional constraints.
	Conds []LabelCond
}

// PathStep is one axis+label step of a path expression.
type PathStep struct {
	Desc  bool // true = descendant axis "//", false = child axis "/"
	Label string
	Conds []LabelCond
	bare  bool // bare-label atom ("v = verb", "a = Entity"): printed without axis
}

// Bare reports whether this step came from a bare-label atom.
func (s PathStep) Bare() bool { return s.bare }

// NewBareStep builds a bare-label step (exported for programmatic query
// construction in tests and benchmarks).
func NewBareStep(label string) PathStep {
	return PathStep{Desc: true, Label: label, bare: true}
}

// LabelCond is a bracketed condition on a step or elastic span:
// [@pos="noun"], [@regex="..."], [etype="Person"], [text="ate"],
// [min=2], [max=5].
type LabelCond struct {
	Key   string // pos | regex | etype | text | min | max
	Value string
}

// ConstraintOp is the relation of a variable constraint.
type ConstraintOp int

const (
	OpIn ConstraintOp = iota // "(x) in (y)": tokens of x among tokens of y
	OpEq                     // "(x) eq (y)": spans identical
)

// Constraint relates two span expressions outside the block.
type Constraint struct {
	Left  SpanExpr
	Op    ConstraintOp
	Right SpanExpr
}

// SatClause is one satisfying clause: a disjunction of weighted conditions
// over a single output variable, with an acceptance threshold.
type SatClause struct {
	Var       string
	Conds     []SatCond
	Threshold float64
}

// SatKind discriminates satisfying/excluding conditions.
type SatKind int

const (
	CondContains   SatKind = iota // str(x) contains "s"
	CondMentions                  // str(x) mentions "s"
	CondMatches                   // str(x) matches <regex>
	CondFollowedBy                // x "s"      — x immediately followed by s
	CondPrecededBy                // "s" x      — x immediately preceded by s
	CondNear                      // x near "s" — proximity, score 1/(1+dist)
	CondDescRight                 // x [[d]]    — descriptor after x
	CondDescLeft                  // [[d]] x    — descriptor before x
	CondSimilarTo                 // x similarTo "s" (also spelled x ~ "s")
	CondInDict                    // str(x) in dict("name")
)

// SatCond is one weighted condition.
type SatCond struct {
	Kind   SatKind
	Var    string
	Arg    string
	Weight float64
}

// --- printing (used by error messages, tests, and the normalizer) ---

func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("extract ")
	for i, o := range q.Outputs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s:%s", o.Name, o.Type)
	}
	fmt.Fprintf(&b, " from %s if (", quote(q.Source))
	if len(q.Block) > 0 {
		b.WriteString("/ROOT:{")
		for i, d := range q.Block {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s = %s", d.Name, d.Expr)
		}
		b.WriteString("}")
	}
	for _, c := range q.Constraints {
		op := "in"
		if c.Op == OpEq {
			op = "eq"
		}
		fmt.Fprintf(&b, " (%s) %s (%s)", c.Left, op, c.Right)
	}
	b.WriteString(")")
	for _, sc := range q.Satisfying {
		fmt.Fprintf(&b, " satisfying %s ", sc.Var)
		for i, c := range sc.Conds {
			if i > 0 {
				b.WriteString(" or ")
			}
			fmt.Fprintf(&b, "(%s {%s})", c.condString(), number(c.Weight))
		}
		fmt.Fprintf(&b, " with threshold %s", number(sc.Threshold))
	}
	if len(q.Excluding) > 0 {
		b.WriteString(" excluding ")
		for i, c := range q.Excluding {
			if i > 0 {
				b.WriteString(" or ")
			}
			fmt.Fprintf(&b, "(%s)", c.condString())
		}
	}
	return b.String()
}

func (e SpanExpr) String() string {
	parts := make([]string, len(e.Atoms))
	for i, a := range e.Atoms {
		parts[i] = a.String()
	}
	return strings.Join(parts, " + ")
}

func (a Atom) String() string {
	switch a.Kind {
	case AtomVar:
		return a.Var
	case AtomSubtree:
		return a.Var + ".subtree"
	case AtomTokens:
		return quote(strings.Join(a.Tokens, " "))
	case AtomElastic:
		s := "^"
		if len(a.Conds) > 0 {
			s += condsString(a.Conds)
		}
		return s
	default: // AtomPath
		var b strings.Builder
		b.WriteString(a.From)
		for i, st := range a.Steps {
			if i == 0 && a.From == "" && !st.Desc && st.Label != "" && len(a.Steps) == 1 && !strings.Contains(st.Label, "/") && st.bare {
				// Bare label (e.g. "Entity") prints without axis.
				b.WriteString(st.Label)
				b.WriteString(condsString(st.Conds))
				continue
			}
			if st.Desc {
				b.WriteString("//")
			} else {
				b.WriteString("/")
			}
			b.WriteString(st.Label)
			b.WriteString(condsString(st.Conds))
		}
		return b.String()
	}
}

func condsString(conds []LabelCond) string {
	if len(conds) == 0 {
		return ""
	}
	parts := make([]string, len(conds))
	for i, c := range conds {
		parts[i] = c.Key + "=" + quote(c.Value)
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// quoteEscaper escapes exactly the two characters the lexer decodes inside a
// string literal; every other rune (tabs and control characters included)
// prints raw, so the printed query re-parses to the same literal.
var quoteEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`)

// quote renders s as a query string literal.
func quote(s string) string { return `"` + quoteEscaper.Replace(s) + `"` }

// number renders a weight or threshold without an exponent, which the lexer
// does not read; it matches %g for every value in [1e-4, 1e21).
func number(f float64) string { return strconv.FormatFloat(f, 'f', -1, 64) }

// Display renders the condition in query syntax (used by extraction
// explanations).
func (c SatCond) Display() string { return c.condString() }

func (c SatCond) condString() string {
	switch c.Kind {
	case CondContains:
		return fmt.Sprintf("str(%s) contains %s", c.Var, quote(c.Arg))
	case CondMentions:
		return fmt.Sprintf("str(%s) mentions %s", c.Var, quote(c.Arg))
	case CondMatches:
		return fmt.Sprintf("str(%s) matches %s", c.Var, quote(c.Arg))
	case CondFollowedBy:
		return fmt.Sprintf("%s %s", c.Var, quote(c.Arg))
	case CondPrecededBy:
		return fmt.Sprintf("%s %s", quote(c.Arg), c.Var)
	case CondNear:
		return fmt.Sprintf("%s near %s", c.Var, quote(c.Arg))
	case CondDescRight:
		return fmt.Sprintf("%s [[%s]]", c.Var, quote(c.Arg))
	case CondDescLeft:
		return fmt.Sprintf("[[%s]] %s", quote(c.Arg), c.Var)
	case CondSimilarTo:
		return fmt.Sprintf("%s similarTo %s", c.Var, quote(c.Arg))
	case CondInDict:
		return fmt.Sprintf("str(%s) in dict(%s)", c.Var, quote(c.Arg))
	}
	return "?"
}
