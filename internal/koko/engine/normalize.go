package engine

import (
	"fmt"
	"strings"

	"repro/internal/embed"
	"repro/internal/koko/lang"
	"repro/internal/nlp"
)

// varKind discriminates normalized variables.
type varKind int

const (
	vkNode    varKind = iota // bound to a dependency-tree node
	vkEntity                 // bound to an entity mention of a type
	vkSubtree                // x.subtree of a node variable
	vkElastic                // ∧: zero or more tokens, with optional conditions
	vkTokens                 // literal token sequence
	vkSpan                   // concatenation of component variables
)

// normVar is a normalized variable. Every variable is interned at
// normalization time: slot is its ordinal in normQuery.vars, and the
// evaluation hot path indexes assignments, candidate lists, and skip masks
// by slot instead of by name.
type normVar struct {
	name      string
	slot      int
	kind      varKind
	synthetic bool

	path   []lang.PathStep // vkNode: absolute path from the root
	steps  []compiledStep  // vkNode: path compiled for per-token matching
	anchor string          // vkNode: declared anchor variable, if any
	etype  string          // vkEntity: canonical entity type
	base   string          // vkSubtree: the underlying node variable
	conds  []lang.LabelCond
	words  []string // vkTokens: lowercase words
	comps  []string // vkSpan: component variable names, in order

	// Slot-compiled views, filled by compileSlots after normalization.
	baseSlot  int   // vkSubtree: slot of base (-1 otherwise)
	compSlots []int // vkSpan: slots of comps, in order
}

// enumerableKind reports whether the variable kind gets its own nested loop
// in the extract evaluation. Derived kinds — subtrees and span
// concatenations — are computed from other variables' bindings, so they are
// never enumerated (and never planned).
func (v *normVar) enumerableKind() bool {
	return v.kind != vkSubtree && v.kind != vkSpan
}

// constraint kinds derived during normalization plus the user's in/eq.
type consKind int

const (
	ckParentOf consKind = iota
	ckAncestorOf
	ckInSpan
	ckEqSpan
)

type normConstraint struct {
	kind consKind
	a, b string
	// aSlot/bSlot are the interned sides, filled by compileSlots.
	aSlot, bSlot int
}

// descriptor is a pre-expanded descriptor condition.
type descriptor struct {
	text       string
	expansions []embed.Scored // includes the original, score 1
	seqs       [][]string     // tokenized expansions
}

// compiledStep is a path step with everything the query fixes resolved once,
// so matching a token is comparisons only: the label's class and canonical
// form, the entity type a typed wildcard demands, and the bracket conditions
// with their values normalised for their key.
type compiledStep struct {
	desc  bool
	class stepClass
	canon string           // scParse/scPOS/scWord: the canonical label
	etype string           // scWild over an entity-type label: its canonical type
	conds []lang.LabelCond // pos, text and etype values canonical; regex as written
}

// compilePath compiles an absolute path.
func compilePath(steps []lang.PathStep) []compiledStep {
	out := make([]compiledStep, len(steps))
	for i, st := range steps {
		cs := &out[i]
		cs.desc = st.Desc
		cs.class, cs.canon = classifyStep(st)
		if cs.class == scWild && nlp.IsEntityType(st.Label) {
			cs.etype = nlp.CanonicalEntityType(st.Label)
		}
		for _, c := range st.Conds {
			switch c.Key {
			case "pos":
				c.Value = nlp.NormalizePOS(c.Value)
			case "text":
				c.Value = strings.ToLower(c.Value)
			case "etype":
				c.Value = nlp.CanonicalEntityType(c.Value)
			}
			cs.conds = append(cs.conds, c)
		}
	}
	return out
}

// normCond is a satisfying/excluding condition with its constant argument
// resolved once per query.
type normCond struct {
	lang.SatCond
	id   int32       // ordinal among the query's conditions (confidence-cache key)
	slot int         // slot of Var (-1 when the condition names none)
	args []string    // near/followed-by/preceded-by: lowercase tokens of Arg; similarTo: lowercase fields
	desc *descriptor // descriptor conditions: the expanded descriptor
}

// normClause is a satisfying clause over one variable slot.
type normClause struct {
	name      string
	slot      int
	threshold float64
	conds     []normCond
}

// normQuery is the engine's normalized query form.
type normQuery struct {
	src         *lang.Query
	vars        []*normVar
	byName      map[string]*normVar
	constraints []normConstraint
	outputs     []lang.OutVar
	horizontals []*normVar // vkSpan vars with >1 component
	satisfying  []normClause
	excluding   []normCond

	// Slot-compiled views, filled by compileSlots: the hot path never
	// touches byName.
	outSlots []int // slot per output, aligned with outputs
	maxComps int   // widest horizontal (scratch sizing)
}

// normalize implements §4.1: absolute-form expansion, synthesized variables
// for elastic spans and inline atoms, and derived constraints. A descriptor
// expands to at most expansionLimit phrases; the engine passes 0, which
// takes the embedding model's default limit.
func normalize(q *lang.Query, model *embed.Model, expansionLimit int) (*normQuery, error) {
	nq := &normQuery{
		src:     q,
		byName:  map[string]*normVar{},
		outputs: q.Outputs,
	}
	nsynth := 0
	synthName := func(prefix string) string {
		nsynth++
		return fmt.Sprintf("%s#%d", prefix, nsynth)
	}
	addVar := func(v *normVar) (*normVar, error) {
		if _, dup := nq.byName[v.name]; dup {
			return nil, fmt.Errorf("koko: variable %q defined twice", v.name)
		}
		v.slot = len(nq.vars)
		v.baseSlot = -1
		nq.vars = append(nq.vars, v)
		nq.byName[v.name] = v
		return v, nil
	}

	// atomToVar converts an atom into a variable reference, synthesizing a
	// variable when the atom is inline (an elastic span, literal tokens, a
	// path inside a horizontal condition, or a subtree reference).
	var atomToVar func(a lang.Atom, nameHint string) (string, error)
	atomToVar = func(a lang.Atom, nameHint string) (string, error) {
		switch a.Kind {
		case lang.AtomVar:
			if nq.byName[a.Var] == nil {
				return "", fmt.Errorf("koko: reference to undefined variable %q", a.Var)
			}
			return a.Var, nil
		case lang.AtomSubtree:
			base := nq.byName[a.Var]
			if base == nil {
				return "", fmt.Errorf("koko: subtree of undefined variable %q", a.Var)
			}
			if base.kind != vkNode {
				return "", fmt.Errorf("koko: subtree of non-node variable %q", a.Var)
			}
			name := nameHint
			if name == "" {
				name = synthName("sub")
			}
			v, err := addVar(&normVar{name: name, kind: vkSubtree, base: a.Var, synthetic: nameHint == ""})
			if err != nil {
				return "", err
			}
			return v.name, nil
		case lang.AtomElastic:
			name := nameHint
			if name == "" {
				name = synthName("v")
			}
			v, err := addVar(&normVar{name: name, kind: vkElastic, conds: a.Conds, synthetic: nameHint == ""})
			if err != nil {
				return "", err
			}
			return v.name, nil
		case lang.AtomTokens:
			name := nameHint
			if name == "" {
				name = synthName("w")
			}
			words := make([]string, len(a.Tokens))
			for i, w := range a.Tokens {
				words[i] = strings.ToLower(w)
			}
			v, err := addVar(&normVar{name: name, kind: vkTokens, words: words, synthetic: nameHint == ""})
			if err != nil {
				return "", err
			}
			return v.name, nil
		case lang.AtomPath:
			name := nameHint
			if name == "" {
				name = synthName("p")
			}
			// A bare entity-type label defines an entity variable.
			if len(a.Steps) == 1 && a.Steps[0].Bare() && nlp.IsEntityType(a.Steps[0].Label) {
				v, err := addVar(&normVar{
					name: name, kind: vkEntity,
					etype:     nlp.CanonicalEntityType(a.Steps[0].Label),
					synthetic: nameHint == "",
				})
				if err != nil {
					return "", err
				}
				return v.name, nil
			}
			nv := &normVar{name: name, kind: vkNode, synthetic: nameHint == ""}
			if a.From != "" {
				anchor := nq.byName[a.From]
				if anchor == nil {
					return "", fmt.Errorf("koko: path anchored at undefined variable %q", a.From)
				}
				if anchor.kind != vkNode {
					return "", fmt.Errorf("koko: path anchored at non-node variable %q", a.From)
				}
				// Absolute form: anchor's path + the extra steps (§4.1).
				nv.path = append(append([]lang.PathStep{}, anchor.path...), a.Steps...)
				nv.anchor = a.From
				// Derived constraint between anchor and this variable.
				if a.Steps[0].Desc {
					nq.constraints = append(nq.constraints, normConstraint{kind: ckAncestorOf, a: a.From, b: name})
				} else {
					nq.constraints = append(nq.constraints, normConstraint{kind: ckParentOf, a: a.From, b: name})
				}
			} else {
				nv.path = append([]lang.PathStep{}, a.Steps...)
			}
			v, err := addVar(nv)
			if err != nil {
				return "", err
			}
			return v.name, nil
		}
		return "", fmt.Errorf("koko: unsupported atom")
	}

	// Output variables that are not defined in the block become entity
	// variables of their declared type, registered up front so block
	// declarations may reference them (the §6.3 Title query's horizontal
	// condition uses the output variable a:Person). Str-typed outputs must
	// be block-defined.
	blockNames := map[string]bool{}
	for _, d := range q.Block {
		blockNames[d.Name] = true
	}
	for _, o := range q.Outputs {
		if blockNames[o.Name] {
			continue
		}
		if strings.EqualFold(o.Type, "Str") {
			return nil, fmt.Errorf("koko: output %s:Str must be defined in the extract block", o.Name)
		}
		if !nlp.IsEntityType(o.Type) {
			return nil, fmt.Errorf("koko: output %s has unknown type %q", o.Name, o.Type)
		}
		if _, err := addVar(&normVar{name: o.Name, kind: vkEntity, etype: nlp.CanonicalEntityType(o.Type)}); err != nil {
			return nil, err
		}
	}

	// Block declarations, in order.
	for _, d := range q.Block {
		if len(d.Expr.Atoms) == 1 {
			if _, err := atomToVar(d.Expr.Atoms[0], d.Name); err != nil {
				return nil, err
			}
			continue
		}
		// Horizontal condition: synthesize component variables, then the
		// span variable itself.
		comps := make([]string, 0, len(d.Expr.Atoms))
		for _, a := range d.Expr.Atoms {
			cn, err := atomToVar(a, "")
			if err != nil {
				return nil, err
			}
			comps = append(comps, cn)
		}
		sv := &normVar{name: d.Name, kind: vkSpan, comps: comps}
		if _, err := addVar(sv); err != nil {
			return nil, err
		}
		nq.horizontals = append(nq.horizontals, sv)
	}

	// Every output must be defined by now.
	for _, o := range q.Outputs {
		if nq.byName[o.Name] == nil {
			return nil, fmt.Errorf("koko: output %s is not defined", o.Name)
		}
	}

	// User constraints: each side must normalize to a single variable.
	for _, c := range q.Constraints {
		side := func(e lang.SpanExpr) (string, error) {
			if len(e.Atoms) == 1 {
				return atomToVar(e.Atoms[0], "")
			}
			comps := make([]string, 0, len(e.Atoms))
			for _, a := range e.Atoms {
				cn, err := atomToVar(a, "")
				if err != nil {
					return "", err
				}
				comps = append(comps, cn)
			}
			sv := &normVar{name: synthName("c"), kind: vkSpan, comps: comps, synthetic: true}
			if _, err := addVar(sv); err != nil {
				return "", err
			}
			nq.horizontals = append(nq.horizontals, sv)
			return sv.name, nil
		}
		a, err := side(c.Left)
		if err != nil {
			return nil, err
		}
		b, err := side(c.Right)
		if err != nil {
			return nil, err
		}
		kind := ckInSpan
		if c.Op == lang.OpEq {
			kind = ckEqSpan
		}
		nq.constraints = append(nq.constraints, normConstraint{kind: kind, a: a, b: b})
	}

	// Satisfying/excluding: variables must exist, and every constant argument
	// is tokenised, lower-cased or expanded here — once per query, not per
	// candidate value.
	var descs map[string]*descriptor // descriptor text -> its expansion, shared by conditions
	var nconds int32
	compileCond := func(c lang.SatCond, what string) (normCond, error) {
		nc := normCond{SatCond: c, id: nconds, slot: -1}
		nconds++
		if c.Var != "" {
			v := nq.byName[c.Var]
			if v == nil {
				return nc, fmt.Errorf("koko: %s condition over undefined variable %q", what, c.Var)
			}
			nc.slot = v.slot
		}
		switch c.Kind {
		case lang.CondFollowedBy, lang.CondPrecededBy, lang.CondNear:
			nc.args = lowerTokens(c.Arg)
		case lang.CondSimilarTo:
			nc.args = lowerFields(c.Arg)
		case lang.CondDescLeft, lang.CondDescRight:
			if descs[c.Arg] == nil {
				if descs == nil {
					descs = map[string]*descriptor{}
				}
				descs[c.Arg] = expandDescriptor(c.Arg, model, expansionLimit)
			}
			nc.desc = descs[c.Arg]
		}
		return nc, nil
	}
	for _, sc := range q.Satisfying {
		v := nq.byName[sc.Var]
		if v == nil {
			return nil, fmt.Errorf("koko: satisfying clause over undefined variable %q", sc.Var)
		}
		cl := normClause{name: sc.Var, slot: v.slot, threshold: sc.Threshold}
		for _, c := range sc.Conds {
			nc, err := compileCond(c, "satisfying")
			if err != nil {
				return nil, err
			}
			cl.conds = append(cl.conds, nc)
		}
		nq.satisfying = append(nq.satisfying, cl)
	}
	for _, c := range q.Excluding {
		nc, err := compileCond(c, "excluding")
		if err != nil {
			return nil, err
		}
		nq.excluding = append(nq.excluding, nc)
	}
	nq.compileSlots()
	return nq, nil
}

// compileSlots interns every by-name reference into a variable slot so the
// evaluation hot path is free of map lookups. Called once per query, after
// all variables and constraints exist.
func (nq *normQuery) compileSlots() {
	for _, v := range nq.vars {
		v.steps = compilePath(v.path)
		if v.base != "" {
			v.baseSlot = nq.byName[v.base].slot
		}
		if len(v.comps) > 0 {
			v.compSlots = make([]int, len(v.comps))
			for i, cn := range v.comps {
				v.compSlots[i] = nq.byName[cn].slot
			}
			if len(v.comps) > nq.maxComps {
				nq.maxComps = len(v.comps)
			}
		}
	}
	for i := range nq.constraints {
		c := &nq.constraints[i]
		c.aSlot = nq.byName[c.a].slot
		c.bSlot = nq.byName[c.b].slot
	}
	nq.outSlots = make([]int, len(nq.outputs))
	for i, o := range nq.outputs {
		nq.outSlots[i] = nq.byName[o.Name].slot
	}
}

// expandDescriptor pre-expands a descriptor through the paraphrase model
// (§4.4.1(a)); expansion happens once per query.
func expandDescriptor(text string, model *embed.Model, limit int) *descriptor {
	d := &descriptor{text: text}
	if model != nil {
		d.expansions = model.Expand(text, limit)
	}
	if len(d.expansions) == 0 {
		d.expansions = []embed.Scored{{Text: strings.ToLower(text), Score: 1}}
	}
	for _, e := range d.expansions {
		d.seqs = append(d.seqs, strings.Fields(e.Text))
	}
	return d
}

// nodeVars returns the node variables in declaration order.
func (nq *normQuery) nodeVars() []*normVar {
	var out []*normVar
	for _, v := range nq.vars {
		if v.kind == vkNode {
			out = append(out, v)
		}
	}
	return out
}

// dominantPaths implements §4.2.1: a path p is dominated by q if p (with
// conditions) is a prefix of q; only undominated paths are decomposed for
// index lookup. Returns, for every node variable, the representative
// dominant variable whose path will be looked up.
func (nq *normQuery) dominantPaths() (dominant []*normVar, repOf map[string]*normVar) {
	nodes := nq.nodeVars()
	repOf = map[string]*normVar{}
	for _, v := range nodes {
		rep := v
		for _, w := range nodes {
			if w == rep {
				continue
			}
			if pathPrefixOf(rep.path, w.path) && len(w.path) > len(rep.path) {
				rep = w
			} else if len(w.path) == len(rep.path) && rep != w && pathPrefixOf(rep.path, w.path) && pathPrefixOf(w.path, rep.path) {
				// Identical paths: keep deterministic representative (first).
			}
		}
		repOf[v.name] = rep
	}
	seen := map[string]bool{}
	for _, v := range nodes {
		r := repOf[v.name]
		if !seen[r.name] {
			seen[r.name] = true
			dominant = append(dominant, r)
		}
	}
	return dominant, repOf
}

// pathPrefixOf reports whether p is a prefix of q with identical conditions
// (modulo condition order) on the shared steps.
func pathPrefixOf(p, q []lang.PathStep) bool {
	if len(p) > len(q) {
		return false
	}
	for i := range p {
		if !stepEqual(p[i], q[i]) {
			return false
		}
	}
	return true
}

func stepEqual(a, b lang.PathStep) bool {
	if a.Desc != b.Desc || nlp.NormalizeLabel(a.Label) != nlp.NormalizeLabel(b.Label) {
		return false
	}
	if len(a.Conds) != len(b.Conds) {
		return false
	}
	// Conditions compare as sets (order of conjunction is irrelevant, §4.2.1).
	used := make([]bool, len(b.Conds))
outer:
	for _, ca := range a.Conds {
		for j, cb := range b.Conds {
			if !used[j] && ca == cb {
				used[j] = true
				continue outer
			}
		}
		return false
	}
	return true
}
