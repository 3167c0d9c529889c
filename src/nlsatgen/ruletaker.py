"""Single-entity attribute theories: rules plus facts about one subject.

A with-replacement clause draw is retrofitted into a theory about one
named entity.  Clauses whose variables collapse become narrower:

    three distinct variables   -> a two-antecedent rule
    one repeated variable      -> a one-antecedent rule
    one variable three times   -> a fact
    complementary pair         -> tautology, redrawn

Rules render as implications and facts as plain statements:

    (-1 v 2 v -3)  "If the bear is big and the bear is not blue
                    then the bear is not clever."
    (2 v 3)        "If the bear is not blue then the bear is clever."
    (-1)           "The bear is not big."

A finished instance pairs the theory with a conjecture about the same
entity, labeled "true" when the theory entails it and "false" when the
theory refutes it; conjectures the theory leaves open are never asked.
The decided literals are the theory's backbone, which
``solver._backbone`` finds: a variable is entailed when every model
gives it the same value.  The solver effort an instance records is one
DPLL refutation of the picked conjecture: the rules, then the facts,
then the unit the label says is false.

Retrofit streams the draw, one clause at a time, into
``solver._satisfiable``.  Up to 17 variables that check rejects it at
the first prefix that no assignment satisfies, so most hard-band draws,
which are unsat, are never drawn in full.  Up to 8 variables the clause
collapse is memoized, since every width-3 draw then fits in a few
thousand entries.

Validation happens at the boundary: :func:`reindex_theory`,
:func:`conjecture_pools`, :func:`refutation_stats` and
:func:`render_ruletaker` take and return ``RetrofitTheory`` and
``Literal`` objects, which check themselves when built, and
:func:`retrofit`, :func:`parse_ruletaker` and :func:`parse_conjecture`
return them.  Below that boundary a theory is a ``cnf._IntCnf``: the
rules in order, then one unit clause per fact, the clause order of
``RetrofitTheory.formula``.  The cores (``_retrofit``,
``_conjecture_pools``, ``_refutation``, ``_render``, ``_parse``,
``_parse_conjecture``) and ``fragments._reindex`` work on it; the
ruletaker generator chains them and builds no clause objects, and
the theory's clauses are checked when DIMACS writes them.  ``_render``
is the one writer, and a conjecture is one more fact in its call.  It
writes each literal's atom ("the bear is big", "the bear is not big")
once per call, into a table keyed by signed literal, and formats each
sentence from it; it splits no sentence to count its tokens when the
longest sentence the table can form fits the token budget.  A clause of
width 0 or above 3 raises ``FragmentError``, and an unbound literal
``KeyError``.  ``verify`` decides a parsed conjecture with
``solver._entailment`` and builds none either.

A text has two readers.  A strict text given as one string is read by
``_scan`` first: one compiled pattern of the rule and fact sentences
(``_SENTENCE``) runs over it, the matches must cover it end to end, and
the words are looked up in the vocabulary's sets, which
``RetrofitVocab`` builds once.  It returns what ``_parse`` would, or
None for any text it does not read exactly; on None,
``fragments._read`` splits the text and runs ``_parse``, which also
reads lenient text and sentence lists and alone words a parse error.
A conjecture is one fact sentence, which strict and lenient reading
take alike, so :func:`parse_conjecture` has no strict mode.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

from .cnf import Clause, CnfFormula, Literal, _as_clause, _as_formula, _IntCnf, _normalize_ints
from .fragments import (
    RULETAKER,
    FragmentError,
    NlTheory,
    ParseError,
    VarBinding,
    _check_words,
    _clause_of,
    _fits_budget,
    _Ids,
    _in_var_order,
    _Memo,
    _pair_in_var_order,
    _Refused,
    _reindex,
    check_token_budget,
)
from .sampler import SampleSpec, _clause_stream
from .solver import DEFAULT_MAX_DECISIONS, SAT, _backbone, _dpll, _satisfiable

LABEL_TRUE = "true"
LABEL_FALSE = "false"
# tokens in the longest sentence, a three-literal rule with every atom
# negated: "If the e is not w and the e is not w then the e is not w."
_LONGEST = 18


@dataclass(frozen=True)
class RetrofitVocab:
    """Attribute adjectives and entity nouns for the single-entity fragment."""

    attributes: tuple
    entities: tuple

    def __post_init__(self):
        object.__setattr__(self, "attributes", tuple(self.attributes))
        object.__setattr__(self, "entities", tuple(self.entities))
        for label, words in (("attribute", self.attributes), ("entity", self.entities)):
            if len(set(words)) != len(words):
                raise ValueError(f"duplicate {label} words")
            for w in words:
                if not w or not w.isalpha() or not w.islower():
                    raise ValueError(f"{label} words must be lowercase alphabetic, got {w!r}")
        if not self.attributes or not self.entities:
            raise ValueError("vocabulary needs at least one attribute and one entity")
        # the parsers look words up in these
        object.__setattr__(self, "_attribute_set", frozenset(self.attributes))
        object.__setattr__(self, "_entity_set", frozenset(self.entities))


@dataclass(frozen=True)
class RetrofitTheory:
    """Width-2/3 rules plus unit facts over one entity's attributes."""

    n_vars: int
    rules: tuple
    facts: tuple  # Literal values, deduplicated, no contradictory pair

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))
        object.__setattr__(self, "facts", tuple(self.facts))
        if self.n_vars < 1:
            raise ValueError("need at least one attribute variable")
        for cl in self.rules:
            if not isinstance(cl, Clause):
                raise TypeError(f"expected Clause, got {type(cl).__name__}")
            if cl.width < 2:
                raise ValueError(f"rules must be canonical width 2..3, got {cl.to_ints()}")
            if cl.max_var() > self.n_vars:
                raise ValueError(f"variable {cl.max_var()} exceeds n={self.n_vars}")
        seen = set()
        for lit in self.facts:
            if not isinstance(lit, Literal):
                raise TypeError(f"facts must be Literals, got {type(lit).__name__}")
            if not 1 <= lit.var <= self.n_vars:
                raise ValueError(f"fact variable {lit.var} exceeds n={self.n_vars}")
            if lit.var in seen:
                raise ValueError(f"facts repeat or contradict on variable {lit.var}")
            seen.add(lit.var)

    def formula(self) -> CnfFormula:
        """Rules in order, then one unit clause per fact."""
        return _as_formula(_ints_of(self))


def _ints_of(t: RetrofitTheory) -> _IntCnf:
    """The theory as the int cores see it: rules, then one unit clause per fact."""
    return _IntCnf(
        t.n_vars, [cl.to_ints() for cl in t.rules] + [(lit.to_int(),) for lit in t.facts]
    )


def _as_theory(t: _IntCnf) -> RetrofitTheory:
    """The validated ``RetrofitTheory`` of an int theory; its unit clauses are the facts."""
    return RetrofitTheory(
        t.n_vars,
        tuple([_as_clause(cl) for cl in t.clauses if len(cl) > 1]),
        tuple([Literal.from_int(cl[0]) for cl in t.clauses if len(cl) == 1]),
    )


def retrofit(spec: SampleSpec, m: int, rng, max_decisions: int = DEFAULT_MAX_DECISIONS):
    """Draw m clauses from ``spec`` and collapse them into rules and facts.

    The RNG calls are the ruletaker generator's, in the same order.
    Tautological clauses are redrawn after the m-th clause, in clause
    order, and keep their place; collapsed units become facts,
    deduplicated in first-seen order.  Returns None when the result is
    unusable as a theory: contradictory facts, or rules and facts that
    are unsatisfiable together.  ``solver._satisfiable`` makes that
    check: up to 17 variables ``max_decisions`` is unused, and above
    that the check is a DPLL solve within the budget.

    Up to 17 variables a rejected draw stops at the first clause that
    decides it, so it leaves ``rng`` earlier in its stream than a full
    draw of m clauses would: a caller that shares one RNG across calls
    sees different later draws than it would with the whole draw made.
    The generator gives each candidate its own RNG, so no dataset byte
    depends on it.
    """
    theory = _retrofit(spec, islice(_clause_stream(spec, rng), m), rng, max_decisions)
    return None if theory is None else _as_theory(theory)


# The clause collapse is memoized here only, and only up to
# _COLLAPSE_MEMO_MAX_VARS variables, where all (2n)^3 width-3 draws fit
# the 4,096 entries and nearly every collapse is a hit.  Above it the
# keys mostly miss (about 28% hits at n=12, 10% at n=17), and the memo
# saves nothing at n=12 and slows n=17.  The DIMACS parser passes lists
# and keeps the plain function.
_COLLAPSE_MEMO_MAX_VARS = 8
_collapse = lru_cache(maxsize=(2 * _COLLAPSE_MEMO_MAX_VARS) ** 3)(_normalize_ints)


def _retrofit(spec: SampleSpec, clauses, rng, max_decisions: int):
    """The retrofit core, on signed-int clauses over 1..spec.n: the theory
    as a ``cnf._IntCnf``, or None.

    ``clauses`` is read lazily, one clause at a time, and collapsed as it
    comes; tautologies are left out and redrawn from one
    ``sampler._clause_stream`` on ``rng`` after the last clause, in
    clause order.  The kept clauses stream, in that order, into
    ``solver._satisfiable``, which may stop reading at the first unsat
    prefix.
    """
    n = spec.n
    collapse = _collapse if n <= _COLLAPSE_MEMO_MAX_VARS else _normalize_ints
    collapsed = []
    tautologies = []

    def kept():
        for cl in clauses:
            norm = collapse(cl)
            collapsed.append(norm)
            if norm is None:
                tautologies.append(len(collapsed) - 1)
            else:
                yield norm
        redraws = _clause_stream(spec, rng)
        for at in tautologies:
            norm = collapse(next(redraws))
            while norm is None:
                norm = collapse(next(redraws))
            collapsed[at] = norm
            yield norm

    if not _satisfiable(n, kept(), max_decisions):
        return None
    facts = list(dict.fromkeys([norm for norm in collapsed if len(norm) == 1]))
    return _IntCnf(n, [norm for norm in collapsed if len(norm) > 1] + facts)


def conjecture_pools(theory: RetrofitTheory, max_decisions: int = DEFAULT_MAX_DECISIONS) -> dict:
    """Classify every literal over the theory's variables.

    Returns {"true": [...], "false": [...]} with literals in variable
    order.  Literals stated verbatim as facts are dropped from the
    "true" pool when anything else is available, so entailed
    conjectures usually take at least one inference step.  Raises
    DegenerateTheoryError when the theory itself is unsatisfiable.
    ``solver._backbone`` decides the literals: up to 17 variables
    ``max_decisions`` is unused, and above that each DPLL solve of its
    search has that budget.
    """
    pools = _conjecture_pools(_ints_of(theory), max_decisions)
    return {label: [Literal.from_int(v) for v in pool] for label, pool in pools.items()}


def _conjecture_pools(t: _IntCnf, max_decisions: int) -> dict:
    """The pools core: what :func:`conjecture_pools` returns, with
    signed-int literals."""
    clauses = list(t.clauses)
    entailed = _backbone(t.n_vars, clauses, max_decisions)
    pools = {LABEL_TRUE: entailed, LABEL_FALSE: [-lit for lit in entailed]}
    stated = {cl[0] for cl in clauses if len(cl) == 1}
    inferred = [q for q in entailed if q not in stated]
    if inferred:
        pools[LABEL_TRUE] = inferred
    return pools


def refutation_stats(
    theory: RetrofitTheory,
    conjecture: Literal,
    label: str,
    max_decisions: int = DEFAULT_MAX_DECISIONS,
):
    """Solve effort to close the instance: theory plus the losing side.

    A "true" conjecture is checked by refuting its negation, a "false"
    one by refuting the conjecture itself; either way the run must come
    back unsatisfiable.
    """
    if not isinstance(conjecture, Literal):
        raise TypeError(f"conjecture must be a Literal, got {type(conjecture).__name__}")
    if not 1 <= conjecture.var <= theory.n_vars:
        raise ValueError(f"conjecture variable {conjecture.var} outside 1..{theory.n_vars}")
    if label not in (LABEL_TRUE, LABEL_FALSE):
        raise ValueError(f"unknown label {label!r}")
    result = _refutation(_ints_of(theory), conjecture.to_int(), label, max_decisions)
    if result.label == SAT:
        raise ValueError("conjecture label does not match the theory")
    return result.stats


def _refutation(t: _IntCnf, conjecture: int, label: str, max_decisions: int):
    """The refutation core: the ``SolveResult`` of ``_dpll`` on the rules,
    then the facts, then the unit that ``label`` says is false.

    It checks nothing: unsat is the answer when the label is right.
    """
    refuted = -conjecture if label == LABEL_TRUE else conjecture
    return _dpll(t.n_vars, list(t.clauses) + [(refuted,)], max_decisions)


def reindex_theory(theory: RetrofitTheory) -> tuple:
    """Renumber variables by first appearance over rules then facts.

    Returns (theory, old-to-new map); apply the map to any conjecture
    drawn against the old numbering.
    """
    t, mapping = _reindex(_ints_of(theory))
    return _as_theory(t), mapping


def bind_attributes(theory: RetrofitTheory, vocab: RetrofitVocab, rng) -> VarBinding:
    """Draw attribute words for each variable and one entity noun."""
    _check_words("vocabulary", vocab.attributes, "attributes", theory.n_vars)
    variables = dict(enumerate(rng.sample(vocab.attributes, theory.n_vars), start=1))
    entity = vocab.entities[rng.randrange(len(vocab.entities))]
    return VarBinding(variables, {1: entity})


def render_ruletaker(
    theory: RetrofitTheory,
    binding: VarBinding,
    conjecture: Literal = None,
    token_budget: int = 30,
) -> tuple:
    """Render rules, facts, then the conjecture as one more fact; returns
    (NlTheory, conjecture sentence or None)."""
    t = _ints_of(theory)
    facts = [] if conjecture is None else [(conjecture.to_int(),)]
    sentences = _render(_IntCnf(t.n_vars, t.clauses + facts), binding, token_budget)
    conjecture_text = sentences.pop() if facts else None
    return NlTheory(RULETAKER, tuple(sentences), binding), conjecture_text


def _render(t: _IntCnf, binding: VarBinding, token_budget: int) -> list:
    """The rendering core, on signed ints: one sentence per clause, a rule
    for a wider clause and a fact for a unit clause, conjectures included.

    Each literal's atom ("the lion is red", "the lion is not red") is
    written once per call into a table keyed by signed literal, and a
    clause's sentence is one format over it.  A clause of width 0 or
    above 3 raises ``FragmentError``, and an unbound literal ``KeyError``
    naming its variable.  No sentence is split to count its tokens when
    the longest one fits the budget (``_fits_budget``).
    """
    entity, words = binding.constant_word(1), binding.variables
    atom = {}
    for v, w in words.items():
        atom[v], atom[-v] = f"the {entity} is {w}", f"the {entity} is not {w}"
    checked = not _fits_budget([entity, *words.values()], _LONGEST, token_budget)
    sentences = []
    for cl in t.clauses:
        width = len(cl)
        if not 1 <= width <= 3:
            raise FragmentError(f"sentences need clauses of width 1 to 3, got width {width}")
        # the antecedent states each literal's negation
        try:
            if width == 3:
                a, b, c = cl
                s = f"If {atom[-a]} and {atom[-b]} then {atom[c]}."
            elif width == 2:
                a, c = cl
                s = f"If {atom[-a]} then {atom[c]}."
            else:
                s = f"The{atom[cl[0]][3:]}."
        except KeyError as exc:
            raise KeyError(abs(exc.args[0])) from None
        if checked:
            check_token_budget(s, token_budget)
        sentences.append(s)
    return sentences


class _RtParser:
    """The parsing core's state: attribute ids by first appearance, the
    entity, and rules and facts as signed ints."""

    def __init__(self, vocab: RetrofitVocab):
        self.vocab = vocab
        self.var_ids: dict = {}
        self.entity = None
        self.rules = []
        self.facts = []

    def attr(self, word: str, idx: int) -> int:
        if word not in self.vocab._attribute_set:
            raise ParseError(idx, None, f"unknown attribute {word!r}")
        return self.var_ids.setdefault(word, len(self.var_ids) + 1)

    def atom(self, text: str, idx: int) -> int:
        words = text.split(" ")
        if len(words) < 4 or words[0] != "the":
            raise ParseError(idx, None, f"expected 'the <entity> is ...', got {text!r}")
        entity = words[1]
        if entity not in self.vocab._entity_set:
            raise ParseError(idx, None, f"unknown entity {entity!r}")
        if self.entity is None:
            self.entity = entity
        elif entity != self.entity:
            raise ParseError(idx, None, f"entity changed from {self.entity!r} to {entity!r}")
        if words[2] != "is":
            raise ParseError(idx, None, f"expected 'is' in {text!r}")
        rest = words[3:]
        negated = rest[0] == "not"
        if negated:
            rest = rest[1:]
        if len(rest) != 1:
            raise ParseError(idx, None, f"expected one attribute word in {text!r}")
        var = self.attr(rest[0], idx)
        return -var if negated else var

    def fact_literal(self, body: str, idx: int) -> int:
        # Facts capitalize the leading "The"; atoms inside rules do not.
        if not body.startswith("The "):
            raise ParseError(idx, None, "fact sentences start with 'The'")
        return self.atom("the" + body[3:], idx)

    def sentence(self, s: str, idx: int) -> None:
        if not s.endswith(".") or s.count(".") != 1:
            raise ParseError(idx, None, "sentence must end with its only period")
        body = s[:-1]
        if body.startswith("If "):
            head, sep, cons_text = body[3:].partition(" then ")
            if not sep:
                raise ParseError(idx, None, "rule sentence is missing 'then'")
            ante_texts = head.split(" and ")
            if not 1 <= len(ante_texts) <= 2:
                raise ParseError(idx, None, f"rules take 1 or 2 antecedents, got {len(ante_texts)}")
            literals = [-self.atom(t, idx) for t in ante_texts]
            literals.append(self.atom(cons_text, idx))
            self.rules.append(_clause_of(literals, idx, "an attribute repeats within the rule"))
            return
        self.facts.append(self.fact_literal(body, idx))


def parse_ruletaker(sentences, vocab: RetrofitVocab, strict: bool = True):
    """Parse rule and fact sentences about one entity.

    Returns (RetrofitTheory, VarBinding, entity word).  Variable ids
    follow first appearance.  Lenient mode is identical except that it
    tolerates rules and facts interleaved in any order.
    """
    theory, binding, entity = _parse(sentences, vocab, strict)
    return _as_theory(theory), binding, entity


def _parse(sentences, vocab: RetrofitVocab, strict: bool) -> tuple:
    """The parsing core: (theory as a ``cnf._IntCnf``, binding, entity word).

    The theory is the rules in text order, then one unit clause per
    fact.  Facts that repeat or contradict raise ``ValueError`` with the
    message ``RetrofitTheory`` gives them, after every sentence parsed.
    """
    parser = _RtParser(vocab)
    fact_seen = False
    for idx, s in enumerate(sentences, start=1):
        is_rule = s.startswith("If ")
        if strict and is_rule and fact_seen:
            raise ParseError(idx, None, "rules must precede facts")
        fact_seen = fact_seen or not is_rule
        parser.sentence(s, idx)
    if parser.entity is None:
        raise ParseError(1, None, "no sentences mention an entity")
    stated = set()
    for v in parser.facts:
        if abs(v) in stated:
            raise ValueError(f"facts repeat or contradict on variable {abs(v)}")
        stated.add(abs(v))
    theory = _IntCnf(len(parser.var_ids), parser.rules + [(v,) for v in parser.facts])
    binding = VarBinding(
        {v: w for w, v in parser.var_ids.items()}, {1: parser.entity}
    )
    return theory, binding, parser.entity


# The renderer's surface for one sentence, for ``_scan``: a rule, whose
# atoms all name the entity its first one names, or a fact; then the
# period, and a space or the end of the text.  An atom's attribute
# ("not loud") is one group.
_SENTENCE = re.compile(
    r"((?:If the ([a-z]+) is ((?:not )?[a-z]+)(?: and the \2 is ((?:not )?[a-z]+))?"
    r" then the \2 is ((?:not )?[a-z]+)"
    r"|The ([a-z]+) is ((?:not )?[a-z]+))\.(?: |\Z))"
)
# words the walker splits a rule or negates an attribute on: a vocabulary
# that holds one is left to the walker
_GRAMMAR_WORDS = ("not", "and", "then")


def _scan(text: str, vocab: RetrofitVocab):
    """What ``_parse`` returns for a strict text that is exactly the
    renderer's surface, or None.

    One compiled pattern, ``_SENTENCE``, runs over the whole text, and
    its matches must cover it end to end.  An attribute is looked up in
    the vocabulary's set on its first appearance, and an atom ("not
    loud") is read on its first.  None comes back as soon as anything is
    off (a gap between sentences, an unknown word, another entity, a
    repeated attribute, a rule after a fact, a fact stated twice), and
    for a vocabulary that holds a grammar word; the caller then runs
    ``_parse``, which words the error.  The scan accepts a subset of
    what ``_parse`` accepts and returns the same theory.
    """
    attributes, entities = vocab._attribute_set, vocab._entity_set
    if not text.endswith(".") or any(w in attributes or w in entities for w in _GRAMMAR_WORDS):
        return None

    var_ids = _Ids(attributes.__contains__)

    def read_atom(atom: str) -> int:
        """The signed id an atom states: "loud" +, "not loud" -."""
        negation, _, word = atom.rpartition(" ")
        return -var_ids[word] if negation else var_ids[word]

    stated = _Memo(read_atom)
    entity = None
    rules = []
    facts = []
    at = 0
    try:
        for sentence, rule_entity, ante1, ante2, cons, fact_entity, fact in _SENTENCE.findall(text):
            at += len(sentence)
            if entity is None:
                entity = rule_entity or fact_entity
            if fact:
                if fact_entity != entity:
                    return None
                facts.append(stated[fact])
                continue
            if facts or rule_entity != entity:
                return None
            # an antecedent states the negation of its clause literal
            a = -stated[ante1]
            if ante2:
                clause = _in_var_order(a, -stated[ante2], stated[cons])
            else:
                clause = _pair_in_var_order(a, stated[cons])
            if clause is None:
                return None
            rules.append(clause)
    except _Refused:
        return None
    # matches never overlap, so lengths that sum to the text's cover it
    if at != len(text) or entity not in entities or len({abs(v) for v in facts}) != len(facts):
        return None
    theory = _IntCnf(len(var_ids), rules + [(v,) for v in facts])
    return theory, VarBinding({v: w for w, v in var_ids.items()}, {1: entity}), entity


def parse_conjecture(sentence: str, vocab: RetrofitVocab, binding: VarBinding) -> Literal:
    """Parse a conjecture sentence against an existing theory's binding."""
    return Literal.from_int(_parse_conjecture(sentence, vocab, binding))


def _parse_conjecture(sentence: str, vocab, binding: VarBinding) -> int:
    """The conjecture core: the signed-int literal the sentence states."""
    parser = _RtParser(vocab)
    parser.entity = binding.constant_word(1)
    parser.var_ids = {w: v for v, w in binding.variables.items()}
    n_known = len(parser.var_ids)
    if not sentence.endswith(".") or sentence.count(".") != 1:
        raise ParseError(1, None, "sentence must end with its only period")
    lit = parser.fact_literal(sentence[:-1], 1)
    if len(parser.var_ids) != n_known:
        raise ParseError(1, None, "conjecture mentions an attribute the theory does not")
    return lit
