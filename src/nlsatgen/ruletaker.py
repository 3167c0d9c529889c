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
"""

from __future__ import annotations

from dataclasses import dataclass

from .cnf import Clause, CnfFormula, Literal, normalize_clause
from .fragments import (
    RULETAKER,
    FragmentError,
    NlTheory,
    ParseError,
    VarBinding,
    appearance_map,
    check_all_mentioned,
    check_token_budget,
    remap_clause,
)
from .sampler import SampleSpec, sample_clause
from .solver import (
    CONTRADICTED,
    DEFAULT_MAX_DECISIONS,
    ENTAILED,
    SAT,
    check_entailment,
    solve,
)

LABEL_TRUE = "true"
LABEL_FALSE = "false"


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
            if cl.raw or cl.width < 2:
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
        units = tuple(Clause((lit,)) for lit in self.facts)
        return CnfFormula(self.n_vars, self.rules + units)

    @property
    def m_sentences(self) -> int:
        return len(self.rules) + len(self.facts)


def retrofit(
    f: CnfFormula,
    rng=None,
    spec: SampleSpec = None,
    max_decisions: int = DEFAULT_MAX_DECISIONS,
):
    """Normalize a with-replacement formula into rules and facts.

    Tautological clauses are redrawn (``spec`` and ``rng`` required for
    that); collapsed units become facts, deduplicated in first-seen
    order.  Returns None when the result is unusable as a theory:
    contradictory facts, or rules and facts that are unsatisfiable
    together.  Since the facts never contradict each other, one solve
    of the whole theory also covers the rules alone.
    """
    rules = []
    facts = []
    fact_vars = {}
    for cl in f.clauses:
        norm = normalize_clause(cl)
        while norm is None:
            if spec is None or rng is None:
                raise ValueError("tautological clause: pass spec and rng to redraw")
            norm = normalize_clause(sample_clause(spec, rng))
        if norm.width == 1:
            lit = norm.literals[0]
            if lit.var in fact_vars:
                if fact_vars[lit.var] != lit.negated:
                    return None  # contradictory facts
                continue
            fact_vars[lit.var] = lit.negated
            facts.append(lit)
        else:
            rules.append(norm)
    theory = RetrofitTheory(f.n_vars, tuple(rules), tuple(facts))
    if solve(theory.formula(), max_decisions).label != SAT:
        return None
    return theory


def conjecture_pools(theory: RetrofitTheory, max_decisions: int = DEFAULT_MAX_DECISIONS) -> dict:
    """Classify every literal over the theory's variables.

    Returns {"true": [...], "false": [...]} with literals in variable
    order, positive polarity first.  Literals stated verbatim as facts
    are dropped from the "true" pool when anything else is available,
    so entailed conjectures usually take at least one inference step.
    """
    formula = theory.formula()
    pools = {LABEL_TRUE: [], LABEL_FALSE: []}
    for v in range(1, theory.n_vars + 1):
        status = check_entailment(formula, Literal(v), max_decisions)
        if status == ENTAILED:
            pools[LABEL_TRUE].append(Literal(v))
            pools[LABEL_FALSE].append(Literal(v, True))
        elif status == CONTRADICTED:
            pools[LABEL_FALSE].append(Literal(v))
            pools[LABEL_TRUE].append(Literal(v, True))
    stated = set(theory.facts)
    inferred = [q for q in pools[LABEL_TRUE] if q not in stated]
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
    q = conjecture.negate() if label == LABEL_TRUE else conjecture
    base = theory.formula()
    result = solve(CnfFormula(base.n_vars, base.clauses + (Clause((q,)),)), max_decisions)
    if result.label == SAT:
        raise ValueError("conjecture label does not match the theory")
    return result.stats


def reindex_theory(theory: RetrofitTheory) -> tuple:
    """Renumber variables by first appearance over rules then facts.

    Returns (theory, old-to-new map); apply the map to any conjecture
    drawn against the old numbering.
    """
    walk = [lit.var for cl in theory.rules for lit in cl.literals]
    walk.extend(lit.var for lit in theory.facts)
    mapping = appearance_map(walk)
    check_all_mentioned(mapping, theory.n_vars)
    rules = tuple(remap_clause(cl, mapping) for cl in theory.rules)
    facts = tuple(Literal(mapping[l.var], l.negated) for l in theory.facts)
    return RetrofitTheory(theory.n_vars, rules, facts), mapping


def bind_attributes(theory: RetrofitTheory, vocab: RetrofitVocab, rng) -> VarBinding:
    """Draw attribute words for each variable and one entity noun."""
    if theory.n_vars > len(vocab.attributes):
        raise FragmentError(
            f"vocabulary has {len(vocab.attributes)} attributes, need {theory.n_vars}"
        )
    variables = dict(enumerate(rng.sample(vocab.attributes, theory.n_vars), start=1))
    entity = vocab.entities[rng.randrange(len(vocab.entities))]
    return VarBinding(variables, {1: entity})


def _atom(lit: Literal, entity: str, binding: VarBinding) -> str:
    polarity = "is not" if lit.negated else "is"
    return f"the {entity} {polarity} {binding.word(lit.var)}"


def render_rule(cl: Clause, entity: str, binding: VarBinding) -> str:
    *antecedents, consequent = cl.literals
    ante = " and ".join(_atom(l.negate(), entity, binding) for l in antecedents)
    return f"If {ante} then {_atom(consequent, entity, binding)}."


def render_fact(lit: Literal, entity: str, binding: VarBinding) -> str:
    s = _atom(lit, entity, binding)
    return s[0].upper() + s[1:] + "."


def render_ruletaker(
    theory: RetrofitTheory,
    binding: VarBinding,
    conjecture: Literal = None,
    token_budget: int = 30,
) -> tuple:
    """Render rules then facts; returns (NlTheory, conjecture sentence or None)."""
    entity = binding.constant_word(1)
    sentences = []
    for cl in theory.rules:
        s = render_rule(cl, entity, binding)
        check_token_budget(s, token_budget)
        sentences.append(s)
    for lit in theory.facts:
        s = render_fact(lit, entity, binding)
        check_token_budget(s, token_budget)
        sentences.append(s)
    conjecture_text = None
    if conjecture is not None:
        conjecture_text = render_fact(conjecture, entity, binding)
        check_token_budget(conjecture_text, token_budget)
    return NlTheory(RULETAKER, tuple(sentences), binding), conjecture_text


class _RtParser:
    def __init__(self, vocab: RetrofitVocab, strict: bool):
        self.vocab = vocab
        self.strict = strict
        self.var_ids: dict = {}
        self.entity = None
        self.rules = []
        self.facts = []

    def attr(self, word: str, idx: int) -> int:
        if word not in self.vocab.attributes:
            raise ParseError(idx, None, f"unknown attribute {word!r}")
        return self.var_ids.setdefault(word, len(self.var_ids) + 1)

    def atom(self, text: str, idx: int) -> Literal:
        words = text.split(" ")
        if len(words) < 4 or words[0] != "the":
            raise ParseError(idx, None, f"expected 'the <entity> is ...', got {text!r}")
        entity = words[1]
        if entity not in self.vocab.entities:
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
        return Literal(self.attr(rest[0], idx), negated)

    def fact_literal(self, body: str, idx: int) -> Literal:
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
            literals = [self.atom(t, idx).negate() for t in ante_texts]
            literals.append(self.atom(cons_text, idx))
            if len({l.var for l in literals}) != len(literals):
                raise ParseError(idx, None, "an attribute repeats within the rule")
            self.rules.append(Clause(tuple(sorted(literals))))
            return
        self.facts.append(self.fact_literal(body, idx))


def parse_ruletaker(sentences, vocab: RetrofitVocab, strict: bool = True):
    """Parse rule and fact sentences about one entity.

    Returns (RetrofitTheory, VarBinding, entity word).  Variable ids
    follow first appearance.  Lenient mode is identical except that it
    tolerates rules and facts interleaved in any order.
    """
    parser = _RtParser(vocab, strict)
    fact_seen = False
    for idx, s in enumerate(sentences, start=1):
        is_rule = s.startswith("If ")
        if strict and is_rule and fact_seen:
            raise ParseError(idx, None, "rules must precede facts")
        fact_seen = fact_seen or not is_rule
        parser.sentence(s, idx)
    if parser.entity is None:
        raise ParseError(1, None, "no sentences mention an entity")
    theory = RetrofitTheory(len(parser.var_ids), tuple(parser.rules), tuple(parser.facts))
    binding = VarBinding(
        {v: w for w, v in parser.var_ids.items()}, {1: parser.entity}
    )
    return theory, binding, parser.entity


def parse_conjecture(sentence: str, vocab: RetrofitVocab, binding: VarBinding, strict: bool = True) -> Literal:
    """Parse a conjecture sentence against an existing theory's binding."""
    parser = _RtParser(vocab, strict)
    parser.entity = binding.constant_word(1)
    parser.var_ids = {w: v for v, w in binding.variables.items()}
    n_known = len(parser.var_ids)
    if not sentence.endswith(".") or sentence.count(".") != 1:
        raise ParseError(1, None, "sentence must end with its only period")
    lit = parser.fact_literal(sentence[:-1], 1)
    if len(parser.var_ids) != n_known:
        raise ParseError(1, None, "conjecture mentions an attribute the theory does not")
    return lit
