"""Quantified relative-clause fragment over predicates and constants.

Universal sentences verbalize width-3 clauses over unary predicates,
implicitly quantified over one variable; ground sentences attach a
width-3 clause to a named constant.  A universal clause with at least
one negative literal restricts on the lowest-index negative one:

    (-doctor v philosopher v baker)
        "Every doctor who is not a philosopher is a baker."
    (-baker v -gardener v -philosopher)
        "Every baker who is a gardener is not a philosopher."
        (or, rewritten) "No baker who is a gardener is a philosopher."

An all-positive clause (X v Y v Z) reads (not X and not Y) -> Z:

    "Everyone who is not an architect and not a baker is a chemist."

Ground sentences list their literals verbatim:

    "Quinn is a doctor or a philosopher or not a baker."

Grounding expands each universal clause over every constant.  Ground
variable ids are constant-major: predicate p of constant c maps to
(c - 1) * n_predicates + p.

Validation happens at the boundary: the public functions take and
return ``RclProblem`` and ``CnfFormula`` objects, which check their
clauses when built.  Each wraps one private core (``_reindex``,
``_ground``, ``_render``, ``_parse``) on ``_IntProblem``, the same
problem with signed-int clause tuples; the rcl generator draws with
``_draw``, chains those cores and builds no clause objects, and the
grounded clauses are checked when DIMACS writes them.  ``_render``
writes each atom's text ("a baker", "not a baker") once per call, into a
table keyed by signed literal that fills on first use, and formats each
sentence from it; it splits no sentence to count its tokens when the
longest sentence a table can form fits the token budget.  ``verify``
grounds what ``_parse`` returns with ``_ground`` and builds none either.

A text has two readers, both built from the one statement of the four
strict sentence forms, ``_FORMS``.  A strict string is read by ``_scan``
first: their alternation runs over it, the matches must cover it end to
end, and the words are looked up on their first appearance.  It returns
what ``_parse`` would, or None for any text it does not read exactly;
on None, ``fragments._read`` splits the text and runs ``_parse``, which
matches each sentence against the forms, also reads lenient text and
sentence lists, and alone words a parse error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .cnf import Clause, CnfFormula, _as_clause, _as_formula, _IntCnf
from .fragments import (
    RCL,
    FragmentError,
    NlTheory,
    ParseError,
    VarBinding,
    _clause_of,
    _fits_budget,
    _Ids,
    _in_var_order,
    _Memo,
    _noun_of,
    _Refused,
    _remap,
    appearance_map,
    check_all_mentioned,
    check_token_budget,
)
from .sampler import _draw_clauses, _spec

DEFAULT_NO_REWRITE_PROB = 0.25
# tokens in the longest sentence, "Everyone who is not a w and not a w is a w."
# or "N is not a w or not a w or not a w."
_LONGEST = 13
PREDICATE_COUNTS = range(5, 9)  # the predicate counts a sampled problem may have


@dataclass(frozen=True)
class RclProblem:
    """Canonical clauses over predicates, universal or attached to a constant.

    Sampled problems use width-3 clauses throughout (the only width the
    sentence templates can express); the type itself accepts any
    canonical width so grounding arithmetic works on degenerate cases.
    """

    n_predicates: int
    n_constants: int
    universal_clauses: tuple
    ground_clauses: tuple  # (constant id, Clause) pairs

    def __post_init__(self):
        object.__setattr__(self, "universal_clauses", tuple(self.universal_clauses))
        object.__setattr__(self, "ground_clauses", tuple(self.ground_clauses))
        if self.n_predicates < 2:
            raise ValueError("need at least 2 predicates")
        if self.n_constants < 1:
            raise ValueError("need at least one constant")
        for cl in self.universal_clauses:
            self._check_clause(cl)
        for cid, cl in self.ground_clauses:
            if not 1 <= cid <= self.n_constants:
                raise ValueError(f"constant id {cid} outside 1..{self.n_constants}")
            self._check_clause(cl)

    def _check_clause(self, cl: Clause) -> None:
        if not isinstance(cl, Clause):
            raise TypeError(f"expected Clause, got {type(cl).__name__}")
        if cl.max_var() > self.n_predicates:
            raise ValueError(
                f"predicate {cl.max_var()} exceeds {self.n_predicates} predicates"
            )


def ground_var(pred: int, const: int, n_predicates: int) -> int:
    return (const - 1) * n_predicates + pred


class _IntProblem(NamedTuple):
    """An ``RclProblem`` as the int cores see it: the same fields, with
    each clause a canonical signed-int tuple."""

    n_predicates: int
    n_constants: int
    universal_clauses: Sequence
    ground_clauses: Sequence  # (constant id, int clause) pairs


def _ints_of(p: RclProblem) -> _IntProblem:
    return _IntProblem(
        p.n_predicates,
        p.n_constants,
        [cl.to_ints() for cl in p.universal_clauses],
        [(cid, cl.to_ints()) for cid, cl in p.ground_clauses],
    )


def _as_problem(p: _IntProblem) -> RclProblem:
    """The validated ``RclProblem`` of an int problem."""
    return RclProblem(
        p.n_predicates,
        p.n_constants,
        tuple([_as_clause(cl) for cl in p.universal_clauses]),
        tuple([(cid, _as_clause(cl)) for cid, cl in p.ground_clauses]),
    )


def ground_rcl(p: RclProblem) -> CnfFormula:
    """Expand universals over all constants, then append ground clauses.

    Clause order: universal clauses in order, each expanded constant 1
    to C, followed by the ground clauses in order.  Literal order is
    preserved by the constant-major mapping, so clauses stay canonical.
    """
    return _as_formula(_ground(_ints_of(p)))


def _ground(p: _IntProblem) -> _IntCnf:
    """The grounding core: shifting predicate p of constant c by
    ``ground_var(0, c, P)`` gives ``ground_var(p, c, P)``."""
    n_predicates = p.n_predicates
    offsets = [ground_var(0, c, n_predicates) for c in range(1, p.n_constants + 1)]
    clauses = [_shift(cl, off) for cl in p.universal_clauses for off in offsets]
    clauses += [_shift(cl, offsets[cid - 1]) for cid, cl in p.ground_clauses]
    return _IntCnf(n_predicates * p.n_constants, clauses)


def _shift(cl, off: int) -> tuple:
    return tuple([v + off if v > 0 else v - off for v in cl])


def feasible_predicate_counts(n_ground: int) -> list:
    """Predicate counts P in 5..8 with P * C = n_ground for some C >= 2."""
    return [p for p in PREDICATE_COUNTS if n_ground % p == 0 and n_ground // p >= 2]


def split_clause_budget(total: int, n_constants: int) -> tuple:
    """Split a grounded clause budget into (universal, per-constant ground) counts.

    total = m_universal * n_constants + m_ground, with every constant
    guaranteed at least one ground clause.
    """
    c = n_constants
    if total < 2 * c:
        raise ValueError(f"budget {total} too small for {c} constants")
    m_ground = max(c, round(0.25 * total))  # about a quarter are ground clauses
    m_universal = max(1, round((total - m_ground) / c))
    m_ground = total - m_universal * c
    while m_ground < c:
        m_universal -= 1
        m_ground += c
    if m_universal < 1:
        raise ValueError(f"budget {total} leaves no room for universal clauses")
    return m_universal, m_ground


def _draw(n_predicates, n_constants, m_universal, m_ground, p_neg, rng) -> _IntProblem:
    """Draw universal, then ground clauses, on signed ints.  Ground clauses
    are dealt one per constant first (m_ground >= n_constants), the
    remainder to random constants, so every constant is mentioned."""
    spec = _spec(n_predicates, 1.0, p_neg)
    universals = _draw_clauses(spec, m_universal, rng)
    counts = [1] * n_constants
    for _ in range(m_ground - n_constants):
        counts[rng.randrange(n_constants)] += 1
    grounds = [
        (cid, cl)
        for cid in range(1, n_constants + 1)
        for cl in _draw_clauses(spec, counts[cid - 1], rng)
    ]
    return _IntProblem(n_predicates, n_constants, universals, grounds)


def _restrictor_index(cl) -> int:
    """Position of the lowest-index negative literal, or -1 if all positive."""
    for i, v in enumerate(cl):
        if v < 0:
            return i
    return -1


def _sentence_walk(cl) -> list:
    """Predicates in the order the sentence mentions them."""
    walk = [abs(v) for v in cl]
    r = _restrictor_index(cl)
    if r > 0:
        walk.insert(0, walk.pop(r))
    return walk


def reindex_problem(p: RclProblem) -> tuple:
    """Renumber predicates and constants by first textual appearance.

    Returns (problem, predicate map, constant map).  The renumbering is
    a fixpoint: rendering the result and parsing it back reproduces it.
    """
    q, pred_map, const_map = _reindex(_ints_of(p))
    return _as_problem(q), pred_map, const_map


def _reindex(p: _IntProblem) -> tuple:
    """The renumbering core, on signed-int clauses."""
    pred_walk = []
    for cl in p.universal_clauses:
        pred_walk.extend(_sentence_walk(cl))
    for _, cl in p.ground_clauses:
        pred_walk.extend([abs(v) for v in cl])
    pred_map = appearance_map(pred_walk)
    check_all_mentioned(pred_map, p.n_predicates, "predicates")
    const_map = appearance_map(cid for cid, _ in p.ground_clauses)
    check_all_mentioned(const_map, p.n_constants, "constants")
    universals = [_remap(cl, pred_map) for cl in p.universal_clauses]
    grounds = [(const_map[cid], _remap(cl, pred_map)) for cid, cl in p.ground_clauses]
    return _IntProblem(p.n_predicates, p.n_constants, universals, grounds), pred_map, const_map


def _atom_text(v: int, words: dict, lexicon) -> str:
    noun = words[abs(v)]
    art = lexicon.article(noun)
    return ("not " if v < 0 else "") + f"{art} {noun}"


def render_rcl(
    p: RclProblem,
    binding: VarBinding,
    lexicon,
    rng=None,
    no_rewrite_prob: float = DEFAULT_NO_REWRITE_PROB,
    token_budget: int = 30,
) -> NlTheory:
    """Render universal sentences, then ground sentences, in clause order.

    ``rng`` drives the optional rewrite of a negative-consequent
    "Every ... is not ..." into the "No ... is ..." surface; omit it to
    always keep the Every form.
    """
    sentences = _render(_ints_of(p), binding, lexicon, rng, no_rewrite_prob, token_budget)
    return NlTheory(RCL, tuple(sentences), binding)


def _render(p: _IntProblem, binding, lexicon, rng, no_rewrite_prob, token_budget) -> list:
    """The rendering core, on signed-int clauses; one sentence per clause.

    Each atom's text ("a baker", "not a baker") is written once per call,
    with ``_atom_text``, into a table keyed by signed literal, and a
    width-3 clause's sentence is one format over it.  The table fills on
    first use, so a word is looked up, and its article asked for, only
    at the first atom that needs it, and any error comes from there.
    Only width-3 clauses have sentences.  No sentence is split to count
    its tokens when the longest one fits the budget (``_fits_budget``).
    """
    words, names = binding.variables, binding.constants
    atom = _Memo(lambda v: _atom_text(v, words, lexicon))
    checked = not _fits_budget([*words.values(), *names.values()], _LONGEST, token_budget)
    sentences = []
    for cl in p.universal_clauses:
        if len(cl) != 3:
            raise FragmentError(
                f"universal sentences need width-3 clauses, got width {len(cl)}"
            )
        a, b, c = cl
        if a >= 0 and b >= 0 and c >= 0:
            s = f"Everyone who is not {atom[a]} and not {atom[b]} is {atom[c]}."
        else:
            # the restrictor is the first negative literal (as in
            # ``_sentence_walk``), "who" the negation of the next literal,
            # and the consequent the last
            x, who, cons = (a, -b, c) if a < 0 else (b, -a, c) if b < 0 else (c, -a, b)
            x_noun, who_txt = words[-x], atom[who]
            if cons < 0 and rng is not None and rng.random() < no_rewrite_prob:
                s = f"No {x_noun} who is {who_txt} is {atom[-cons]}."
            else:
                s = f"Every {x_noun} who is {who_txt} is {atom[cons]}."
        if checked:
            check_token_budget(s, token_budget)
        sentences.append(s)
    for cid, cl in p.ground_clauses:
        name = names[cid]
        if len(cl) != 3:
            raise FragmentError(
                f"ground sentences need width-3 clauses, got width {len(cl)}"
            )
        a, b, c = cl
        s = f"{name} is {atom[a]} or {atom[b]} or {atom[c]}."
        if checked:
            check_token_budget(s, token_budget)
        sentences.append(s)
    return sentences


_ATOM = r"(?:not )?an? [a-z]+"
# The renderer's Every, No, Everyone and ground forms, in the order the
# core tries them, each atom ("not a baker") one group.  The core matches
# a sentence body with a form plus ``\Z``; ``_scan`` matches a whole text
# with ``_SENTENCE``: any form, its period, then a space or the end.
_FORMS = (
    rf"Every ([a-z]+) who is ({_ATOM}) is ({_ATOM})",
    rf"No ([a-z]+) who is ({_ATOM}) is (an? [a-z]+)",
    r"Everyone who is (not an? [a-z]+) and (not an? [a-z]+) is (an? [a-z]+)",
    rf"([A-Z][a-zA-Z]*) is ({_ATOM}) or ({_ATOM}) or ({_ATOM})",
)
_EVERY_RE, _NO_RE, _EVERYONE_STRICT_RE, _GROUND_RE = [re.compile(f + r"\Z") for f in _FORMS]
_EVERYONE_LENIENT_RE = re.compile(
    rf"(?:Everyone who|Everything that) is ({_ATOM}) and ({_ATOM}) is ({_ATOM})\Z"
)
_SENTENCE = re.compile(rf"((?:{'|'.join(_FORMS)})\.(?: |\Z))")


class _RclParser:
    """The parsing core's state: ids by first appearance, and the
    problem's clauses as canonical signed-int tuples."""

    def __init__(self, lexicon, strict: bool):
        self.lexicon = lexicon
        self.strict = strict
        self.pred_ids: dict = {}
        self.const_ids: dict = {}
        self.universals = []
        self.grounds = []

    def pred(self, noun: str) -> int:
        return self.pred_ids.setdefault(noun, len(self.pred_ids) + 1)

    def atom(self, text: str, idx: int, offset: int) -> int:
        """The signed predicate id of an atom such as "not a baker"."""
        negated = text.startswith("not ")
        body = text[4:] if negated else text
        art, _, word = body.partition(" ")
        end = offset + len(text)
        noun = _noun_of(word, idx, lambda: (end - len(word), end), self.lexicon, self.strict)
        if self.strict and art != self.lexicon.article(noun):
            raise ParseError(
                idx, (offset, end),
                f"article mismatch: expected {self.lexicon.article(noun)!r} before {noun!r}",
            )
        pred = self.pred(noun)
        return -pred if negated else pred

    def bare_noun(self, word: str, idx: int, offset: int) -> int:
        noun = _noun_of(
            word, idx, lambda: (offset, offset + len(word)), self.lexicon, self.strict
        )
        return self.pred(noun)

    def sentence(self, s: str, idx: int) -> None:
        if not s.endswith(".") or s.count(".") != 1:
            raise ParseError(idx, None, "sentence must end with its only period")
        body = s[:-1]
        m = _EVERY_RE.match(body)
        if m:
            x = self.bare_noun(m.group(1), idx, m.start(1))
            who = self.atom(m.group(2), idx, m.start(2))
            cons = self.atom(m.group(3), idx, m.start(3))
            self.universals.append(_clause_of([-x, -who, cons], idx))
            return
        m = _NO_RE.match(body)
        if m:
            x = self.bare_noun(m.group(1), idx, m.start(1))
            who = self.atom(m.group(2), idx, m.start(2))
            z = self.atom(m.group(3), idx, m.start(3))
            self.universals.append(_clause_of([-x, -who, -z], idx))
            return
        m = (_EVERYONE_STRICT_RE if self.strict else _EVERYONE_LENIENT_RE).match(body)
        if m:
            a1 = self.atom(m.group(1), idx, m.start(1))
            a2 = self.atom(m.group(2), idx, m.start(2))
            cons = self.atom(m.group(3), idx, m.start(3))
            self.universals.append(_clause_of([-a1, -a2, cons], idx))
            return
        m = _GROUND_RE.match(body)
        if m:
            name = m.group(1)
            if name not in self.lexicon.proper_nouns:
                raise ParseError(idx, m.span(1), f"unknown name {name!r}")
            cid = self.const_ids.setdefault(name, len(self.const_ids) + 1)
            lits = [self.atom(m.group(i), idx, m.start(i)) for i in (2, 3, 4)]
            self.grounds.append((cid, _clause_of(lits, idx)))
            return
        raise ParseError(idx, None, f"sentence does not match the fragment grammar: {s!r}")


def _scan(text: str, lexicon):
    """What ``_parse`` returns for a strict text that is exactly the
    renderer's surface, or None.

    One compiled pattern, ``_SENTENCE``, runs over the whole text, and
    its matches must cover it end to end.  A noun or name is looked up
    in the lexicon on its first appearance, and an atom has its article
    checked on its first.  None comes back
    as soon as anything is off (a gap between sentences, an unknown noun
    or name, a wrong article, a repeated noun, no ground sentence), and
    the caller then runs ``_parse``, which words the error.  The scan
    accepts a subset of what ``_parse`` accepts and returns the same
    problem.
    """
    if not text.endswith("."):
        return None
    singular_of, article = lexicon.singular_of, lexicon.article
    pred_ids = _Ids(lambda noun: singular_of(noun) == noun)
    const_ids = _Ids(lexicon.proper_nouns.__contains__)

    def read_atom(atom: str) -> int:
        """The signed predicate id of an atom such as "not a baker"."""
        negated = atom.startswith("not ")
        art, _, noun = (atom[4:] if negated else atom).partition(" ")
        pred = pred_ids[noun]
        if art != article(noun):
            raise _Refused(atom)
        return -pred if negated else pred

    atoms = _Memo(read_atom)
    universals = []
    grounds = []
    at = 0
    try:
        for (
            sentence, every, who, cons, no, no_who, no_cons, one, two, three, name, g1, g2, g3
        ) in _SENTENCE.findall(text):
            at += len(sentence)
            if every:
                clause = _in_var_order(-pred_ids[every], -atoms[who], atoms[cons])
            elif no:
                clause = _in_var_order(-pred_ids[no], -atoms[no_who], -atoms[no_cons])
            elif one:
                clause = _in_var_order(-atoms[one], -atoms[two], atoms[three])
            else:
                clause = _in_var_order(atoms[g1], atoms[g2], atoms[g3])
            if clause is None:
                return None
            if name:
                grounds.append((const_ids[name], clause))
            else:
                universals.append(clause)
    except _Refused:
        return None
    # matches never overlap, so lengths that sum to the text's cover it
    if at != len(text) or not grounds:
        return None
    problem = _IntProblem(len(pred_ids), len(const_ids), universals, grounds)
    binding = VarBinding(
        {v: noun for noun, v in pred_ids.items()},
        {c: name for name, c in const_ids.items()},
    )
    return problem, binding


def parse_rcl(sentences, lexicon, strict: bool = True):
    """Parse quantified and ground sentences back into an RclProblem.

    Predicate ids follow first appearance across the text; constant ids
    follow first appearance among ground sentences.  Strict mode
    requires the renderer's exact surface (articles included); lenient
    mode also accepts "Everything that is ..." phrasing, plural nouns,
    any atom polarities in Everyone sentences, and wrong articles.
    """
    problem, binding = _parse(sentences, lexicon, strict)
    return _as_problem(problem), binding


def _parse(sentences, lexicon, strict: bool) -> tuple:
    """The parsing core: (``_IntProblem``, binding)."""
    parser = _RclParser(lexicon, strict)
    for idx, s in enumerate(sentences, start=1):
        parser.sentence(s, idx)
    if not parser.grounds:
        raise ParseError(1, None, "no ground sentences; constants unrecoverable")
    problem = _IntProblem(
        len(parser.pred_ids), len(parser.const_ids), parser.universals, parser.grounds
    )
    binding = VarBinding(
        {v: noun for noun, v in parser.pred_ids.items()},
        {c: name for name, c in parser.const_ids.items()},
    )
    return problem, binding
