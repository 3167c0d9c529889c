"""Propositional if-then rule fragment.

Every clause becomes one conditional sentence by reading the last
literal (in canonical order) as the consequent and the rest, negated,
as the conjunctive antecedent: (l1 v l2 v l3) is rendered as the
implication (not l1 and not l2) -> l3.  Negation surfaces as "no" in
the antecedent and "not" in the consequent:

    (-carrot v steak v apple)   "If carrot and no steak then apple."
    (-apple v -grape v -carrot) "If apple and grape then not carrot."
    (carrot v -steak)           "If no carrot then not steak."

Unit clauses, and clauses wider than three, have no sentence form here
and raise ``FragmentError``; an unbound literal raises ``KeyError``.

Validation happens at the boundary: :func:`render_grl` takes a
``CnfFormula``, whose clauses are canonical.  The sentences themselves come
from ``_render``, the fragment's one writer, which reads canonical
signed-int clauses, so the grl generator renders its int clauses without
building objects.  It writes each literal's antecedent text ("no steak"
for +steak, "steak" for -steak) and consequent text once per call, into
tables keyed by signed literal, and formats each sentence from them; it
splits no sentence to count its tokens when the longest sentence the
tables can form fits the token budget.  Parsing mirrors it: the core
``_parse`` returns a ``cnf._IntCnf``, which ``verify`` compares and
labels as it is, and :func:`parse_grl` builds the validated
``CnfFormula`` from it.

A text has two readers.  A strict text given as one string is read by
``_scan``, which runs one compiled pattern of the renderer's sentences
(``_SENTENCE``) over it, requires the matches to cover it end to end,
and returns what ``_parse`` would, or None for any text it does not
read exactly.  ``_parse`` reads everything else, sentence by sentence,
with the token walker ``_walk``: lenient text, sentence lists, and every
text the scan refuses.  It alone words a parse error, so every accepted
text and every error is the same as without the scan.
"""

from __future__ import annotations

import re

from .cnf import CnfFormula, _as_formula, _IntCnf
from .fragments import (
    GRL,
    FragmentError,
    NlTheory,
    ParseError,
    VarBinding,
    _clause_of,
    _fits_budget,
    _Ids,
    _in_var_order,
    _Memo,
    _pair_in_var_order,
    _noun_of,
    _Refused,
    check_token_budget,
)

_TOKEN = re.compile(r"\S+")
# The renderer's surface over a whole text, for ``_scan``: each sentence
# with its atoms (an optionally negated noun of lowercase letters), its
# period, and a space or the end of the text.
_SENTENCE = re.compile(
    r"(If ((?:no )?[a-z]+)(?: and ((?:no )?[a-z]+))? then ((?:not )?[a-z]+)\.(?: |\Z))"
)
# words the scan could read as nouns where the walker reads them as grammar
_GRAMMAR_WORDS = ("no", "not", "and", "then")
# tokens in the longest table sentence, "If no w and no w then not w."
_LONGEST = 9


def _render(clauses, binding: VarBinding, token_budget: int) -> list:
    """The rendering core: one sentence per signed-int clause, in order.

    Each literal's antecedent text (its negation) and consequent text
    are written once per call into tables keyed by signed literal, and a
    two- or three-literal clause's sentence is one format over them.
    Any other width raises ``FragmentError``, and an unbound literal
    ``KeyError`` naming its variable.  No sentence is split to count its
    tokens when the longest one fits the budget (``_fits_budget``).
    """
    words = binding.variables
    ante, cons = {}, {}
    for v, w in words.items():
        ante[v], ante[-v] = f"no {w}", w
        cons[v], cons[-v] = w, f"not {w}"
    checked = not _fits_budget(words.values(), _LONGEST, token_budget)
    sentences = []
    for cl in clauses:
        width = len(cl)
        if not 2 <= width <= 3:
            raise FragmentError(
                "unit clauses have no rendering in this fragment" if width < 2
                else f"rule sentences need width-2 or width-3 clauses, got width {width}"
            )
        try:
            if width == 3:
                a, b, c = cl
                s = f"If {ante[a]} and {ante[b]} then {cons[c]}."
            else:
                a, c = cl
                s = f"If {ante[a]} then {cons[c]}."
        except KeyError as exc:
            raise KeyError(abs(exc.args[0])) from None
        if checked:
            check_token_budget(s, token_budget)
        sentences.append(s)
    return sentences


def render_grl(f: CnfFormula, binding: VarBinding, token_budget: int = 30) -> NlTheory:
    """Render a canonical formula of 2- and 3-clauses, one sentence per clause."""
    sentences = _render(f.to_int_clauses(), binding, token_budget)
    return NlTheory(GRL, tuple(sentences), binding)


def _span(body: str, first: int, last: int) -> tuple:
    """The character span of tokens first..last of ``body``, for an error message."""
    spans = [m.span() for m in _TOKEN.finditer(body)]
    return spans[first][0], spans[last][1]


def parse_grl(sentences, lexicon, strict: bool = True):
    """Parse conditional sentences back into a formula and binding.

    Variable ids are assigned by first appearance.  Strict mode takes
    the renderer's words: "If", one or two antecedents joined by "and",
    "then", "no" only before an antecedent noun, "not" only before the
    consequent noun, lexicon nouns in the singular as written, and one
    period, at the end.  It is not yet held to the renderer's exact
    sentence: any run of whitespace may come before the first word,
    between words and before the period, and the written literals may
    come in any order, since the clause is their canonical sort, so one
    clause has several strict sentences.  Lenient mode also accepts
    "not" for "no" (and vice versa), lowercase "if", and plural nouns.
    """
    f, binding = _parse(sentences, lexicon, strict)
    return _as_formula(f), binding


def _parse(sentences, lexicon, strict: bool) -> tuple:
    """The parsing core: (``_IntCnf``, binding), one canonical signed-int
    clause per sentence, each read by the token walker ``_walk``."""
    noun_to_var: dict = {}
    clauses = []
    for idx, sentence in enumerate(sentences, start=1):
        if not sentence.endswith(".") or sentence.count(".") != 1:
            raise ParseError(idx, None, "sentence must end with its only period")
        clauses.append(_clause_of(_walk(sentence[:-1], idx, lexicon, strict, noun_to_var), idx))
    binding = VarBinding({v: noun for noun, v in noun_to_var.items()})
    return _IntCnf(len(noun_to_var), clauses), binding


def _scan(text: str, lexicon):
    """What ``_parse`` returns for a strict text that is exactly the
    renderer's surface, or None.

    One compiled pattern, ``_SENTENCE``, runs over the whole text, and
    its matches must cover it end to end.  A noun is looked up in the
    lexicon on its first appearance, and an atom ("no carrot") is read
    on its first.  None comes back as soon as anything is off (a gap
    between sentences, a word that is not a lexicon noun as written, a
    repeated noun), and for a lexicon that holds a grammar word; the
    caller then runs ``_parse``, whose walker words the error.  The scan
    accepts a subset of what ``_parse`` accepts and returns the same
    formula.
    """
    singular_of = lexicon.singular_of
    if not text.endswith(".") or any(singular_of(w) == w for w in _GRAMMAR_WORDS):
        return None
    noun_to_var = _Ids(lambda noun: singular_of(noun) == noun)

    def read_atom(atom: str) -> int:
        """The signed id an atom states: "carrot" +, "no carrot" and "not carrot" -."""
        negation, _, noun = atom.rpartition(" ")
        return -noun_to_var[noun] if negation else noun_to_var[noun]

    stated = _Memo(read_atom)
    clauses = []
    at = 0
    try:
        for sentence, ante1, ante2, cons in _SENTENCE.findall(text):
            at += len(sentence)
            # an antecedent states the negation of its clause literal
            a = -stated[ante1]
            if ante2:
                clause = _in_var_order(a, -stated[ante2], stated[cons])
            else:
                clause = _pair_in_var_order(a, stated[cons])
            if clause is None:
                return None
            clauses.append(clause)
    except _Refused:
        return None
    # matches never overlap, so lengths that sum to the text's cover it
    if at != len(text):
        return None
    binding = VarBinding({v: noun for noun, v in noun_to_var.items()})
    return _IntCnf(len(noun_to_var), clauses), binding


def _walk(body: str, idx: int, lexicon, strict: bool, noun_to_var: dict) -> list:
    """One sentence body's signed-int clause literals, read token by token.

    Tokens come from ``str.split``; their character spans are worked out
    only when an error reports one.  New nouns join ``noun_to_var``.
    """
    ante_negations = ("no",) if strict else ("no", "not")
    cons_negations = ("not",) if strict else ("no", "not")

    def literal(lo: int, hi: int, negations) -> int:
        """The literal words[lo:hi] states, as written: an optionally negated noun."""
        negated = lo < hi and words[lo] in negations
        if negated:
            lo += 1
        if hi - lo != 1:
            span = _span(body, lo, hi - 1) if lo < hi else None
            raise ParseError(idx, span, "expected an optionally negated noun")
        noun = _noun_of(words[lo], idx, lambda: _span(body, lo, lo), lexicon, strict)
        var = noun_to_var.setdefault(noun, len(noun_to_var) + 1)
        return -var if negated else var

    words = body.split()
    if not words:
        raise ParseError(idx, None, "empty sentence")
    head = words[0]
    if head != "If" and (strict or head.lower() != "if"):
        raise ParseError(idx, _span(body, 0, 0), f"expected 'If', got {head!r}")
    if "then" not in words:
        raise ParseError(idx, None, "missing 'then'")
    then_at = words.index("then")
    if then_at == 1:
        raise ParseError(idx, None, "missing antecedent")
    if then_at == len(words) - 1:
        raise ParseError(idx, None, "missing consequent")
    atoms = []
    lo = 1
    for k in range(1, then_at):
        if words[k] == "and":
            atoms.append((lo, k))
            lo = k + 1
    atoms.append((lo, then_at))
    if not 1 <= len(atoms) <= 2:
        raise ParseError(idx, None, f"expected 1 or 2 antecedents, got {len(atoms)}")
    # an antecedent atom states the negation of its clause literal
    literals = [-literal(a, b, ante_negations) for a, b in atoms]
    literals.append(literal(then_at + 1, len(words), cons_negations))
    return literals
