"""Propositional if-then rule fragment.

Every clause becomes one conditional sentence by reading the last
literal (in canonical order) as the consequent and the rest, negated,
as the conjunctive antecedent: (l1 v l2 v l3) is rendered as the
implication (not l1 and not l2) -> l3.  Negation surfaces as "no" in
the antecedent and "not" in the consequent:

    (-carrot v steak v apple)   "If carrot and no steak then apple."
    (-apple v -grape v -carrot) "If apple and grape then not carrot."
    (carrot v -steak)           "If no carrot then not steak."

Unit clauses have no sentence form here and are rejected.

Validation happens at the boundary: :func:`render_grl` takes a
``CnfFormula``, whose clauses are canonical.  The sentences themselves come
from ``_render``, which reads canonical signed-int clauses, so the grl
generator renders its int clauses without building objects.
"""

from __future__ import annotations

import re

from .cnf import CnfFormula, Literal
from .fragments import (
    GRL,
    FragmentError,
    NlTheory,
    ParseError,
    VarBinding,
    _clause_of,
    _noun_of,
    check_token_budget,
)

_TOKEN = re.compile(r"\S+")


def _sentence(cl, words: dict) -> str:
    """One clause's sentence; ``cl`` is a canonical signed-int clause."""
    if len(cl) < 2:
        raise FragmentError("unit clauses have no rendering in this fragment")
    *antecedents, consequent = cl
    # the antecedent holds each literal's negation: "no x" for +x
    ante = " and ".join([words[-v] if v < 0 else f"no {words[v]}" for v in antecedents])
    cons = f"not {words[-consequent]}" if consequent < 0 else words[consequent]
    return f"If {ante} then {cons}."


def _render(clauses, binding: VarBinding, token_budget: int) -> list:
    """The rendering core: one sentence per signed-int clause, in order."""
    words = binding.variables
    sentences = []
    for cl in clauses:
        s = _sentence(cl, words)
        check_token_budget(s, token_budget)
        sentences.append(s)
    return sentences


def render_grl(f: CnfFormula, binding: VarBinding, token_budget: int = 30) -> NlTheory:
    """Render a canonical formula of 2- and 3-clauses, one sentence per clause."""
    sentences = _render(f.to_int_clauses(), binding, token_budget)
    return NlTheory(GRL, tuple(sentences), binding)


def _tokens_with_spans(sentence: str) -> list:
    return [(m.group(), m.start(), m.end()) for m in _TOKEN.finditer(sentence)]


def parse_grl(sentences, lexicon, strict: bool = True):
    """Parse conditional sentences back into a formula and binding.

    Variable ids are assigned by first appearance.  Strict mode admits
    exactly the renderer's surface; lenient mode also accepts "not" for
    "no" (and vice versa), lowercase "if", and plural nouns.
    """
    noun_to_var: dict = {}
    clauses = []

    def atom_literal(tokens, idx, consequent: bool) -> Literal:
        negation_words = ("not",) if strict and consequent else \
                         ("no",) if strict else ("no", "not")
        negated_surface = False
        if tokens and tokens[0][0] in negation_words:
            negated_surface = True
            tokens = tokens[1:]
        if len(tokens) != 1:
            span = (tokens[0][1], tokens[-1][2]) if tokens else None
            raise ParseError(idx, span, "expected an optionally negated noun")
        word, start, end = tokens[0]
        noun = _noun_of(word, idx, (start, end), lexicon, strict)
        var = noun_to_var.setdefault(noun, len(noun_to_var) + 1)
        if consequent:
            return Literal(var, negated_surface)
        # antecedent atoms negate the underlying literal
        return Literal(var, not negated_surface)

    for idx, sentence in enumerate(sentences, start=1):
        if not sentence.endswith(".") or sentence.count(".") != 1:
            raise ParseError(idx, None, "sentence must end with its only period")
        toks = _tokens_with_spans(sentence[:-1])
        if not toks:
            raise ParseError(idx, None, "empty sentence")
        head = toks[0][0]
        if head != "If" and (strict or head.lower() != "if"):
            raise ParseError(idx, (toks[0][1], toks[0][2]), f"expected 'If', got {head!r}")
        words = [t[0] for t in toks]
        if "then" not in words:
            raise ParseError(idx, None, "missing 'then'")
        then_at = words.index("then")
        ante_toks = toks[1:then_at]
        cons_toks = toks[then_at + 1:]
        if not ante_toks:
            raise ParseError(idx, None, "missing antecedent")
        if not cons_toks:
            raise ParseError(idx, None, "missing consequent")
        atoms = []
        current = []
        for tok in ante_toks:
            if tok[0] == "and":
                atoms.append(current)
                current = []
            else:
                current.append(tok)
        atoms.append(current)
        if not 1 <= len(atoms) <= 2:
            raise ParseError(idx, None, f"expected 1 or 2 antecedents, got {len(atoms)}")
        literals = [atom_literal(a, idx, consequent=False) for a in atoms]
        literals.append(atom_literal(cons_toks, idx, consequent=True))
        clauses.append(_clause_of(literals, idx))

    f = CnfFormula(len(noun_to_var), tuple(clauses))
    binding = VarBinding({v: noun for noun, v in noun_to_var.items()})
    return f, binding
