"""Shared machinery for rendering CNF into controlled English and back.

Each fragment (propositional rules, quantified relative clauses,
single-entity attribute theories) pairs a renderer with a parser.  The
renderer maps formula variables to words through a binding; the parser
reconstructs the formula, assigning variable ids by order of first
appearance in the text.  Generators therefore reindex formulas into
first-appearance order before rendering, which makes parse(render(x))
reproduce x exactly; the reindexing is a fixpoint after one round.

Decisions shared by the fragments live here once: the packaged default
vocabulary per fragment (``_packaged_vocab``), the formula a parsed
text denotes (``_parse_formula``), the parsers' strict or lenient noun
lookup (``_noun_of``) and clause building (``_clause_of``), the scans'
ids by first appearance (``_Ids``), and the binders' refusal of a word
list too short (``_check_words``), which generate also makes up front.

Validation happens at the boundary: :func:`reindex_formula` takes a
``CnfFormula``, whose constructors have checked every clause, and
returns one built (and so checked) again.  The renumbering itself,
``_reindex``, works on signed-int clauses (``cnf._IntCnf``) and builds
no objects, so the grl generator runs it on its draws and the ruletaker
generator on its theory directly; the renumbered clauses are checked
when DIMACS writes them.

Parsing has the same split.  Each parser is a private core
(``grl._parse``, ``rcl._parse``, ``ruletaker._parse``) that builds
canonical signed-int clauses with ``_clause_of``, under a public name
that returns the validated objects.  :func:`parse_theory` and
``_parse_formula`` share one reader, ``_read``: a strict text goes to
the fragment's whole-text scan (``_scan``) first, and anything the scan
does not read to the core.  ``parse_theory`` builds the validated
objects from what it returns, and ``_parse_formula`` uses it as it is,
so ``verify`` and the ``parse`` command build no clause objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .cnf import CnfFormula, _as_formula, _IntCnf

GRL = "grl"
RCL = "rcl"
RULETAKER = "ruletaker"
FRAGMENTS = (GRL, RCL, RULETAKER)


class FragmentError(ValueError):
    """A formula or configuration the fragment cannot express."""


class ParseError(ValueError):
    """A sentence the fragment grammar does not accept.

    Carries the 1-based sentence number and, when known, the character
    span of the offending tokens within that sentence.
    """

    def __init__(self, sentence_index: int, span, message: str):
        where = f"sentence {sentence_index}"
        if span is not None:
            where += f", chars {span[0]}-{span[1]}"
        super().__init__(f"{where}: {message}")
        self.sentence_index = sentence_index
        self.span = span


@dataclass(frozen=True)
class VarBinding:
    """Injective maps from variable ids (and constant ids) to words."""

    variables: dict
    constants: dict = field(default_factory=dict)

    def __post_init__(self):
        for label, mapping in (("variable", self.variables), ("constant", self.constants)):
            words = list(mapping.values())
            if len(set(words)) != len(words):
                raise ValueError(f"{label} binding is not injective: {sorted(words)}")
            for key in mapping:
                if not isinstance(key, int) or key < 1:
                    raise ValueError(f"{label} ids must be positive ints, got {key!r}")

    def constant_word(self, cid: int) -> str:
        return self.constants[cid]


@dataclass(frozen=True)
class NlTheory:
    """Rendered sentences, one per clause, in clause order."""

    fragment: str
    sentences: tuple
    binding: VarBinding

    def __post_init__(self):
        object.__setattr__(self, "sentences", tuple(self.sentences))
        if self.fragment not in FRAGMENTS:
            raise ValueError(f"unknown fragment {self.fragment!r}")
        for s in self.sentences:
            if not s or s.count(".") != 1 or not s.endswith("."):
                raise ValueError(f"sentence must end with its only period: {s!r}")

    @property
    def text(self) -> str:
        return " ".join(self.sentences)


def check_token_budget(sentence: str, budget: int) -> None:
    n_tokens = len(sentence.split())
    if n_tokens > budget:
        raise FragmentError(
            f"sentence has {n_tokens} tokens, over the budget of {budget}: {sentence!r}"
        )


def _fits_budget(words, longest: int, budget: int) -> bool:
    """Whether every sentence a renderer's tables can form fits ``budget``
    tokens, so that none need be split to check it.

    ``longest`` is the token count of the fragment's longest sentence
    when each word is one token with no whitespace, which lexicon and
    vocabulary words always are, being alphabetic.  A hand-built
    binding's word may not be; then the answer is False and the renderer
    checks each sentence with :func:`check_token_budget`.
    """
    return longest <= budget and all(isinstance(w, str) and w.split() == [w] for w in words)


def split_sentences(text: str) -> list:
    """Split renderer output (sentences joined by single spaces) back apart."""
    if isinstance(text, (list, tuple)):
        return list(text)
    if not text or not text.endswith("."):
        raise ParseError(1, None, "text must be sentences ending with periods")
    parts = text.split(". ")
    return [p if p.endswith(".") else p + "." for p in parts]


def bind_vocabulary(obj, lexicon, rng) -> VarBinding:
    """Draw an injective word binding for a formula or grounded problem.

    Variables take uniformly sampled count nouns; problems with
    constants additionally take proper nouns for them.
    """
    n_constants = getattr(obj, "n_constants", 0)
    n_vars = getattr(obj, "n_predicates", None) or obj.n_vars
    _check_words("lexicon", lexicon.count_nouns, "count nouns", n_vars)
    variables = dict(enumerate(rng.sample(lexicon.count_nouns, n_vars), start=1))
    constants = {}
    if n_constants:
        _check_words("lexicon", lexicon.proper_nouns, "proper nouns", n_constants)
        constants = dict(enumerate(rng.sample(lexicon.proper_nouns, n_constants), start=1))
    return VarBinding(variables, constants)


def _check_words(owner: str, words, what: str, need: int) -> None:
    """Refuse a word list too short to bind ``need`` distinct words."""
    if need > len(words):
        raise FragmentError(f"{owner} has {len(words)} {what}, need {need}")


def appearance_map(var_walk: Iterable) -> dict:
    """Map ids to 1..n by order of first appearance along a walk."""
    mapping = {}
    for v in var_walk:
        if v not in mapping:
            mapping[v] = len(mapping) + 1
    return mapping


def check_all_mentioned(mapping: dict, n: int, what: str = "variables") -> None:
    """Reject a renumbering that misses some id in 1..n (it would change n)."""
    if len(mapping) != n:
        missing = sorted(set(range(1, n + 1)) - set(mapping))
        raise FragmentError(f"{what} never mentioned: {missing}")


def _in_var_order(a: int, b: int, c: int):
    """Three signed-int literals as a tuple in increasing variable order,
    or None when two of them share a variable."""
    x, y, z = abs(a), abs(b), abs(c)
    if x < y:
        if y < z:
            return a, b, c
        if x < z < y:
            return a, c, b
        if z < x:
            return c, a, b
    elif y < x:
        if x < z:
            return b, a, c
        if y < z < x:
            return b, c, a
        if z < y:
            return c, b, a
    return None


def _pair_in_var_order(a: int, b: int):
    """Two signed-int literals as a tuple in increasing variable order,
    or None when they share a variable."""
    x, y = abs(a), abs(b)
    if x < y:
        return a, b
    if y < x:
        return b, a
    return None


def _remap(cl, mapping: dict) -> tuple:
    """Renumber a signed-int clause, restoring increasing-variable order."""
    if len(cl) == 3:
        a, b, c = cl
        clause = _in_var_order(
            mapping[a] if a > 0 else -mapping[-a],
            mapping[b] if b > 0 else -mapping[-b],
            mapping[c] if c > 0 else -mapping[-c],
        )
        if clause is not None:
            return clause
    return tuple(sorted([mapping[v] if v > 0 else -mapping[-v] for v in cl], key=abs))


def reindex_formula(f: CnfFormula) -> tuple:
    """Renumber variables by first appearance in clause-literal order.

    Returns (formula, old-to-new map).  Requires every variable 1..n
    to occur in some clause, otherwise the renumbering would change n.
    """
    g, mapping = _reindex(_IntCnf(f.n_vars, f.to_int_clauses()))
    return _as_formula(g), mapping


def _reindex(f: _IntCnf) -> tuple:
    """The renumbering core, on signed-int clauses: (_IntCnf, map)."""
    mapping = appearance_map(abs(v) for cl in f.clauses for v in cl)
    check_all_mentioned(mapping, f.n_vars)
    return _IntCnf(f.n_vars, [_remap(cl, mapping) for cl in f.clauses]), mapping


class _Refused(Exception):
    """Raised inside a scan (``grl._scan``, ``rcl._scan``,
    ``ruletaker._scan``) at a word it does not read as written."""


class _Ids(dict):
    """The scans' ids by first appearance: a missing key is numbered
    ``len(self) + 1``, or raises ``_Refused`` unless ``admits(key)``."""

    def __init__(self, admits):
        super().__init__()
        self.admits = admits

    def __missing__(self, key):
        if not self.admits(key):
            raise _Refused(key)
        value = self[key] = len(self) + 1
        return value


class _Memo(dict):
    """A dict that computes each missing value once, with ``read(key)``;
    the scans keep atoms by their text in it, and rcl's renderer atom texts."""

    def __init__(self, read):
        super().__init__()
        self.read = read

    def __missing__(self, key):
        value = self[key] = self.read(key)
        return value


def _noun_of(word: str, idx: int, span_of, lexicon, strict: bool) -> str:
    """The lexicon noun a parsed word names; lenient mode also takes plurals.

    ``span_of()`` gives the word's character span; it is called only to
    report an unknown noun.
    """
    noun = lexicon.singular_of(word)
    if noun is None or strict and noun != word:
        raise ParseError(idx, span_of(), f"unknown noun {word!r}")
    return noun


def _clause_of(literals, idx: int, repeat: str = "a noun repeats within the sentence") -> tuple:
    """The canonical signed-int clause of one sentence's signed-int literals;
    ``repeat`` reports a repeated variable."""
    if len(literals) == 3:
        clause = _in_var_order(*literals)
        if clause is not None:
            return clause
    if len({abs(v) for v in literals}) != len(literals):
        raise ParseError(idx, None, repeat)
    return tuple(sorted(literals, key=abs))


def _packaged_vocab(fragment: str):
    """The packaged word lists a fragment renders with by default; an unknown
    fragment gets the ruletaker lists, so verifying it reports parse issues."""
    from . import lexicon as lex_mod, ruletaker

    if fragment == GRL:
        return lex_mod.default_food_lexicon()
    if fragment == RCL:
        return lex_mod.default_occupation_lexicon()
    return ruletaker.RetrofitVocab(lex_mod.default_attributes(), lex_mod.default_entities())


def parse_theory(text, fragment: str, lexicon=None, strict: bool = True):
    """Parse rendered sentences back into logical form.

    Dispatches on fragment; returns what the matching renderer
    consumed: (CnfFormula, VarBinding) for the propositional fragment,
    (RclProblem, VarBinding) for the quantified one, and
    (RetrofitTheory, VarBinding, entity) for single-entity theories.
    When ``lexicon`` is omitted the packaged default for the fragment
    is used.
    """
    from . import rcl, ruletaker

    parsed = _read(text, fragment, lexicon, strict)
    if fragment == GRL:
        return _as_formula(parsed[0]), parsed[1]
    if fragment == RCL:
        return rcl._as_problem(parsed[0]), parsed[1]
    return ruletaker._as_theory(parsed[0]), *parsed[1:]


def _read(text, fragment: str, lexicon, strict: bool) -> tuple:
    """What the fragment's signed-int core returns for ``text``.

    A strict text given as one string is first read by the fragment's
    whole-text scan (``grl._scan``, ``rcl._scan``, ``ruletaker._scan``),
    which returns what the core would or None.  On None, and for lenient
    text or a sentence list, the text is split into sentences, then the
    fragment is checked, and the core parses them; it alone words a
    ``ParseError``, so the scan changes no result and no error.  A
    sentence list is never joined to be scanned: each of its items must
    be one sentence.
    """
    from . import grl, rcl, ruletaker

    module = {GRL: grl, RCL: rcl, RULETAKER: ruletaker}.get(fragment)
    lex = lexicon if lexicon is not None else _packaged_vocab(fragment)
    if strict and isinstance(text, str) and module is not None:
        parsed = module._scan(text, lex)
        if parsed is not None:
            return parsed
    sentences = split_sentences(text)
    if module is None:
        raise ValueError(f"unknown fragment {fragment!r}")
    return module._parse(sentences, lex, strict)


def _parse_formula(text, fragment: str, lexicon=None, strict: bool = True) -> tuple:
    """Parse like :func:`parse_theory`, with the fragment's signed-int core.

    Returns (the ``_IntCnf`` the text denotes, what the core returned):
    a grl formula, a grounded rcl problem, or a ruletaker theory as rules
    then one unit clause per fact.  No clause object is built.
    """
    from . import rcl

    parsed = _read(text, fragment, lexicon, strict)
    if fragment == RCL:
        return rcl._ground(parsed[0]), parsed
    return parsed[0], parsed
