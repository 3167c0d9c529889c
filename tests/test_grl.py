"""Propositional if-then fragment: rendering, parsing, round-trip identity."""

import random
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from nlsatgen.cnf import Clause, CnfFormula, to_dimacs
from nlsatgen.fragments import (
    GRL,
    FragmentError,
    NlTheory,
    ParseError,
    VarBinding,
    bind_vocabulary,
    parse_theory,
    reindex_formula,
    split_sentences,
)
from nlsatgen import grl
from nlsatgen.grl import parse_grl, render_grl
from nlsatgen.lexicon import Lexicon
from nlsatgen.sampler import SampleSpec, sample_clause

LEX = Lexicon(("carrot", "steak", "apples", "grapes", "banana", "olive", "fig", "pear"))


# ---------------------------------------------------------------- rendering


def render_clause(clause, binding):
    """The sentence of a one-clause formula."""
    f = CnfFormula(len(binding.variables), (clause,))
    (sentence,) = render_grl(f, binding).sentences
    return sentence


def test_render_mixed_signs():
    binding = VarBinding({1: "carrot", 2: "steak", 3: "apples"})
    text = render_clause(Clause.from_ints(-1, 2, 3), binding)
    assert text == "If carrot and no steak then apples."


def test_render_all_negative():
    binding = VarBinding({1: "apples", 2: "grapes", 3: "carrot"})
    text = render_clause(Clause.from_ints(-1, -2, -3), binding)
    assert text == "If apples and grapes then not carrot."


def test_render_all_positive():
    binding = VarBinding({1: "carrot", 2: "steak", 3: "apples"})
    text = render_clause(Clause.from_ints(1, 2, 3), binding)
    assert text == "If no carrot and no steak then apples."


def test_render_width_two():
    binding = VarBinding({1: "carrot", 2: "steak"})
    assert render_clause(Clause.from_ints(1, -2), binding) == "If no carrot then not steak."


def test_render_rejects_unit_clauses():
    binding = VarBinding({1: "carrot", 2: "steak"})
    with pytest.raises(FragmentError):
        render_clause(Clause.from_ints(1), binding)


def test_render_grl_joins_sentences_with_single_spaces():
    f = CnfFormula.from_ints(3, [(-1, 2, 3), (1, -2)])
    binding = VarBinding({1: "carrot", 2: "steak", 3: "apples"})
    theory = render_grl(f, binding)
    assert isinstance(theory, NlTheory)
    assert theory.text == "If carrot and no steak then apples. If no carrot then not steak."
    assert theory.sentences == (
        "If carrot and no steak then apples.",
        "If no carrot then not steak.",
    )


def test_render_grl_enforces_token_budget():
    f = CnfFormula.from_ints(3, [(-1, 2, 3)])
    binding = VarBinding({1: "carrot", 2: "steak", 3: "apples"})
    with pytest.raises(FragmentError):
        render_grl(f, binding, token_budget=3)


# ---------------------------------------------------------------- parsing


def test_parse_reconstructs_formula_and_binding():
    sentences = (
        "If carrot and no steak then apples.",
        "If no carrot then not steak.",
    )
    f, binding = parse_grl(sentences, LEX)
    assert f == CnfFormula.from_ints(3, [(-1, 2, 3), (1, -2)])
    assert binding.variables == {1: "carrot", 2: "steak", 3: "apples"}


def test_parse_sorts_clause_literals_canonically():
    f, binding = parse_grl(("If no banana and apples then grapes.",), LEX)
    # first-appearance numbering: banana=1, apples=2, grapes=3
    assert binding.variables == {1: "banana", 2: "apples", 3: "grapes"}
    assert f.to_int_clauses() == [[1, -2, 3]]


def test_strict_parse_rejects_not_in_antecedent():
    with pytest.raises(ParseError):
        parse_grl(("If carrot and not steak then apples.",), LEX)
    f, _ = parse_grl(("If carrot and not steak then apples.",), LEX, strict=False)
    assert f.to_int_clauses() == [[-1, 2, 3]]


def test_strict_parse_rejects_no_in_consequent():
    with pytest.raises(ParseError):
        parse_grl(("If no carrot then no steak.",), LEX)
    f, _ = parse_grl(("If no carrot then no steak.",), LEX, strict=False)
    assert f.to_int_clauses() == [[1, -2]]


def test_lenient_parse_accepts_lowercase_if_and_plurals():
    with pytest.raises(ParseError):
        parse_grl(("if carrots then banana.",), LEX)
    f, binding = parse_grl(("if carrots then banana.",), LEX, strict=False)
    assert f.to_int_clauses() == [[-1, 2]]
    assert binding.variables == {1: "carrot", 2: "banana"}


def test_parse_error_cases():
    bad = [
        "If carrot then banana",          # no period
        "Carrot then banana.",            # missing If
        "If carrot banana.",              # missing then
        "If carrot and steak and fig then banana.",  # too many antecedents
        "If carrot and carrot then banana.",          # repeated noun
        "If zzz then banana.",            # unknown noun
        "If carrot then banana. banana.",  # trailing fragment
        "If then banana.",                # empty antecedent
        "If carrot then.",                # empty consequent
        "If carrot then banana banana.",  # two-word consequent
    ]
    for sentence in bad:
        with pytest.raises(ParseError):
            parse_grl((sentence,), LEX)


def test_parse_error_reports_sentence_number_and_span():
    sentences = (
        "If carrot then banana.",
        "If zzz then banana.",
    )
    with pytest.raises(ParseError) as exc:
        parse_grl(sentences, LEX)
    err = exc.value
    assert err.sentence_index == 2
    assert err.span == (3, 6)
    assert "sentence 2" in str(err)
    assert "chars 3-6" in str(err)


def test_first_sentence_errors_are_numbered_one():
    with pytest.raises(ParseError) as exc:
        parse_grl(("If carrot then banana banana.",), LEX)
    assert exc.value.sentence_index == 1
    assert "sentence 1" in str(exc.value)


# ------------------------------------------------------- scan against walker


class GrammarNounLexicon:
    """A lexicon whose nouns may be grammar words, which ``Lexicon`` refuses;
    strict parsing asks a lexicon only for ``singular_of``."""

    def __init__(self, nouns):
        self.nouns = frozenset(nouns)

    def singular_of(self, word):
        return word if word in self.nouns else None


def parse_outcome(sentences, lexicon, strict=True):
    """What ``grl._parse`` gives: its result, or its error's index, span and text."""
    try:
        return grl._parse(sentences, lexicon, strict)
    except ParseError as exc:
        return exc.sentence_index, exc.span, str(exc)


def enumerated_sentences(words, max_words):
    """Every "If ..." sentence of 1 to ``max_words`` words after "If"."""
    for k in range(1, max_words + 1):
        for body in product(words, repeat=k):
            yield "If " + " ".join(body) + "."


@pytest.mark.parametrize("lexicon", [
    LEX,
    GrammarNounLexicon(("and", "then", "no", "not", "carrot", "steak", "apples")),
], ids=["lexicon", "grammar-word-nouns"])
def test_compiled_match_agrees_with_walker_on_every_short_sentence(lexicon):
    # every body of up to five words over grammar words, nouns and a
    # plural, alone and after a sentence that numbers two nouns, read by
    # the walker; the scan's agreement on the same sentences is
    # test_scan_never_reads_a_text_otherwise
    words = ("no", "not", "and", "then", "carrot", "carrots", "steak", "apples")
    cases = []
    for s in enumerated_sentences(words, 5):
        cases += [(s,), ("If steak then not apples.", s)]
    outcomes = [parse_outcome(c, lexicon) for c in cases]
    accepted = sum(not isinstance(out[0], int) for out in outcomes)
    assert accepted >= 60


@pytest.mark.parametrize("lexicon", [
    LEX,
    GrammarNounLexicon(("and", "then", "no", "not", "carrot", "steak", "apples")),
], ids=["lexicon", "grammar-word-nouns"])
def test_scan_never_reads_a_text_otherwise(lexicon):
    # each enumerated sentence, alone, after a sentence, and with a
    # stray space or period: the whole-text scan gives what the core
    # gives on the split text, or None; a grammar-word lexicon is never
    # scanned
    words = ("no", "not", "and", "then", "carrot", "carrots", "steak", "apples")
    texts = []
    for s in enumerated_sentences(words, 5):
        texts += [s, "If steak then not apples. " + s, s + " ", s + ".", s[:-1] + " ."]
    scanned = 0
    for text in texts:
        got = grl._scan(text, lexicon)
        if got is not None:
            scanned += 1
            assert got == parse_outcome(split_sentences(text), lexicon)
    assert scanned == (0 if lexicon.singular_of("no") else 60)


def test_compiled_match_reads_every_rendered_sentence(monkeypatch):
    # the walker is not needed for anything the renderer writes: the
    # strict reader's scan reads every rendered text
    def no_walk(*args):
        raise AssertionError("rendered sentence fell back to the walker")

    monkeypatch.setattr(grl, "_walk", no_walk)
    for s1, s2, s3 in product((1, -1), repeat=3):
        f = CnfFormula.from_ints(3, [(s1 * 1, s2 * 2, s3 * 3), (s1 * 1, s3 * 3)])
        binding = VarBinding({1: "carrot", 2: "steak", 3: "apples"})
        assert parse_theory(render_grl(f, binding).text, GRL, LEX) == (f, binding)


def test_grammar_word_nouns_are_walked():
    # "no" as a noun: the match would read "If no then steak." as the
    # antecedent noun "no", where the walker reads a bare negation
    lexicon = GrammarNounLexicon(("no", "steak"))
    out = parse_outcome(("If no then steak.",), lexicon)
    assert out == (1, None, "sentence 1: expected an optionally negated noun")
    f, binding = grl._parse(("If no no then steak.",), lexicon, True)
    assert f.clauses == [(1, 2)] and binding.variables == {1: "no", 2: "steak"}


def test_lenient_parse_never_uses_the_match(monkeypatch):
    def no_scan(*args):
        raise AssertionError("lenient text went to the scan")

    monkeypatch.setattr(grl, "_scan", no_scan)
    f, binding = parse_grl(("If carrot and no steak then apples.",), LEX, strict=False)
    assert f.to_int_clauses() == [[-1, 2, 3]]
    f, binding = parse_theory("If carrot and no steak then apples.", GRL, LEX, strict=False)
    assert f.to_int_clauses() == [[-1, 2, 3]]


# ---------------------------------------------------------------- round trips


def test_round_trip_all_width3_sign_patterns():
    for s1 in (1, -1):
        for s2 in (1, -1):
            for s3 in (1, -1):
                f = CnfFormula.from_ints(3, [(s1 * 1, s2 * 2, s3 * 3)])
                binding = VarBinding({1: "carrot", 2: "steak", 3: "apples"})
                theory = render_grl(f, binding)
                back_f, back_b = parse_grl(theory.sentences, LEX)
                assert back_f == f
                assert back_b.variables == binding.variables


def test_round_trip_all_width2_sign_patterns():
    for s1 in (1, -1):
        for s2 in (1, -1):
            f = CnfFormula.from_ints(2, [(s1 * 1, s2 * 2)])
            binding = VarBinding({1: "fig", 2: "pear"})
            theory = render_grl(f, binding)
            back_f, back_b = parse_grl(theory.sentences, LEX)
            assert back_f == f
            assert back_b.variables == binding.variables


def _random_formula(rng):
    """Random canonical formula that mentions every one of its variables."""
    n = rng.randint(2, 8)
    m = rng.randint(2, 12)
    clauses = []
    while len(clauses) < m:
        width = rng.randint(2, min(3, n))
        variables = sorted(rng.sample(range(1, n + 1), width))
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
    used = sorted({abs(i) for cl in clauses for i in cl})
    remap = {v: new_v for new_v, v in enumerate(used, start=1)}
    squeezed = [
        tuple((1 if i > 0 else -1) * remap[abs(i)] for i in cl) for cl in clauses
    ]
    return CnfFormula.from_ints(len(used), squeezed)


def test_round_trip_random_formulas_after_reindexing():
    rng = random.Random(314)
    for _ in range(300):
        f = _random_formula(rng)
        fixed, _ = reindex_formula(f)
        binding = bind_vocabulary(fixed, LEX, rng)
        theory = render_grl(fixed, binding)
        back_f, back_b = parse_grl(theory.sentences, LEX)
        assert back_f == fixed
        assert back_b.variables == binding.variables
        # strict output reparses leniently too
        lenient_f, _ = parse_grl(theory.sentences, LEX, strict=False)
        assert lenient_f == fixed


@settings(max_examples=250, deadline=None, derandomize=True)
@given(
    n=st.integers(3, len(LEX.count_nouns)),
    p_int=st.sampled_from((0.0, 0.5, 1.0)),
    rnd=st.randoms(use_true_random=True),
)
def test_parse_render_reindex_round_trip_property(n, p_int, rnd):
    # the clauses, the binding and the text come from a hypothesis-seeded
    # Random, through the public names and so through their int cores
    spec = SampleSpec(n=n, p_int=p_int)
    m = rnd.randint(2 * n, 5 * n)
    f = CnfFormula(n, tuple([sample_clause(spec, rnd) for _ in range(m)]))
    try:
        fixed, _ = reindex_formula(f)
    except FragmentError:
        assume(False)  # a variable no clause mentions
    binding = bind_vocabulary(fixed, LEX, rnd)
    parsed, parsed_binding = parse_theory(render_grl(fixed, binding).text, GRL, LEX)
    assert parsed == fixed
    assert parsed_binding == binding
    assert to_dimacs(parsed) == to_dimacs(fixed)


def test_reindex_formula_orders_by_first_appearance():
    f = CnfFormula.from_ints(4, [(2, -4), (-1, 2, 3)])
    fixed, mapping = reindex_formula(f)
    # walk order: 2, 4, 1, 3 -> 1, 2, 3, 4
    assert mapping == {2: 1, 4: 2, 1: 3, 3: 4}
    assert fixed.to_int_clauses() == [[1, -2], [1, -3, 4]]
    assert fixed.n_vars == 4


def test_reindex_formula_rejects_unmentioned_variables():
    f = CnfFormula.from_ints(5, [(1, 2)])
    with pytest.raises(FragmentError) as exc:
        reindex_formula(f)
    assert "never mentioned" in str(exc.value)


def test_reindex_is_a_fixpoint():
    rng = random.Random(77)
    for _ in range(100):
        f = _random_formula(rng)
        fixed, _ = reindex_formula(f)
        again, mapping = reindex_formula(fixed)
        assert again == fixed
        assert mapping == {v: v for v in range(1, fixed.n_vars + 1)}


# ---------------------------------------------------------------- binding


def test_bind_vocabulary_is_injective_and_within_lexicon():
    rng = random.Random(5)
    f = CnfFormula.from_ints(4, [(1, 2), (3, 4)])
    binding = bind_vocabulary(f, LEX, rng)
    words = list(binding.variables.values())
    assert len(set(words)) == len(words) == 4
    assert all(w in LEX.count_nouns for w in words)


def test_bind_vocabulary_distributes_uniformly():
    # with 5 nouns and n=2, each noun should appear in ~2/5 of bindings
    small = Lexicon(("carrot", "steak", "apples", "grapes", "banana"))
    f = CnfFormula.from_ints(2, [(1, 2)])
    counts = {w: 0 for w in small.count_nouns}
    draws = 5000
    rng = random.Random(11)
    for _ in range(draws):
        for word in bind_vocabulary(f, small, rng).variables.values():
            counts[word] += 1
    from scipy import stats as scipy_stats

    result = scipy_stats.chisquare(list(counts.values()))
    assert result.pvalue > 0.01


def test_bind_vocabulary_needs_enough_nouns():
    f = CnfFormula.from_ints(9, [(i, i + 1) for i in range(1, 9)])
    small = Lexicon(("carrot", "steak"))
    with pytest.raises(ValueError):
        bind_vocabulary(f, small, random.Random(0))


def test_var_binding_validation():
    with pytest.raises(ValueError):
        VarBinding({1: "carrot", 2: "carrot"})
    with pytest.raises(ValueError):
        VarBinding({0: "carrot"})
    binding = VarBinding({2: "steak"})
    assert binding.variables == {2: "steak"}


def test_nl_theory_validates_sentences():
    with pytest.raises(ValueError):
        NlTheory("grl", ("no period here",), VarBinding({}))
    with pytest.raises(ValueError):
        NlTheory("grl", ("Two. Periods.",), VarBinding({}))
