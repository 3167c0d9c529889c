"""Tests for the relational fragment: problems, grounding, surfaces, parsing."""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from nlsatgen.cnf import Clause, alpha, to_dimacs
from nlsatgen.fragments import (
    RCL,
    FragmentError,
    ParseError,
    VarBinding,
    bind_vocabulary,
    parse_theory,
)
from nlsatgen.lexicon import default_occupation_lexicon
from nlsatgen import rcl
from nlsatgen.rcl import (
    RclProblem,
    feasible_predicate_counts,
    ground_rcl,
    ground_var,
    parse_rcl,
    reindex_problem,
    render_rcl,
    split_clause_budget,
)
from nlsatgen.solver import solve

LEX = default_occupation_lexicon()


def draw_problem(n_predicates, n_constants, m_universal, m_ground, p_neg, rng) -> RclProblem:
    """The generator's problem draw, validated; m_ground >= n_constants."""
    return rcl._as_problem(
        rcl._draw(n_predicates, n_constants, m_universal, m_ground, p_neg, rng)
    )

BINDING = VarBinding({1: "doctor", 2: "philosopher", 3: "baker"}, {1: "John"})


class ScriptedRng:
    """Stand-in rng returning one fixed value from random()."""

    def __init__(self, value):
        self.value = value
        self.calls = 0

    def random(self):
        self.calls += 1
        return self.value


def problem_with_universal(clause, ground=None):
    if ground is None:
        ground = ((1, Clause.from_ints(1, 2, 3)),)
    return RclProblem(3, 1, (clause,), ground)


# ---------------------------------------------------------------------------
# Problem construction and validation
# ---------------------------------------------------------------------------


class TestRclProblem:
    def test_basic_construction(self):
        p = problem_with_universal(Clause.from_ints(-1, 2, 3))
        assert p.n_predicates == 3
        assert p.n_constants == 1
        assert ground_rcl(p).n_vars == 3

    def test_ground_vars_is_product(self):
        p = RclProblem(
            2,
            3,
            (Clause.from_ints(-1, 2),),
            ((1, Clause.from_ints(1,)), (2, Clause.from_ints(2,)), (3, Clause.from_ints(-1,))),
        )
        assert ground_rcl(p).n_vars == 6

    def test_too_few_predicates(self):
        with pytest.raises(ValueError):
            RclProblem(1, 1, (), ((1, Clause.from_ints(1,)),))

    def test_too_few_constants(self):
        with pytest.raises(ValueError):
            RclProblem(2, 0, (Clause.from_ints(1, 2),), ())

    def test_constant_id_out_of_range(self):
        with pytest.raises(ValueError):
            RclProblem(2, 1, (), ((2, Clause.from_ints(1, 2)),))
        with pytest.raises(ValueError):
            RclProblem(2, 1, (), ((0, Clause.from_ints(1, 2)),))

    def test_clause_variable_exceeds_predicates(self):
        with pytest.raises(ValueError):
            RclProblem(2, 1, (Clause.from_ints(1, 3),), ((1, Clause.from_ints(1, 2)),))
        with pytest.raises(ValueError):
            RclProblem(2, 1, (), ((1, Clause.from_ints(1, -3)),))

    def test_clauses_must_be_clause_objects(self):
        with pytest.raises(TypeError, match="expected Clause, got tuple"):
            RclProblem(2, 1, ((1, 2),), ())
        with pytest.raises(TypeError, match="expected Clause, got tuple"):
            RclProblem(2, 1, (), ((1, (1, 2)),))


# ---------------------------------------------------------------------------
# Grounding
# ---------------------------------------------------------------------------


class TestGrounding:
    def test_ground_var_pin(self):
        assert ground_var(2, 3, 5) == 12
        assert ground_var(1, 1, 5) == 1
        assert ground_var(5, 1, 5) == 5
        assert ground_var(1, 2, 5) == 6

    def test_ground_var_bijective(self):
        n_predicates, n_constants = 4, 3
        images = {
            ground_var(pred, const, n_predicates)
            for pred in range(1, n_predicates + 1)
            for const in range(1, n_constants + 1)
        }
        assert images == set(range(1, n_predicates * n_constants + 1))

    def test_universals_expand_over_all_constants(self):
        p = RclProblem(2, 2, (Clause.from_ints(-1, 2),), ())
        g = ground_rcl(p)
        assert g.n_vars == 4
        assert g.m == 2
        assert g.to_int_clauses() == [[-1, 2], [-3, 4]]
        assert alpha(g) == 1 / 2

    def test_expansion_order_universals_then_grounds(self):
        p = RclProblem(
            2,
            2,
            (Clause.from_ints(-1, 2),),
            ((2, Clause.from_ints(1, -2)), (1, Clause.from_ints(1, 2))),
        )
        g = ground_rcl(p)
        assert g.n_vars == 4
        assert g.to_int_clauses() == [[-1, 2], [-3, 4], [3, -4], [1, 2]]

    def test_ground_formula_satisfiability_matches_direct_check(self):
        rng = random.Random(20240)
        for _ in range(120):
            n_predicates = rng.choice([3, 4])
            n_constants = rng.choice([1, 2, 3])
            m_universal = rng.randint(1, 6)
            m_ground = rng.randint(n_constants, n_constants + 3)
            p = draw_problem(
                n_predicates, n_constants, m_universal, m_ground, 0.5, rng
            )
            expected = "sat" if _has_finite_model(p) else "unsat"
            assert solve(ground_rcl(p)).label == expected


def _has_finite_model(p):
    """Direct finite-domain check: try every assignment of predicate extensions."""
    n = p.n_predicates * p.n_constants

    def holds(assignment):
        for clause in p.universal_clauses:
            for const in range(1, p.n_constants + 1):
                if not any(
                    assignment[ground_var(l.var, const, p.n_predicates)] != l.negated
                    for l in clause.literals
                ):
                    return False
        for const, clause in p.ground_clauses:
            if not any(
                assignment[ground_var(l.var, const, p.n_predicates)] != l.negated
                for l in clause.literals
            ):
                return False
        return True

    for bits in range(2**n):
        assignment = {v: bool(bits >> (v - 1) & 1) for v in range(1, n + 1)}
        if holds(assignment):
            return True
    return False


# ---------------------------------------------------------------------------
# Sizing helpers
# ---------------------------------------------------------------------------


class TestSizingHelpers:
    def test_feasible_predicate_counts_pins(self):
        assert feasible_predicate_counts(16) == [8]
        assert feasible_predicate_counts(70) == [5, 7]
        assert feasible_predicate_counts(40) == [5, 8]
        assert feasible_predicate_counts(24) == [6, 8]
        assert feasible_predicate_counts(11) == []
        # a lone constant is not enough: 8 = 8 * 1 is rejected
        assert feasible_predicate_counts(8) == []
        assert feasible_predicate_counts(5) == []

    def test_split_clause_budget_pins(self):
        assert split_clause_budget(76, 2) == (28, 20)
        assert split_clause_budget(20, 4) == (4, 4)
        assert split_clause_budget(8, 4) == (1, 4)

    def test_split_clause_budget_identity(self):
        for total in range(4, 120):
            for n_constants in (1, 2, 3, 4):
                if total < 2 * n_constants:
                    continue
                m_universal, m_ground = split_clause_budget(total, n_constants)
                assert m_universal >= 1
                assert m_ground >= n_constants
                assert m_universal * n_constants + m_ground == total

    def test_split_clause_budget_too_small(self):
        with pytest.raises(ValueError, match="budget 7 too small for 4 constants"):
            split_clause_budget(7, 4)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


class TestSampleRclProblem:
    def test_shapes_and_coverage(self):
        rng = random.Random(7)
        p = draw_problem(3, 2, 4, 3, 0.5, rng)
        assert p.n_predicates == 3
        assert p.n_constants == 2
        assert len(p.universal_clauses) == 4
        assert len(p.ground_clauses) == 3
        assert sorted({cid for cid, _ in p.ground_clauses}) == [1, 2]
        assert all(len(c.literals) == 3 for c in p.universal_clauses)
        assert all(len(c.literals) == 3 for _, c in p.ground_clauses)

    def test_every_constant_gets_a_ground_clause(self):
        rng = random.Random(99)
        for _ in range(30):
            p = draw_problem(4, 3, 2, 3, 0.5, rng)
            assert {cid for cid, _ in p.ground_clauses} == {1, 2, 3}

    def test_deterministic(self):
        a = draw_problem(3, 2, 4, 3, 0.5, random.Random(7))
        b = draw_problem(3, 2, 4, 3, 0.5, random.Random(7))
        assert a == b

    def test_negation_extremes(self):
        rng = random.Random(5)
        all_pos = draw_problem(4, 2, 5, 4, 0.0, rng)
        assert all(
            not l.negated for c in all_pos.universal_clauses for l in c.literals
        )
        assert all(
            not l.negated for _, c in all_pos.ground_clauses for l in c.literals
        )
        all_neg = draw_problem(4, 2, 5, 4, 1.0, rng)
        assert all(l.negated for c in all_neg.universal_clauses for l in c.literals)
        assert all(l.negated for _, c in all_neg.ground_clauses for l in c.literals)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


class TestRenderRcl:
    def test_canonical_two_sentence_text(self):
        p = problem_with_universal(
            Clause.from_ints(-1, 2, 3), ((1, Clause.from_ints(1, 2, -3)),)
        )
        theory = render_rcl(p, BINDING, LEX, rng=None)
        assert theory.text == (
            "Every doctor who is not a philosopher is a baker. "
            "John is a doctor or a philosopher or not a baker."
        )
        assert len(theory.sentences) == 2

    def test_subject_is_first_negative_literal(self):
        s = render_rcl(
            problem_with_universal(Clause.from_ints(1, 2, -3)), BINDING, LEX, rng=None
        ).sentences[0]
        assert s == "Every baker who is not a doctor is a philosopher."

    def test_all_negative_clause(self):
        binding = VarBinding(
            {1: "baker", 2: "gardener", 3: "philosopher"}, {1: "John"}
        )
        s = render_rcl(
            problem_with_universal(Clause.from_ints(-1, -2, -3)), binding, LEX, rng=None
        ).sentences[0]
        assert s == "Every baker who is a gardener is not a philosopher."

    def test_all_positive_clause_uses_everyone_form(self):
        binding = VarBinding(
            {1: "baker", 2: "gardener", 3: "philosopher"}, {1: "John"}
        )
        s = render_rcl(
            problem_with_universal(Clause.from_ints(1, 2, 3)), binding, LEX, rng=None
        ).sentences[0]
        assert s == "Everyone who is not a baker and not a gardener is a philosopher."

    def test_negative_conclusion_rewrites_to_no_form(self):
        p = problem_with_universal(Clause.from_ints(-1, 2, -3))
        rng = ScriptedRng(0.1)
        assert (
            render_rcl(p, BINDING, LEX, rng=rng).sentences[0]
            == "No doctor who is not a philosopher is a baker."
        )
        assert (
            render_rcl(p, BINDING, LEX, rng=ScriptedRng(0.9)).sentences[0]
            == "Every doctor who is not a philosopher is not a baker."
        )
        # without an rng the plain form is used
        assert (
            render_rcl(p, BINDING, LEX, rng=None).sentences[0]
            == "Every doctor who is not a philosopher is not a baker."
        )

    def test_positive_conclusion_never_rewrites(self):
        p = problem_with_universal(Clause.from_ints(-1, -2, 3))
        assert (
            render_rcl(p, BINDING, LEX, rng=ScriptedRng(0.1)).sentences[0]
            == "Every doctor who is a philosopher is a baker."
        )

    def test_vowel_article(self):
        binding = VarBinding(
            {1: "illustrator", 2: "curator", 3: "baker"}, {1: "John"}
        )
        p = problem_with_universal(Clause.from_ints(-1, 2, 3))
        s = render_rcl(p, binding, LEX, rng=None).sentences[0]
        assert s == "Every illustrator who is not a curator is a baker."
        g = render_rcl(p, binding, LEX, rng=None).sentences[1]
        assert g == "John is an illustrator or a curator or a baker."

    def test_universal_width_must_be_three(self):
        p = RclProblem(3, 1, (Clause.from_ints(-1, 2),), ((1, Clause.from_ints(1, 2, 3)),))
        with pytest.raises(FragmentError, match="universal sentences need width-3"):
            render_rcl(p, BINDING, LEX, rng=None)

    def test_ground_width_must_be_three(self):
        p = RclProblem(3, 1, (Clause.from_ints(-1, 2, 3),), ((1, Clause.from_ints(2, -3)),))
        with pytest.raises(FragmentError, match="ground sentences need width-3"):
            render_rcl(p, BINDING, LEX, rng=None)

    def test_token_budget(self):
        p = problem_with_universal(Clause.from_ints(-1, 2, 3))
        with pytest.raises(FragmentError, match="over the budget of 5"):
            render_rcl(p, BINDING, LEX, rng=None, token_budget=5)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


class TestParseRcl:
    def test_canonical_parse(self):
        sentences = (
            "Every doctor who is not a philosopher is a baker.",
            "John is a doctor or a philosopher or not a baker.",
        )
        problem, binding = parse_rcl(sentences, LEX)
        assert problem.n_predicates == 3
        assert problem.n_constants == 1
        assert problem.universal_clauses[0].to_ints() == (-1, 2, 3)
        cid, clause = problem.ground_clauses[0]
        assert cid == 1
        assert clause.to_ints() == (1, 2, -3)
        assert binding.variables == {1: "doctor", 2: "philosopher", 3: "baker"}
        assert binding.constants == {1: "John"}

    def test_no_form_equals_every_not_form(self):
        ground = "John is a baker or a gardener or a philosopher."
        no_form, _ = parse_rcl(
            ("No baker who is a gardener is a philosopher.", ground), LEX
        )
        every_form, _ = parse_rcl(
            ("Every baker who is a gardener is not a philosopher.", ground), LEX
        )
        assert no_form == every_form
        assert no_form.universal_clauses[0].to_ints() == (-1, -2, -3)

    def test_everyone_form_parse(self):
        sentences = (
            "Everyone who is not a doctor and not a philosopher is a baker.",
            "John is a doctor or a philosopher or not a baker.",
        )
        problem, _ = parse_rcl(sentences, LEX)
        assert problem.universal_clauses[0].to_ints() == (1, 2, 3)

    def test_lenient_everything_that(self):
        sentences = (
            "Everything that is not a doctor and not a philosopher is a baker.",
            "John is a doctor or a philosopher or not a baker.",
        )
        problem, _ = parse_rcl(sentences, LEX, strict=False)
        assert problem.universal_clauses[0].to_ints() == (1, 2, 3)
        with pytest.raises(ParseError):
            parse_rcl(sentences, LEX, strict=True)

    def test_lenient_everyone_polarities(self):
        sentences = (
            "Everyone who is a doctor and not a philosopher is a baker.",
            "John is a doctor or a philosopher or not a baker.",
        )
        problem, _ = parse_rcl(sentences, LEX, strict=False)
        assert problem.universal_clauses[0].to_ints() == (-1, 2, 3)
        with pytest.raises(ParseError):
            parse_rcl(sentences, LEX, strict=True)

    def test_lenient_wrong_article(self):
        sentences = (
            "Every doctor who is not an philosopher is a baker.",
            "John is a doctor or a philosopher or not a baker.",
        )
        problem, _ = parse_rcl(sentences, LEX, strict=False)
        assert problem.universal_clauses[0].to_ints() == (-1, 2, 3)

    def test_lenient_plurals(self):
        sentences = (
            "Every doctors who is not a philosophers is a bakers.",
            "John is a doctors or a philosophers or not a bakers.",
        )
        problem, binding = parse_rcl(sentences, LEX, strict=False)
        assert problem.universal_clauses[0].to_ints() == (-1, 2, 3)
        assert binding.variables == {1: "doctor", 2: "philosopher", 3: "baker"}
        with pytest.raises(ParseError, match="unknown noun 'doctors'"):
            parse_rcl(sentences, LEX, strict=True)

    def test_missing_ground_sentence(self):
        with pytest.raises(ParseError, match="no ground sentences") as info:
            parse_rcl(("Every doctor who is not a philosopher is a baker.",), LEX)
        assert info.value.sentence_index == 1

    def test_article_mismatch_has_span(self):
        sentences = (
            "Every doctor who is not an philosopher is a baker.",
            "John is a doctor or a philosopher or not a baker.",
        )
        with pytest.raises(ParseError, match="article mismatch") as info:
            parse_rcl(sentences, LEX)
        assert info.value.sentence_index == 1
        assert info.value.span == (20, 38)
        assert str(info.value).startswith("sentence 1, chars 20-38")

    def test_unknown_noun(self):
        sentences = (
            "Every doctor who is not a philosopher is a wizard.",
            "John is a doctor or a philosopher or not a wizard.",
        )
        with pytest.raises(ParseError, match="unknown noun 'wizard'") as info:
            parse_rcl(sentences, LEX)
        assert info.value.span == (43, 49)

    def test_repeated_noun(self):
        sentences = (
            "Every doctor who is not a doctor is a baker.",
            "John is a doctor or a philosopher or not a baker.",
        )
        with pytest.raises(ParseError, match="a noun repeats within the sentence"):
            parse_rcl(sentences, LEX)

    def test_repeated_noun_in_ground_sentence(self):
        sentences = (
            "Every doctor who is not a philosopher is a baker.",
            "John is a doctor or a doctor or not a baker.",
        )
        with pytest.raises(ParseError, match="a noun repeats within the sentence"):
            parse_rcl(sentences, LEX)

    def test_unknown_name(self):
        sentences = (
            "Zorblax is a doctor or a philosopher or not a baker.",
            "Every doctor who is not a philosopher is a baker.",
        )
        with pytest.raises(ParseError, match="unknown name 'Zorblax'") as info:
            parse_rcl(sentences, LEX)
        assert info.value.sentence_index == 1
        assert info.value.span == (0, 7)

    def test_grammar_mismatch_reports_position(self):
        sentences = (
            "Every doctor who is not a philosopher is a baker.",
            "John is a doctor or a philosopher or not a baker.",
            "Garbage here.",
        )
        with pytest.raises(ParseError, match="does not match the fragment grammar") as info:
            parse_rcl(sentences, LEX)
        assert info.value.sentence_index == 3
        assert str(info.value).startswith("sentence 3:")

    def test_lowercase_quantifier_rejected_even_lenient(self):
        sentences = (
            "every doctor who is not a philosopher is a baker.",
            "John is a doctor or a philosopher or not a baker.",
        )
        for strict in (True, False):
            with pytest.raises(ParseError, match="fragment grammar"):
                parse_rcl(sentences, LEX, strict=strict)

    def test_missing_period(self):
        sentences = (
            "Every doctor who is not a philosopher is a baker",
            "John is a doctor or a philosopher or not a baker.",
        )
        with pytest.raises(ParseError, match="period"):
            parse_rcl(sentences, LEX)

    @pytest.mark.parametrize("strict", [True, False], ids=["strict", "lenient"])
    @pytest.mark.parametrize("sentence", [
        "Every doctor who is not a philosopher is a baker\n.",
        "No doctor who is a philosopher is a baker\n.",
        "Everyone who is not a doctor and not a philosopher is a baker\n.",
        "John is a doctor or a philosopher or not a baker\n.",
    ], ids=["every", "no", "everyone", "ground"])
    def test_newline_before_the_period_is_refused(self, sentence, strict):
        # a pattern ending in "$" would also match before a final newline
        sentences = (sentence, "John is a doctor or a philosopher or not a baker.")
        with pytest.raises(ParseError) as info:
            parse_rcl(sentences, LEX, strict=strict)
        assert str(info.value) == (
            f"sentence 1: sentence does not match the fragment grammar: {sentence!r}"
        )


# ---------------------------------------------------------------------------
# Reindexing and round trips
# ---------------------------------------------------------------------------


class TestReindexAndRoundTrip:
    def test_reindex_returns_maps(self):
        p = RclProblem(
            3,
            2,
            (Clause.from_ints(-3, 1),),
            ((2, Clause.from_ints(2, 3)), (1, Clause.from_ints(1, 2))),
        )
        q, pred_map, const_map = reindex_problem(p)
        # the universal sentence mentions its subject (variable 3) first
        assert pred_map == {3: 1, 1: 2, 2: 3}
        assert const_map == {2: 1, 1: 2}
        assert q.universal_clauses[0].to_ints() == (-1, 2)
        assert [cid for cid, _ in q.ground_clauses] == [1, 2]

    def test_reindex_fixpoint(self):
        rng = random.Random(31)
        for _ in range(50):
            p = draw_problem(4, 2, 3, 3, 0.5, rng)
            q, _, _ = reindex_problem(p)
            q2, pred_map, const_map = reindex_problem(q)
            assert q2 == q
            assert pred_map == {i: i for i in range(1, q.n_predicates + 1)}
            assert const_map == {i: i for i in range(1, q.n_constants + 1)}

    def test_unmentioned_predicate_rejected(self):
        p = RclProblem(3, 1, (Clause.from_ints(-1, 2),), ((1, Clause.from_ints(1, 2)),))
        with pytest.raises(FragmentError, match="predicates never mentioned: \\[3\\]"):
            reindex_problem(p)

    def test_parse_of_render_is_reindexed_problem(self):
        rng = random.Random(414)
        for _ in range(60):
            n_predicates = rng.choice([3, 4])
            n_constants = rng.choice([1, 2, 3])
            p = draw_problem(n_predicates, n_constants, 3, n_constants + 1, 0.5, rng)
            vocab = bind_vocabulary(p, LEX, rng)
            expected, pred_map, const_map = reindex_problem(p)
            for render_rng in (None, random.Random(rng.randrange(10**6))):
                theory = render_rcl(p, vocab, LEX, rng=render_rng)
                parsed, binding = parse_rcl(theory.sentences, LEX)
                assert parsed == expected
                assert binding == VarBinding(
                    {pred_map[v]: w for v, w in vocab.variables.items()},
                    {const_map[c]: w for c, w in vocab.constants.items()},
                )
                # lenient mode accepts everything strict mode accepts
                lenient, _ = parse_rcl(theory.sentences, LEX, strict=False)
                assert lenient == expected

    def test_round_trip_with_rewrites_enabled(self):
        rng = random.Random(515)
        hits = 0
        for _ in range(40):
            p = draw_problem(4, 2, 4, 3, 0.8, rng)
            vocab = bind_vocabulary(p, LEX, rng)
            theory = render_rcl(p, vocab, LEX, rng=rng, no_rewrite_prob=1.0)
            hits += sum(s.startswith("No ") for s in theory.sentences)
            parsed, _ = parse_rcl(theory.sentences, LEX)
            assert parsed == reindex_problem(p)[0]
        assert hits > 0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    n_predicates=st.integers(5, 8),
    n_constants=st.integers(2, 3),
    rnd=st.randoms(use_true_random=True),
)
def test_parse_render_reindex_round_trip_property(n_predicates, n_constants, rnd):
    # the problem, the binding, the "No ..." rewrites and the text come
    # from a hypothesis-seeded Random, through the public names and so
    # through their int cores
    m_universal = rnd.randint(n_predicates, 3 * n_predicates)
    m_ground = rnd.randint(n_constants, 3 * n_constants)
    p = draw_problem(n_predicates, n_constants, m_universal, m_ground, 0.5, rnd)
    try:
        fixed, _, _ = reindex_problem(p)
    except FragmentError:
        assume(False)  # a predicate no sentence mentions
    binding = bind_vocabulary(fixed, LEX, rnd)
    theory = render_rcl(fixed, binding, LEX, rnd, no_rewrite_prob=0.5)
    parsed, parsed_binding = parse_theory(theory.text, RCL, LEX)
    assert parsed == fixed
    assert parsed_binding == binding
    assert to_dimacs(ground_rcl(parsed)) == to_dimacs(ground_rcl(fixed))
