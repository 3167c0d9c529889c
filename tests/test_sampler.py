"""Random formula generation, phase curve estimation, calibration, strategies."""

import hashlib
import math
import random
import threading
from fractions import Fraction
from itertools import combinations, islice, product

import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as scipy_stats

from nlsatgen import sampler, solver
from nlsatgen.cnf import CnfFormula, _as_clause
from nlsatgen.rng import derive_rng
from nlsatgen.sampler import (
    BIASED,
    DIVERSITY_FRACTION,
    HARD,
    NAIVE,
    NAIVE_BAND,
    STRATEGIES,
    CalibrationError,
    CalibrationTable,
    SampleSpec,
    admissible_m,
    calibrate_critical,
    calibration_cache_path,
    estimate_psat,
    _clause_stream,
    _draw_clause,
    _draw_clauses,
    draw_m,
    sample_clause,
    strategy_m_candidates,
    wilson_halfwidth,
)
from nlsatgen.solver import (
    _MASK_SCAN_MAX_VARS,
    DEFAULT_MAX_DECISIONS,
    SAT,
    UNSAT,
    BudgetExhaustedError,
    _dpll,
    _unsat_threshold,
    solve,
    solve_bruteforce,
)


class ScriptedRng:
    """Fixed-value stand-in for random.Random where one coin flip matters."""

    def __init__(self, value):
        self.value = value
        self.calls = 0

    def random(self):
        self.calls += 1
        return self.value


# ---------------------------------------------------------------- spec


def test_spec_validation():
    with pytest.raises(ValueError):
        SampleSpec(n=1)
    with pytest.raises(ValueError):
        SampleSpec(n=2, p_int=1.0)  # 3-clauses need 3 distinct variables
    with pytest.raises(ValueError):
        SampleSpec(n=3, p_int=-0.1)
    with pytest.raises(ValueError):
        SampleSpec(n=3, p_neg=1.5)
    with pytest.raises(TypeError, match="n must be an int, got float 8.0"):
        SampleSpec(n=8.0)
    with pytest.raises(TypeError, match="n must be an int"):
        calibrate_critical(8.0, 1.0, 0.5)
    with pytest.raises(ValueError, match="unknown strategy 'weird'"):
        strategy_m_candidates(
            SampleSpec(n=3), "weird", (Fraction(1), Fraction(2)), ScriptedRng(0.5)
        )
    assert SampleSpec(n=2, p_int=0.0).n == 2
    assert SampleSpec(n=2, p_int=1.0, with_replacement=True).with_replacement
    assert set(STRATEGIES) == {HARD, NAIVE, BIASED}


# ---------------------------------------------------------------- clauses


def test_clause_widths_follow_p_int():
    rng = derive_rng("widths")
    only2 = SampleSpec(n=6, p_int=0.0, p_neg=0.5)
    assert all(sample_clause(only2, rng).width == 2 for _ in range(200))
    only3 = SampleSpec(n=6, p_int=1.0, p_neg=0.5)
    assert all(sample_clause(only3, rng).width == 3 for _ in range(200))


def test_width_mix_matches_p_int_half():
    rng = derive_rng("mix", 2)
    spec = SampleSpec(n=6, p_int=0.5, p_neg=0.5)
    w3 = sum(1 for _ in range(8000) if sample_clause(spec, rng).width == 3)
    assert 0.47 < w3 / 8000 < 0.53


def test_negation_probability_extremes():
    rng = derive_rng("negs")
    none = SampleSpec(n=6, p_int=1.0, p_neg=0.0)
    assert all(
        not lit.negated for _ in range(200) for lit in sample_clause(none, rng).literals
    )
    every = SampleSpec(n=6, p_int=1.0, p_neg=1.0)
    assert all(
        lit.negated for _ in range(200) for lit in sample_clause(every, rng).literals
    )


def test_canonical_draws_are_sorted_and_distinct():
    rng = derive_rng("canon")
    spec = SampleSpec(n=8, p_int=1.0, p_neg=0.5)
    for _ in range(300):
        c = sample_clause(spec, rng)
        variables = [lit.var for lit in c.literals]
        assert variables == sorted(set(variables))


def test_replacement_draws_repeat_variables():
    rng = derive_rng("raw")
    spec = SampleSpec(n=4, p_int=1.0, p_neg=0.5, with_replacement=True)
    draws = _draw_clauses(spec, 400, rng)
    # with replacement some draw repeats a variable eventually
    assert any(len({abs(v) for v in c}) < len(c) for c in draws)


@pytest.mark.parametrize("with_replacement", [False, True])
@pytest.mark.parametrize("p_int", [0.0, 0.7, 1.0])
def test_sample_clause_wraps_the_shared_draw(with_replacement, p_int):
    # a with-replacement draw is not a canonical clause: sample_clause
    # refuses the spec before drawing, and the ints go to retrofit instead
    spec = SampleSpec(n=6, p_int=p_int, p_neg=0.5, with_replacement=with_replacement)
    a, b = derive_rng("draw", p_int, with_replacement), derive_rng("draw", p_int, with_replacement)
    for _ in range(5000):
        if with_replacement:
            with pytest.raises(ValueError, match="without replacement"):
                sample_clause(spec, a)
        else:
            assert sample_clause(spec, a).to_ints() == _draw_clause(spec, b)
    assert a.getstate() == b.getstate()


def _reference_draw(spec, rng):
    # the draw as random's public calls make it; _draw_clauses restates them
    width = 3 if rng.random() < spec.p_int else 2
    if spec.with_replacement:
        variables = [rng.randrange(1, spec.n + 1) for _ in range(width)]
    else:
        variables = sorted(rng.sample(range(1, spec.n + 1), width))
    return tuple(-v if rng.random() < spec.p_neg else v for v in variables)


# n <= 21 is random.sample's pool branch, above it its set branch; n = 2
# without replacement takes only two-literal clauses
@pytest.mark.parametrize("n,p_int,with_replacement", [
    (n, p_int, with_replacement)
    for n in (*range(2, 41), 2**20)
    for p_int in (0.0, 0.3, 1.0)
    for with_replacement in (False, True)
    if n > 2 or p_int == 0.0 or with_replacement
])
def test_draw_makes_the_rng_calls_of_sample_and_randrange(n, p_int, with_replacement):
    spec = SampleSpec(n=n, p_int=p_int, p_neg=0.5, with_replacement=with_replacement)
    batch, single, reference = (derive_rng("stream", n, p_int, with_replacement) for _ in range(3))
    clauses = _draw_clauses(spec, 200, batch)
    assert [_draw_clause(spec, single) for _ in range(200)] == clauses
    assert [_reference_draw(spec, reference) for _ in range(200)] == clauses
    assert batch.getstate() == single.getstate() == reference.getstate()


class PlannedRng(random.Random):
    """A random.Random whose getrandbits and random return planned values.

    The plan is one list of (method, value) in call order, so a call the
    plan does not expect next fails; a getrandbits value must fit its k.
    """

    def __init__(self, plan):
        super().__init__(0)
        self.plan = iter(plan)

    def _next(self, method):
        planned, value = next(self.plan)
        assert planned == method
        return value

    def getrandbits(self, k):
        value = self._next("getrandbits")
        assert value < 1 << k
        return value

    def random(self):
        return self._next("random")


def _pick_plan(size, j):
    # one rejected draw, the largest that fits size.bit_length() bits,
    # then the pick index j
    return [("getrandbits", (1 << size.bit_length()) - 1), ("getrandbits", j)]


# every pick-index sequence and every sign pattern of every width the
# spec allows, up to the last n of random.sample's pool branch
@pytest.mark.parametrize("n", range(2, sampler._SAMPLE_SETSIZE + 1))
def test_clause_tables_give_the_clause_of_sample_for_every_plan(n):
    spec = SampleSpec(n=n, p_int=0.0 if n == 2 else 0.5, p_neg=0.5)
    plan, draws, distinct = [], 0, 0
    for width in (2,) if n == 2 else (2, 3):
        distinct += math.comb(n, width) << width
        for picks in product(*(range(n - i) for i in range(width))):
            for signs in product((True, False), repeat=width):
                plan.append(("random", 0.25 if width == 3 else 0.75))
                for i, j in enumerate(picks):
                    plan += _pick_plan(n - i, j)
                plan += [("random", 0.25 if negated else 0.75) for negated in signs]
                draws += 1
    table, reference = PlannedRng(plan), PlannedRng(plan)
    clauses = list(islice(_clause_stream(spec, table), draws))
    assert clauses == [_reference_draw(spec, reference) for _ in range(draws)]
    assert len(set(clauses)) == distinct  # every signed clause of every width
    assert next(table.plan, None) is None and next(reference.plan, None) is None
    # every literal is the one int object of its value
    assert all(lit is sampler._LITERALS[lit] for clause in clauses for lit in clause)


@pytest.mark.parametrize("n,p_int,with_replacement,built", [
    (2, 0.0, False, [(2, 2)]),
    (8, 0.0, False, [(8, 2)]),
    (8, 1.0, False, [(8, 3)]),
    (8, 0.5, False, [(8, 3), (8, 2)]),
    (sampler._SAMPLE_SETSIZE, 1.0, False, [(sampler._SAMPLE_SETSIZE, 3)]),
    (sampler._SAMPLE_SETSIZE + 1, 0.5, False, []),
    (40, 1.0, False, []),
    (2, 1.0, True, []),
    (8, 0.5, True, []),
    (sampler._SAMPLE_SETSIZE, 1.0, True, []),
])
def test_a_stream_builds_only_the_tables_it_draws_from(n, p_int, with_replacement, built,
                                                       monkeypatch):
    calls, build = [], sampler._clause_tables

    def tables(*key):
        calls.append(key)
        return build(*key)

    monkeypatch.setattr(sampler, "_clause_tables", tables)
    spec = SampleSpec(n=n, p_int=p_int, p_neg=0.5, with_replacement=with_replacement)
    stream = _clause_stream(spec, derive_rng("tables", n))
    assert calls == []  # lazy: nothing is built before the first draw
    list(islice(stream, 50))
    assert calls == built


# n on both sides of random.sample's pool and set branches
@pytest.mark.parametrize("n", [5, sampler._SAMPLE_SETSIZE, sampler._SAMPLE_SETSIZE + 1, 40])
@pytest.mark.parametrize("with_replacement", [False, True])
def test_draw_takes_the_first_m_of_the_lazy_stream(n, with_replacement):
    spec = SampleSpec(n=n, p_int=0.7, p_neg=0.5, with_replacement=with_replacement)
    for m in (0, 1, 2, 7, 200):
        batch, lazy = (derive_rng("lazy", n, with_replacement, m) for _ in range(2))
        assert _draw_clauses(spec, m, batch) == list(islice(_clause_stream(spec, lazy), m))
        assert batch.getstate() == lazy.getstate()


# the memo holds every clause over 5 or 15 variables but not over 16 or
# 21; from 22 on sample_clause converts each draw with the plain function
@pytest.mark.parametrize("n", [5, 15, 16, 21, 22, 40])
def test_sample_clause_is_the_clause_of_its_draw_whatever_the_memo_holds(n):
    spec = SampleSpec(n=n, p_int=0.7, p_neg=0.5)
    a, b = derive_rng("memo", n), derive_rng("memo", n)

    def check(draws):
        clauses = [sample_clause(spec, a) for _ in range(draws)]
        assert clauses == [_as_clause(_draw_clause(spec, b)) for _ in range(draws)]
        assert a.getstate() == b.getstate()
        return clauses

    memo = sampler._sampled_clause
    memo.cache_clear()
    check(300)  # cold
    clauses = check(300)  # warm
    if n <= sampler._CLAUSE_MEMO_MAX_VARS:
        # equal draws share one Clause
        assert len({id(c) for c in clauses}) == len(set(clauses))
    # full and evicting: clauses over 21 variables push every earlier
    # entry out of the memo
    wide, rng = SampleSpec(n=21, p_int=0.7, p_neg=0.5), derive_rng("fill", n)
    misses = memo.cache_info().misses
    while memo.cache_info().misses < misses + 2 * memo.cache_info().maxsize:
        sample_clause(wide, rng)
    misses = memo.cache_info().misses
    check(3000)
    assert memo.cache_info().currsize == memo.cache_info().maxsize
    if n <= sampler._CLAUSE_MEMO_MAX_VARS:
        assert memo.cache_info().misses > misses
    else:
        assert memo.cache_info().misses == misses


def _fresh_clause(spec, rng):
    # the reference: every clause from a stream of its own
    return _as_clause(_draw_clause(spec, rng))


# sample_clause continues one live stream per (spec, rng, thread); every
# step below runs on twin RNGs, once through it and once through fresh
# streams, and must give the same clauses and leave the same RNG states
@pytest.mark.parametrize("between", [
    "nothing", "other spec", "other rng", "other spec and rng", "equal spec",
    "randrange", "seed", "setstate", "batch",
])
def test_sample_clause_draws_as_fresh_streams_whatever_happens_between(between):
    spec = SampleSpec(n=8, p_int=0.7, p_neg=0.5)
    other = SampleSpec(n=12, p_int=1.0, p_neg=0.3)
    twin = SampleSpec(n=8, p_int=0.7, p_neg=0.5)
    assert twin == spec and twin is not spec
    saved = derive_rng("saved").getstate()

    def run(draw, rng, rng2):
        clauses = []
        for i in range(300):
            clauses.append(draw(spec, rng))
            if between == "other spec":
                clauses.append(draw(other, rng))
            elif between == "other rng":
                clauses.append(draw(spec, rng2))
            elif between == "other spec and rng":
                clauses.append(draw(other, rng2))
            elif between == "equal spec":
                clauses.append(draw(twin, rng))
            elif between == "randrange":
                rng.randrange(1, 100)
            elif between == "seed" and i % 7 == 0:
                rng.seed(i)
            elif between == "setstate" and i % 7 == 0:
                rng.setstate(saved)
            elif between == "batch":
                clauses.extend(map(_as_clause, _draw_clauses(spec, 2, rng)))
        return clauses

    live = derive_rng("live", between), derive_rng("live-2", between)
    fresh = derive_rng("live", between), derive_rng("live-2", between)
    assert run(sample_clause, *live) == run(_fresh_clause, *fresh)
    assert [rng.getstate() for rng in live] == [rng.getstate() for rng in fresh]


def test_consecutive_sample_clause_calls_share_one_stream(monkeypatch):
    built, stream = [], sampler._clause_stream

    def counted(*args):
        built.append(args)
        return stream(*args)

    monkeypatch.setattr(sampler, "_clause_stream", counted)
    monkeypatch.setattr(sampler, "_stream", sampler._NO_STREAM)
    spec, twin = SampleSpec(n=8), SampleSpec(n=8)
    a, b = derive_rng("share", 1), derive_rng("share", 2)
    for _ in range(50):
        sample_clause(spec, a)
    assert built == [(spec, a)]
    # each switch of spec object or RNG object starts a new stream
    keys = [(twin, a), (spec, a), (spec, b), (spec, a)]
    for key in keys:
        sample_clause(*key)
    assert [tuple(map(id, args)) for args in built[1:]] == [tuple(map(id, key)) for key in keys]


class FailingRng(random.Random):
    """A random.Random whose getrandbits raises on one planned call."""

    def __init__(self, seed, fail_at):
        super().__init__(seed)
        self.calls, self.fail_at = 0, fail_at

    def getrandbits(self, k):
        self.calls += 1
        if self.calls == self.fail_at:
            raise RuntimeError("planned failure")
        return super().getrandbits(k)


# a generator that raised is finished: the live stream must be dropped,
# or every later call would end in StopIteration
def test_a_draw_that_raises_starts_the_next_call_on_a_new_stream():
    spec = SampleSpec(n=8, p_int=0.7, p_neg=0.5)

    def run(draw, rng):
        out = []
        for _ in range(40):
            try:
                out.append(draw(spec, rng))
            except RuntimeError as exc:
                out.append(str(exc))
        return out

    live, fresh = FailingRng(5, fail_at=30), FailingRng(5, fail_at=30)
    clauses = run(sample_clause, live)
    assert clauses.count("planned failure") == 1 and clauses[-1] != "planned failure"
    assert clauses == run(_fresh_clause, fresh)
    assert live.getstate() == fresh.getstate()


class BlockingRng(random.Random):
    """A random.Random whose getrandbits, called from ``thread``, waits once
    for ``release`` after setting ``entered``."""

    def __init__(self, seed):
        super().__init__(seed)
        self.thread, self.entered, self.release = None, threading.Event(), threading.Event()

    def getrandbits(self, k):
        if threading.current_thread() is self.thread:
            self.thread = None
            self.entered.set()
            assert self.release.wait(timeout=30)
        return super().getrandbits(k)


# two threads drawing from one (spec, rng): thread A is held inside a
# draw, with its stream running, while the main thread draws; the main
# thread must start its own stream, not resume A's
def test_another_thread_does_not_take_a_running_stream():
    spec = SampleSpec(n=8, p_int=0.7, p_neg=0.5)

    def run(draw):
        rng, held = BlockingRng(11), {}

        def draw_held():
            held["clause"] = draw(spec, rng)

        thread = threading.Thread(target=draw_held)
        rng.thread = thread
        thread.start()
        try:
            assert rng.entered.wait(timeout=30)
            clauses = [draw(spec, rng) for _ in range(3)]
        finally:
            rng.release.set()
            thread.join(timeout=30)
        assert not thread.is_alive()
        return held["clause"], clauses, draw(spec, rng), rng.getstate()

    assert run(sample_clause) == run(_fresh_clause)


# the public path of a band check: one sample_clause per clause into a
# CnfFormula, labelled by the brute-force oracle, at the band midpoints
# of the checked-in calibration for n=8 and n=10
@pytest.mark.parametrize("n,m,sat", [(8, 42, 474), (10, 50, 501)])
def test_band_check_through_sample_clause_is_pinned(n, m, sat):
    spec = SampleSpec(n=n, p_int=1.0, p_neg=0.5)
    rng = random.Random(f"band-check:108:{n}")
    labels = [
        solve_bruteforce(CnfFormula(n, tuple(sample_clause(spec, rng) for _ in range(m)))).label
        for _ in range(1000)
    ]
    assert labels.count(SAT) == sat


def test_three_clause_distribution_is_uniform():
    # n=5: 8 sign patterns x C(5,3) variable triples = 80 equally likely clauses
    spec = SampleSpec(n=5, p_int=1.0, p_neg=0.5)
    rng = derive_rng("uniformity", 0)
    counts = {}
    draws = 24000
    for _ in range(draws):
        c = sample_clause(spec, rng).to_ints()
        counts[c] = counts.get(c, 0) + 1
    cells = [
        tuple(sorted((v1 * s1, v2 * s2, v3 * s3), key=abs))
        for (v1, v2, v3) in combinations(range(1, 6), 3)
        for (s1, s2, s3) in product((1, -1), repeat=3)
    ]
    assert len(cells) == 80
    assert set(counts) <= set(cells)
    result = scipy_stats.chisquare([counts.get(c, 0) for c in cells])
    assert result.pvalue > 0.01


def test_two_clause_distribution_is_uniform():
    spec = SampleSpec(n=5, p_int=0.0, p_neg=0.5)
    rng = derive_rng("uniformity", 1)
    counts = {}
    for _ in range(12000):
        c = sample_clause(spec, rng).to_ints()
        counts[c] = counts.get(c, 0) + 1
    cells = [
        tuple(sorted((v1 * s1, v2 * s2), key=abs))
        for (v1, v2) in combinations(range(1, 6), 2)
        for (s1, s2) in product((1, -1), repeat=2)
    ]
    result = scipy_stats.chisquare([counts.get(c, 0) for c in cells])
    assert result.pvalue > 0.01


# ---------------------------------------------------------------- clause counts


def test_admissible_m_pins():
    assert list(admissible_m(10, Fraction(4), Fraction(4))) == [40]
    band = admissible_m(12, Fraction(7, 2), Fraction(11, 2))
    assert band == range(42, 67)
    assert list(admissible_m(10, Fraction(411, 100), Fraction(419, 100))) == []


# ---------------------------------------------------------------- wilson


def test_wilson_halfwidth_oracle_values():
    assert wilson_halfwidth(0.5, 500) == pytest.approx(0.04365873469751569, abs=1e-15)
    assert wilson_halfwidth(0.5, 2000) == pytest.approx(0.021892049248830807, abs=1e-15)
    assert wilson_halfwidth(0.25, 400) == pytest.approx(0.04229905934710001, abs=1e-15)
    # degenerate sample proportions still get positive width
    assert wilson_halfwidth(0.0, 100) == pytest.approx(0.018496749103492836, abs=1e-15)
    assert wilson_halfwidth(1.0, 100) == pytest.approx(0.018496749103492836, abs=1e-15)


def test_wilson_halfwidth_shrinks_with_trials():
    assert wilson_halfwidth(0.5, 2000) < wilson_halfwidth(0.5, 500)
    with pytest.raises(ValueError):
        wilson_halfwidth(0.5, 0)


# ---------------------------------------------------------------- psat


def test_psat_alpha_zero_is_one():
    e = estimate_psat(12, 1.0, 0.5, 0, trials=50)
    assert e.p_hat == 1.0
    assert e.m == 0
    assert e.trials == 50
    assert e.halfwidth > 0


def test_psat_snaps_alpha_to_integer_clause_count():
    e = estimate_psat(12, 1.0, 0.5, 4.26, trials=20)
    assert e.m == 51
    assert e.alpha == Fraction(17, 4)


def test_psat_overconstrained_is_near_zero():
    e = estimate_psat(12, 1.0, 0.5, Fraction(10), trials=120)
    assert e.p_hat < 0.05


def test_psat_deterministic_for_fixed_seed():
    a = estimate_psat(10, 1.0, 0.5, Fraction(4), trials=80, seed=3)
    b = estimate_psat(10, 1.0, 0.5, Fraction(4), trials=80, seed=3)
    assert (a.p_hat, a.m, a.halfwidth) == (b.p_hat, b.m, b.halfwidth)
    c = estimate_psat(10, 1.0, 0.5, Fraction(4), trials=80, seed=4)
    assert a.p_hat != c.p_hat or a.m == c.m  # same m, stream may differ


def test_psat_gives_up_after_repeated_budget_exhaustion():
    with pytest.raises(BudgetExhaustedError):
        estimate_psat(8, 1.0, 0.5, Fraction(5), trials=3, max_decisions=0)


# ---------------------------------------------------------------- calibration


def test_calibrate_two_sat_crossover_pin():
    result = calibrate_critical(10, 0.0, 0.5, trials_per_point=200, seed=0)
    assert Fraction(7, 10) <= result.alpha_c <= Fraction(11, 5)
    assert result.band[0] <= result.alpha_c <= result.band[1]


def test_calibrate_three_sat_small_n():
    result = calibrate_critical(8, 1.0, 0.5, trials_per_point=200, seed=0)
    assert Fraction(3) <= result.alpha_c <= Fraction(7)
    assert result.band[0] < result.band[1]
    assert result.n == 8 and result.trials_per_point == 200
    # every recorded point is (alpha, p_hat, trials)
    for point_alpha, p_hat, trials in result.points:
        assert isinstance(point_alpha, Fraction)
        assert 0.0 <= p_hat <= 1.0
        assert trials >= 200


def test_calibrate_is_deterministic():
    a = calibrate_critical(6, 1.0, 0.5, trials_per_point=80, seed=9)
    b = calibrate_critical(6, 1.0, 0.5, trials_per_point=80, seed=9)
    assert a.alpha_c == b.alpha_c and a.band == b.band


def test_calibrate_guards_degenerate_families():
    # a band with too few clauses to ever cross 0.5 from above
    with pytest.raises(CalibrationError) as exc:
        calibrate_critical(10, 1.0, 0.5, trials_per_point=50, alpha_max=Fraction(1))
    assert "raise alpha_max" in str(exc.value)


@pytest.mark.parametrize("tolerance", [-1.0, -1e-9, float("nan")])
def test_calibrate_refuses_negative_or_nan_tolerance(tolerance, monkeypatch):
    # refused before any trial is drawn
    monkeypatch.setattr(sampler, "_thresholds", None)
    with pytest.raises(ValueError, match="tolerance must be a non-negative number"):
        calibrate_critical(6, 1.0, 0.5, tolerance=tolerance, trials_per_point=20)


@pytest.mark.parametrize("p_neg", [0.0, 1.0, 0, 1])
def test_calibrate_refuses_a_family_with_every_literal_signed_alike(p_neg, monkeypatch):
    # the all-true (p_neg 0) or all-false (p_neg 1) assignment satisfies
    # every formula, so no alpha_max would help; refused before any trial
    monkeypatch.setattr(sampler, "_thresholds", None)
    with pytest.raises(CalibrationError, match="p_neg") as exc:
        calibrate_critical(6, 1.0, p_neg, trials_per_point=50)
    assert "alpha_max" not in str(exc.value)
    assert ("false" if p_neg else "true") in str(exc.value)


def test_calibrate_accepts_zero_tolerance():
    # the closeness check still has the Wilson half-width to give
    result = calibrate_critical(6, 1.0, 0.5, tolerance=0.0, trials_per_point=200, seed=0)
    assert result.band
    assert result.alpha_c == calibrate_critical(6, 1.0, 0.5, trials_per_point=200, seed=0).alpha_c


def test_calibrate_gives_up_after_repeated_budget_exhaustion(monkeypatch):
    # only the bisection branch searches, so only it has a budget to exhaust
    solves = []

    def counted(*args):
        solves.append(args)
        return _dpll(*args)

    monkeypatch.setattr(solver, "_dpll", counted)
    with pytest.raises(BudgetExhaustedError):
        calibrate_critical(
            _MASK_SCAN_MAX_VARS + 1, 1.0, 0.5, trials_per_point=3, max_decisions=0
        )
    assert len(solves) == 5  # the first trial's stream, then four redraws


def test_mask_scan_calibration_ignores_the_budget():
    default = calibrate_critical(8, 1.0, 0.5, trials_per_point=100, seed=3)
    assert calibrate_critical(8, 1.0, 0.5, trials_per_point=100, seed=3, max_decisions=0) == default


def test_mask_scan_calibration_does_no_search(monkeypatch):
    expected = calibrate_critical(8, 1.0, 0.5, trials_per_point=100, seed=1)

    def no_search(*args):
        raise AssertionError("the mask scan called _dpll")

    monkeypatch.setattr(solver, "_dpll", no_search)
    assert calibrate_critical(8, 1.0, 0.5, trials_per_point=100, seed=1) == expected


@pytest.mark.parametrize(
    "n, p_int, alpha_max, trials",
    # alpha_max 5 at n=8 leaves some streams with no unsat prefix
    [(6, 1.0, 12, 60), (8, 0.5, 12, 60), (8, 1.0, 5, 60), (_MASK_SCAN_MAX_VARS, 1.0, 6, 10),
     (_MASK_SCAN_MAX_VARS + 1, 1.0, 6, 10)],
)
def test_a_trial_threshold_is_that_of_its_full_draw(n, p_int, alpha_max, trials):
    # stopping the draw at the first unsat prefix leaves the threshold
    # that the whole m_max-clause stream of the trial's key gives
    spec = SampleSpec(n=n, p_int=p_int, p_neg=0.5)
    m_max = alpha_max * n
    thresholds = sampler._thresholds(spec, m_max, 4, range(trials), DEFAULT_MAX_DECISIONS)
    for trial, threshold in enumerate(thresholds):
        rng = derive_rng("threshold", 4, n, p_int, 0.5, m_max, trial)
        full = _draw_clauses(spec, m_max, rng)
        assert threshold == _unsat_threshold(n, full, DEFAULT_MAX_DECISIONS)


def test_trial_thresholds_do_not_depend_on_the_other_trials():
    spec = SampleSpec(n=8, p_int=1.0, p_neg=0.5)

    def thresholds(trials):
        return sampler._thresholds(spec, 96, 0, trials, DEFAULT_MAX_DECISIONS)

    whole = thresholds(range(100))
    assert thresholds(range(50)) == whole[:50]
    assert thresholds(range(50, 100)) == whole[50:]
    assert thresholds(range(99, -1, -1)) == whole[::-1]


def test_mask_scan_trials_draw_only_up_to_their_threshold(monkeypatch):
    drawn = []  # clauses taken from each stream
    stream = sampler._clause_stream

    def counted(spec, rng):
        drawn.append(0)
        for clause in stream(spec, rng):
            drawn[-1] += 1
            yield clause

    monkeypatch.setattr(sampler, "_clause_stream", counted)
    m_max = 40  # alpha 5 at n=8: some streams have no unsat prefix
    thresholds = sampler._thresholds(SampleSpec(n=8), m_max, 0, range(200), DEFAULT_MAX_DECISIONS)
    assert drawn == [min(t, m_max) for t in thresholds]
    assert m_max + 1 in thresholds and min(thresholds) <= m_max


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    n=st.integers(3, 10),
    p_int=st.sampled_from((0.0, 0.5, 1.0)),
    alpha_max=st.integers(0, 8),
    rnd=st.randoms(use_true_random=True),
)
def test_unsat_threshold_matches_a_bruteforce_scan(n, p_int, alpha_max, rnd):
    # the bisection must find the first prefix length that brute force,
    # which shares no code with the DPLL, calls unsat
    m_max = alpha_max * n
    clauses = _draw_clauses(SampleSpec(n=n, p_int=p_int, p_neg=0.5), m_max, rnd)
    scan = next(
        (
            m
            for m in range(1, m_max + 1)
            if solve_bruteforce(CnfFormula.from_ints(n, clauses[:m])).label == UNSAT
        ),
        m_max + 1,
    )
    assert _unsat_threshold(n, clauses, DEFAULT_MAX_DECISIONS) == scan


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    n=st.integers(3, _MASK_SCAN_MAX_VARS),
    p_int=st.sampled_from((0.0, 0.5, 1.0)),
    alpha_max=st.integers(0, 8),
    rnd=st.randoms(use_true_random=True),
)
def test_mask_scan_threshold_matches_a_dpll_scan(n, p_int, alpha_max, rnd):
    # up to the constant the threshold is a truth-table scan, which
    # shares no code with the DPLL that decides each prefix here
    m_max = alpha_max * n
    clauses = _draw_clauses(SampleSpec(n=n, p_int=p_int, p_neg=0.5), m_max, rnd)
    scan = next(
        (
            m
            for m in range(1, m_max + 1)
            if _dpll(n, clauses[:m], DEFAULT_MAX_DECISIONS).label == UNSAT
        ),
        m_max + 1,
    )
    assert _unsat_threshold(n, clauses, DEFAULT_MAX_DECISIONS) == scan


@pytest.mark.parametrize(
    "p_int, alpha_max, seed",
    [(1.0, 8, 0), (1.0, 8, 1), (0.5, 6, 2), (0.0, 3, 3), (1.0, 2, 4), (0.5, 8, 5), (1.0, 6, 6)],
)
def test_bisection_threshold_matches_a_bruteforce_scan(p_int, alpha_max, seed):
    # just above the constant the threshold is bisected with DPLL
    n = _MASK_SCAN_MAX_VARS + 1
    m_max = alpha_max * n
    rng = derive_rng("bisection-threshold", seed)
    clauses = _draw_clauses(SampleSpec(n=n, p_int=p_int, p_neg=0.5), m_max, rng)
    scan = next(
        (
            m
            for m in range(1, m_max + 1)
            if solve_bruteforce(CnfFormula.from_ints(n, clauses[:m])).label == UNSAT
        ),
        m_max + 1,
    )
    assert _unsat_threshold(n, clauses, DEFAULT_MAX_DECISIONS) == scan
    if scan <= m_max:  # a stream that turns unsat only at its last clause
        assert _unsat_threshold(n, clauses[:scan], DEFAULT_MAX_DECISIONS) == scan


@pytest.mark.parametrize(
    "n, p_int, trials", [(5, 1.0, 60), (6, 1.0, 80), (8, 1.0, 200), (10, 0.0, 200)]
)
def test_calibration_curve_is_monotone_around_the_band(n, p_int, trials):
    result = calibrate_critical(n, p_int, 0.5, trials_per_point=trials, seed=0)
    alphas = [a for a, _, _ in result.points]
    p_hats = [p for _, p, _ in result.points]
    assert alphas == [alphas[0] + Fraction(i, n) for i in range(len(alphas))]
    assert p_hats == sorted(p_hats, reverse=True)
    assert p_hats[0] == 1.0 and p_hats[1] < 1.0
    # it ends at the first P_sat of 0, or at the default alpha_max of 12
    assert p_hats[-2] > 0.0 and (p_hats[-1] == 0.0 or alphas[-1] == 12)
    assert all(t == trials for _, _, t in result.points)
    assert result.band[0] <= result.alpha_c <= result.band[1]


def test_calibration_table_round_trip(tmp_path):
    table = CalibrationTable()
    table.add_point(12, 1.0, 0.5, Fraction(9, 2), 0.52, 500)
    table.set_band(12, 1.0, 0.5, Fraction(14, 3), Fraction(31, 6))
    path = tmp_path / "cal.txt"
    table.save(path)
    text = path.read_text()
    assert text.startswith("# nlsatgen-calibration v1\n")
    assert "point 12 1.0 0.5 9/2 0.52 500" in text
    assert "band 12 1.0 0.5 14/3 31/6" in text
    loaded = CalibrationTable.load(path)
    assert loaded.band_for(12, 1.0, 0.5) == (Fraction(14, 3), Fraction(31, 6))
    assert loaded.points == {(12, 1.0, 0.5): {Fraction(9, 2): (0.52, 500)}}
    assert loaded.band_for(11, 1.0, 0.5) is None


def test_calibration_table_rejects_other_versions(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("# some other file\n")
    with pytest.raises(ValueError):
        CalibrationTable.load(bad)


def test_calibration_table_rejects_junk_lines(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("# nlsatgen-calibration v1\njunk here\n")
    with pytest.raises(ValueError) as exc:
        CalibrationTable.load(bad)
    assert "line 2" in str(exc.value)


def test_cache_path_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("NLSAT_CACHE_DIR", str(tmp_path))
    assert calibration_cache_path() == tmp_path / "calibration.txt"
    monkeypatch.delenv("NLSAT_CACHE_DIR")
    tail = calibration_cache_path().parts[-2:]
    assert tail == ("nlsatgen", "calibration.txt")


# ---------------------------------------------------------------- strategies


def strategy_formula(spec, strategy, band, rng) -> CnfFormula:
    """One formula on the generator's path: ``draw_m``, then m clauses."""
    m = draw_m(spec, strategy, band, rng)
    return CnfFormula(spec.n, tuple([sample_clause(spec, rng) for _ in range(m)]))


def test_hard_strategy_draws_from_band_and_consumes_one_coin():
    spec = SampleSpec(n=10, p_int=1.0, p_neg=0.5)
    rng = ScriptedRng(0.99)  # above the diversity fraction: stay in band
    ms = strategy_m_candidates(spec, HARD, (Fraction(39, 8), Fraction(45, 8)), rng)
    assert rng.calls == 1
    assert (ms[0], ms[-1]) == (49, 56)


def test_hard_strategy_widens_band_for_diversity_draws():
    spec = SampleSpec(n=10, p_int=1.0, p_neg=0.5)
    rng = ScriptedRng(0.0)  # below the diversity fraction: widen by 1
    ms = strategy_m_candidates(spec, HARD, (Fraction(39, 8), Fraction(45, 8)), rng)
    assert rng.calls == 1
    assert (ms[0], ms[-1]) == (39, 66)
    assert 0.0 < DIVERSITY_FRACTION < 1.0


def test_hard_widened_band_clamps_at_one_clause():
    spec = SampleSpec(n=4, p_int=1.0, p_neg=0.5)
    ms = strategy_m_candidates(spec, HARD, (Fraction(1, 2), Fraction(1)), ScriptedRng(0.0))
    assert ms[0] >= 1


def test_hard_strategy_requires_calibration():
    spec = SampleSpec(n=10, p_int=1.0, p_neg=0.5)
    with pytest.raises(CalibrationError) as exc:
        strategy_m_candidates(spec, HARD, None, ScriptedRng(0.5))
    assert "run calibrate first" in str(exc.value)


def test_naive_strategy_ignores_band_and_rng():
    spec = SampleSpec(n=10, p_int=1.0, p_neg=0.5)
    rng = ScriptedRng(0.0)
    ms = strategy_m_candidates(spec, NAIVE, None, rng)
    assert rng.calls == 0
    lo, hi = NAIVE_BAND
    assert ms[0] == max(1, -(-lo * 10 // 1)) == 5
    assert ms[-1] == hi * 10 == 80


def test_biased_strategy_unions_the_easy_ends():
    spec = SampleSpec(n=10, p_int=1.0, p_neg=0.5)
    ms = strategy_m_candidates(spec, BIASED, (Fraction(2), Fraction(3)), ScriptedRng(0.5))
    values = [ms[i] for i in range(len(ms))]
    assert values == list(range(5, 11)) + list(range(60, 81))
    assert ms[-1] == 80


def reference_draw_m(spec, strategy, band, rng, diversity_fraction):
    """``draw_m`` as ``strategy_m_candidates`` plus ``randrange`` were
    written before the memo: the band's Fractions worked out per call."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == NAIVE:
        ms = admissible_m(spec.n, *NAIVE_BAND)
        if len(ms) == 0:
            raise ValueError(f"empty naive band {NAIVE_BAND} at n={spec.n}")
        return ms[rng.randrange(len(ms))]
    if band is None:
        raise CalibrationError(
            f"no calibration for (n={spec.n}, p_int={spec.p_int}, p_neg={spec.p_neg}); "
            "run calibrate first"
        )
    lo, hi = Fraction(band[0]), Fraction(band[1])
    if strategy == HARD:
        if rng.random() < diversity_fraction:
            lo = max(lo - 1, Fraction(1, spec.n))
            hi = hi + 1
        ms = admissible_m(spec.n, lo, hi)
        if len(ms) == 0:
            raise ValueError(f"empty hard band [{lo}, {hi}] at n={spec.n}")
        return ms[rng.randrange(len(ms))]
    left = admissible_m(spec.n, NAIVE_BAND[0], lo / 2)
    ms = [*left, *admissible_m(spec.n, 2 * hi, NAIVE_BAND[1])]
    if not ms:
        raise ValueError(f"biased strategy bands empty for band [{lo}, {hi}] at n={spec.n}")
    return ms[rng.randrange(len(ms))]


def candidates_then_randrange(spec, strategy, band, rng, diversity_fraction):
    ms = strategy_m_candidates(spec, strategy, band, rng, diversity_fraction)
    return ms[rng.randrange(len(ms))]


def drawn(fn, spec, strategy, band, rng, diversity_fraction):
    """(m or the exception's type and text, the RNG state after)."""
    try:
        result = fn(spec, strategy, band, rng, diversity_fraction)
    except Exception as exc:  # the exception is part of what must agree
        result = type(exc), str(exc)
    return result, rng.getstate()


def test_draw_m_memo_gives_the_plain_rules_draws_states_and_errors():
    bands = [
        (Fraction(39, 8), Fraction(45, 8)),
        (Fraction(24, 5), Fraction(26, 5)),
        (Fraction(1, 2), Fraction(1)),          # widened band clamps at 1/n
        (Fraction(101, 40), Fraction(102, 40)),  # empty at n = 4, not once widened
        (Fraction(1, 2), Fraction(5)),           # biased: both ends empty
        (5, 6), (5.0, 6.0), ("5", "6"),          # equal bands of other types
        [Fraction(5), Fraction(6)],              # a list keys the memo as a tuple
        ("x", "6"), (Fraction(5),),              # refused before any coin
        None,
    ]
    strategies = [HARD, NAIVE, BIASED, "weird"]
    cases = [
        (n, strategy, band, fraction)
        for n in (4, 8, 10, 12)
        for strategy in strategies
        for band in bands
        for fraction in (0.0, DIVERSITY_FRACTION, 0.5, 1.0)
    ]
    # interleave sizes, bands and strategies so the memo is hit and missed,
    # and compare both public names with the rule written out per call
    order = random.Random(26)
    for _ in range(3):
        order.shuffle(cases)
        for n, strategy, band, fraction in cases:
            spec = SampleSpec(n=n)
            seed = order.getrandbits(32)
            want = drawn(reference_draw_m, spec, strategy, band, random.Random(seed), fraction)
            got = drawn(draw_m, spec, strategy, band, random.Random(seed), fraction)
            assert got == want, (n, strategy, band, fraction)
            rng = random.Random(seed)
            got = drawn(candidates_then_randrange, spec, strategy, band, rng, fraction)
            assert got == want, (n, strategy, band, fraction)


def test_draw_m_empty_hard_band_raises_after_the_coin_with_its_bounds():
    spec = SampleSpec(n=4)
    band = (Fraction(101, 40), Fraction(51, 20))
    rng = random.Random(1)
    with pytest.raises(ValueError, match=r"empty hard band \[101/40, 51/20\] at n=4"):
        draw_m(spec, HARD, band, rng, 0.0)
    coin_only = random.Random(1)
    coin_only.random()
    assert rng.getstate() == coin_only.getstate()
    # the widened side is not empty and draws from [61/40, 71/20]
    assert 7 <= draw_m(spec, HARD, band, random.Random(1), 1.0) <= 14


def test_biased_strategy_requires_calibration():
    spec = SampleSpec(n=10, p_int=1.0, p_neg=0.5)
    with pytest.raises(CalibrationError):
        strategy_m_candidates(spec, BIASED, None, ScriptedRng(0.5))


def test_hard_sampling_lands_near_even_odds():
    # hard strategy at a calibrated band keeps raw sat share near 1/2
    band = (Fraction(39, 8), Fraction(45, 8))
    spec = SampleSpec(n=8, p_int=1.0, p_neg=0.5)
    rng = derive_rng("balance-smoke")
    sat_count = 0
    trials = 600
    for _ in range(trials):
        result = solve(strategy_formula(spec, HARD, band, rng))
        sat_count += result.label == SAT
    assert 0.40 < sat_count / trials < 0.60


# ---------------------------------------------------------------- golden stream


def _sampler_transcript() -> str:
    """Every sampling entry point, run on fixed seeds, as one string."""
    out = []
    ms = admissible_m(7, Fraction(2), Fraction(5))
    for with_replacement in (False, True):
        spec = SampleSpec(n=7, p_int=0.7, p_neg=0.5, with_replacement=with_replacement)
        for i in range(20):
            rng = derive_rng("golden-formula", with_replacement, i)
            m = ms[rng.randrange(len(ms))]
            if with_replacement:
                clauses = [_draw_clause(spec, rng) for _ in range(m)]
            else:
                clauses = [sample_clause(spec, rng).to_ints() for _ in range(m)]
            out.append(repr(clauses))
    band = (Fraction(2), Fraction(3))
    for strategy in STRATEGIES:
        spec = SampleSpec(n=9, p_int=1.0, p_neg=0.5)
        rng = derive_rng("golden-strategy", strategy)
        for _ in range(20):
            f = strategy_formula(spec, strategy, band, rng)
            result = solve(f)
            out.append(f"{f.to_int_clauses()} {result.label} {result.stats.as_dict()}")
    out.append(repr(estimate_psat(8, 1.0, 0.5, Fraction(9, 2), trials=100, seed=1)))
    return "\n".join(out)


def test_sampling_transcript_is_pinned():
    digest = hashlib.sha256(_sampler_transcript().encode()).hexdigest()
    assert digest == "67b5a535bb363b3a3cc2ff40edeccbd42fd564e97bcaffc4e50427f510995ce5"


def test_calibration_transcript_is_pinned():
    result = calibrate_critical(6, 1.0, 0.5, trials_per_point=100, seed=0)
    transcript = repr((result.alpha_c, result.band, result.points))
    digest = hashlib.sha256(transcript.encode()).hexdigest()
    assert digest == "a1ba5917d645a4953679d5d1933ca39af194c846737cbef2819e2ceb4ac73fc0"
