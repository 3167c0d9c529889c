"""Random k-SAT generation controlled by the clause-to-variable ratio.

Random formulas flip from almost-surely satisfiable to almost-surely
unsatisfiable as alpha = m/n crosses a critical value; problems drawn
near the crossing are empirically the hardest.  This module samples
clauses and formulas, estimates the satisfiable fraction by Monte
Carlo, locates the crossing from the unsat thresholds of random clause
streams (the shortest unsat prefix of each, which ``solver`` finds by a
truth-table scan or by DPLL), and draws formulas with one of three band
strategies:

* hard    alpha inside the calibrated critical band (where the
          satisfiable fraction is within 0.5 +/- 0.1), with a small
          diversity fraction drawn from the band widened by +/- 1.0
* naive   alpha uniform over a fixed wide band, default [0.5, 8.0]
* biased  alpha far from the band: [0.5, lo/2] union [2*hi, 8.0]

Each calibration trial draws from its own stream, keyed by the trial's
index, so no trial depends on another; up to 17 variables a trial
draws its stream only up to its threshold.

Ratios are kept as exact fractions end to end; only Monte Carlo
estimates are floats.

There is one sampling path: ``draw_m`` picks m from a strategy and a
band, then clauses are drawn from the ``SampleSpec`` distribution as
signed-int tuples (+v / -v) by one private loop, the endless generator
``_clause_stream``.  ``_draw_clauses`` takes its first m clauses,
``sample_clause`` takes the next clause of a stream it keeps and wraps
it in a ``Clause``, and calibration and the ruletaker retrofit read it
one clause at a time, so that they can stop at the first unsat prefix;
the retrofit also redraws its tautologies from it.  The loop makes the ``getrandbits`` draws of
``random.sample`` and ``randrange`` itself, so the stream and the
clauses are theirs without their per-call argument checks.  Up to 21
variables without replacement it then looks the clause up: one table
maps sample's pick indices to their sorted combination, built once per
process by running sample's pool rule, and another maps a combination
and its sign bits to the finished tuple.  Draws with
replacement are not canonical, so they stay ints until the ruletaker
retrofit collapses them.  The phase curve and the generators stay on
the ints through retrofitting, reindexing, the solver and DIMACS.

``sample_clause`` is the one path that builds objects, one clause per
call.  Consecutive calls continue one stream, kept per spec object, RNG
object and thread, so they do not pay a new generator's setup each.
Since a stream keeps no RNG state of its own, the clauses and RNG calls
are those of fresh draws.  The module holds one such slot, which pins
one RNG, one spec and one suspended generator; a draw that raises drops
it.  Equal draws there share one ``Clause``, validated the first time
it was drawn, from a memo of 4,096 entries.  The memo is bounded
because the number of distinct clauses grows as n^3, and it is skipped
above ``_CLAUSE_MEMO_MAX_VARS`` variables, where most draws would miss.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations, islice, product
from pathlib import Path
from random import Random
from threading import get_ident
from typing import Optional, Sequence

from .cnf import Clause, _as_clause
from .fileio import _read_text, atomic_writer
from .rng import _seed_maker, derive_rng
from .solver import DEFAULT_MAX_DECISIONS, BudgetExhaustedError, _dpll, _unsat_threshold

HARD = "hard"
NAIVE = "naive"
BIASED = "biased"
STRATEGIES = (HARD, NAIVE, BIASED)

NAIVE_BAND = (Fraction(1, 2), Fraction(8))
DIVERSITY_FRACTION = 0.1
DIVERSITY_WIDEN = Fraction(1)

_WILSON_Z = 1.959963984540054  # two-sided 95%


class CalibrationError(RuntimeError):
    """Calibration could not locate or trust the critical point."""


@dataclass(frozen=True)
class SampleSpec:
    """The random clause distribution; ``draw_m`` picks how many to draw.

    p_int is the probability that a clause has three literals (else
    two); p_neg is the per-literal negation probability.  Variables are
    drawn without replacement unless with_replacement is set, in which
    case clauses may repeat a variable and stay signed ints until
    ``ruletaker.retrofit`` collapses them.
    """

    n: int
    p_int: float = 1.0
    p_neg: float = 0.5
    with_replacement: bool = False

    def __post_init__(self):
        if not isinstance(self.n, int):
            raise TypeError(f"n must be an int, got {type(self.n).__name__} {self.n!r}")
        if self.n < 2:
            raise ValueError("need at least 2 variables")
        if self.p_int > 0 and self.n < 3 and not self.with_replacement:
            raise ValueError("three-literal clauses need n >= 3 without replacement")
        for name in ("p_int", "p_neg"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")


# rcl's draws' specs; they only draw, and equal values of one type draw alike
_spec = lru_cache(maxsize=64, typed=True)(SampleSpec)


# random.sample keeps a list of the unpicked items when the population
# is at most this long, and a set of picks above it; the value is its
# ``setsize`` for k <= 5, which covers clause widths 2 and 3.  Up to it,
# a clause is two lookups into the tables of ``_clause_tables``, whose
# literals are the int objects of this one list: ``_LITERALS[v] == v``
# for every v in -21..21, so no table holds its own copy of a negative.
_SAMPLE_SETSIZE = 21
_LITERALS = [*range(_SAMPLE_SETSIZE + 1), *range(-_SAMPLE_SETSIZE, 0)]


@lru_cache(maxsize=None)
def _clause_tables(n: int, width: int) -> tuple:
    """The pooled draw's tables for ``width``-literal clauses over n <= 21 variables.

    ``order`` maps sample's pick indices j1 < n, j2 < n - 1 (and j3 <
    n - 2), flattened as ``j1*(n-1) + j2`` (and ``(...)*(n-2) + j3``), to
    the id of the sorted combination they pick.  It is built by running
    sample's pool rule once per index sequence, so that rule is restated
    here only.  ``signed`` maps ``id << width | bits`` to the clause, where
    bit ``width - 1 - i`` negates the i-th smallest variable.
    """
    combos = list(combinations(_LITERALS[1:n + 1], width))
    ids = {combo: i for i, combo in enumerate(combos)}
    order = []
    for picks in product(*(range(n - i) for i in range(width))):
        # sample's pool: take pool[j] for j below the unpicked count,
        # then move the last unpicked item into slot j
        pool, size, variables = list(range(1, n + 1)), n, []
        for j in picks:
            variables.append(pool[j])
            size -= 1
            pool[j] = pool[size]
        order.append(ids[tuple(sorted(variables))])
    signed = tuple(
        tuple(_LITERALS[-v if negated else v] for v, negated in zip(combo, signs))
        for combo in combos
        for signs in product((False, True), repeat=width)
    )
    return tuple(order), signed


def _clause_stream(spec: SampleSpec, rng):
    """Draw signed-int clauses without end, in order; the one draw loop.

    Every clause draw goes through this loop, so its RNG calls happen in
    one fixed order: one ``random()`` for the width, the variables'
    ``getrandbits`` draws, then one ``random()`` per literal, smallest
    variable first.  The loop makes the ``getrandbits`` draws itself,
    exactly as ``rng.sample(range(1, n + 1), width)`` (without
    replacement) or ``rng.randrange(1, n + 1)`` per literal (with it)
    would make them: ``_randbelow``'s rejection loop, with k =
    size.bit_length() bits for each size, and ``sample``'s pool up to
    ``_SAMPLE_SETSIZE`` variables or its set of picks above.  That
    restates CPython's ``random.Random``, so ``rng`` must be one, which
    is what ``derive_rng`` returns.  Without replacement the variables
    are distinct and sorted, so the clause is canonical.

    Up to ``_SAMPLE_SETSIZE`` variables without replacement, the clause
    is ``signed[order[i] << width | bits]`` (``_clause_tables``), where
    i flattens the pick indices and bits holds the negations, smallest
    variable in the high bit.  The tables are keyed by (n, width), at
    most 39 pairs, and built once per process, the first time a stream
    at that n is drawn from; a stream builds only the widths its p_int
    can give.  A process that drew at every n <= 21 at both widths would
    hold about 5.1 MB of tables, 0.9 MB of it for n = 21; n = 8 and 10
    at width 3 hold 0.11 MB.  Equal draws yield the same tuple object.
    With replacement the literals go straight into a tuple, since a
    table would need n^3 * 8 entries; above ``_SAMPLE_SETSIZE`` the loop
    keeps sample's set of picks.

    The stream is lazy: a clause's RNG calls are made when it is taken,
    so a reader that stops early, as retrofit does on an unsat prefix,
    leaves the RNG where its last clause left it.
    """
    random, getrandbits = rng.random, rng.getrandbits
    n, p_int, p_neg = spec.n, spec.p_int, spec.p_neg
    bits = n.bit_length()
    if spec.with_replacement:
        # randrange(1, n + 1) is 1 + _randbelow(n); the signs come after
        # every variable, left to right
        while True:
            three = random() < p_int
            a = getrandbits(bits)
            while a >= n:
                a = getrandbits(bits)
            b = getrandbits(bits)
            while b >= n:
                b = getrandbits(bits)
            a += 1
            b += 1
            if three:
                c = getrandbits(bits)
                while c >= n:
                    c = getrandbits(bits)
                c += 1
                yield (
                    -a if random() < p_neg else a,
                    -b if random() < p_neg else b,
                    -c if random() < p_neg else c,
                )
            else:
                yield (-a if random() < p_neg else a, -b if random() < p_neg else b)
    elif n <= _SAMPLE_SETSIZE:
        n1, n2 = n - 1, n - 2
        k1, k2 = n1.bit_length(), n2.bit_length()
        if p_int > 0.0:
            order3, signed3 = _clause_tables(n, 3)
        if p_int < 1.0:
            order2, signed2 = _clause_tables(n, 2)
        while True:
            three = random() < p_int
            i = getrandbits(bits)
            while i >= n:
                i = getrandbits(bits)
            j = getrandbits(k1)
            while j >= n1:
                j = getrandbits(k1)
            i = i * n1 + j
            if three:
                j = getrandbits(k2)
                while j >= n2:
                    j = getrandbits(k2)
                yield signed3[
                    order3[i * n2 + j] << 3
                    | (random() < p_neg) << 2
                    | (random() < p_neg) << 1
                    | (random() < p_neg)
                ]
            else:
                yield signed2[order2[i] << 2 | (random() < p_neg) << 1 | (random() < p_neg)]
    else:
        while True:
            width = 3 if random() < p_int else 2
            variables = []
            # sample's set of picks: redraw j below n while j + 1 is picked
            for _ in range(width):
                j = getrandbits(bits)
                while j >= n or j + 1 in variables:
                    j = getrandbits(bits)
                variables.append(j + 1)
            variables.sort()
            # a list comprehension: every sampled clause pays for it, and
            # it is cheaper than a generator expression
            yield tuple([-v if random() < p_neg else v for v in variables])


def _draw_clauses(spec: SampleSpec, m: int, rng) -> list:
    """Draw m signed-int clauses, in order: the first m of ``_clause_stream``."""
    return list(islice(_clause_stream(spec, rng), m))


def _draw_clause(spec: SampleSpec, rng) -> tuple:
    """Draw one signed-int clause: the first clause of a fresh
    ``_clause_stream``, built and dropped on every call."""
    return next(_clause_stream(spec, rng))


# Sharing is safe because a draw is a canonical int tuple and a Clause is
# immutable.  4,096 entries hold every clause up to 15 variables
# (8*C(15,3) + 4*C(15,2) = 4,060); from 22 on at most a third of the
# three-literal draws hit, and the misses cost as much as the hits save.
# The parsers and the DIMACS reader pass lists and keep the plain function.
_CLAUSE_MEMO_MAX_VARS = 21
_sampled_clause = lru_cache(maxsize=4096)(_as_clause)

# sample_clause's live stream: (spec, rng, thread ident, the stream's
# __next__, the converter), replaced as one tuple, so a thread that reads
# it mid-replacement sees either the old slot or the new one.  No lock:
# a thread resumes only a stream built under its own ident, which no
# other live thread can be running, so a race costs a rebuild, never a
# clause.  The slot holds its spec and RNG, so an identity match is never
# a new object at a recycled address.
_NO_STREAM = (None, None, None, None, None)
_stream = _NO_STREAM


def sample_clause(spec: SampleSpec, rng) -> Clause:
    """Draw one canonical clause from a spec that samples without replacement.

    Consecutive calls continue one lazy ``_clause_stream``, so they skip
    a new stream's setup.  The stream is kept per spec object, RNG object
    and thread; any other call starts a new one.  A stream holds no RNG
    state of its own, so its next clause makes the RNG calls of a fresh
    stream's first, whatever was done with ``rng`` in between, and the
    clauses and RNG calls are those of ``_draw_clause`` either way.  The
    module keeps one such stream, which holds on to its RNG, its spec and
    the suspended generator until the next call with another key; a draw
    that raises drops it.

    Up to ``_CLAUSE_MEMO_MAX_VARS`` variables, equal draws share one
    ``Clause``, validated when it was first drawn, from a memo that is
    bounded because the number of distinct clauses grows as n^3.
    """
    global _stream
    held_spec, held_rng, thread, take, convert = _stream
    ident = get_ident()
    if held_spec is not spec or held_rng is not rng or thread != ident:
        # identity, not equality: SampleSpec.__eq__ runs in Python
        if spec.with_replacement:
            raise ValueError("sample_clause draws without replacement; retrofit draws with it")
        take = _clause_stream(spec, rng).__next__
        convert = _sampled_clause if spec.n <= _CLAUSE_MEMO_MAX_VARS else _as_clause
        _stream = (spec, rng, ident, take, convert)
    try:
        return convert(take())
    except BaseException:
        # a generator that raised is finished; the next call starts anew
        _stream = _NO_STREAM
        raise


def admissible_m(n: int, alpha_min: Fraction, alpha_max: Fraction) -> range:
    """Integer clause counts m with alpha_min <= m/n <= alpha_max."""
    lo = math.ceil(Fraction(alpha_min) * n)
    hi = math.floor(Fraction(alpha_max) * n)
    return range(max(lo, 0), hi + 1)


def wilson_halfwidth(p_hat: float, trials: int, z: float = _WILSON_Z) -> float:
    """Half-width of the Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    z2 = z * z
    return (z / (1.0 + z2 / trials)) * math.sqrt(
        p_hat * (1.0 - p_hat) / trials + z2 / (4.0 * trials * trials)
    )


@dataclass(frozen=True)
class PsatEstimate:
    alpha: Fraction
    m: int
    p_hat: float
    halfwidth: float
    trials: int


def _redraw_on_budget(trial):
    """Call ``trial``, which draws and solves a fresh formula, until its
    solve stays within budget, five times at most; the fifth error propagates."""
    for attempt in range(5):
        try:
            return trial()
        except BudgetExhaustedError:
            if attempt == 4:
                raise


def estimate_psat(
    n: int,
    p_int: float,
    p_neg: float,
    alpha,
    trials: int,
    seed: int = 0,
    max_decisions: int = DEFAULT_MAX_DECISIONS,
) -> PsatEstimate:
    """Monte Carlo estimate of the satisfiable fraction at one ratio.

    alpha is snapped to the nearest integer clause count m = round(alpha
    * n); the estimate reports the exact ratio m/n actually sampled.  A
    trial whose solve exhausts the decision budget is retried with a
    fresh formula, a few times, before giving up.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    alpha = Fraction(alpha)
    m = round(alpha * n)
    exact = Fraction(m, n)
    if m < 0:
        raise ValueError(f"alpha {exact} is negative")
    spec = SampleSpec(n=n, p_int=p_int, p_neg=p_neg)
    rng = derive_rng("psat", seed, n, float(p_int), float(p_neg), m)
    sat_hits = 0
    for _ in range(trials):
        result = _redraw_on_budget(lambda: _dpll(n, _draw_clauses(spec, m, rng), max_decisions))
        sat_hits += result.label == "sat"
    p_hat = sat_hits / trials
    return PsatEstimate(exact, m, p_hat, wilson_halfwidth(p_hat, trials), trials)


def _key(n: int, p_int: float, p_neg: float) -> tuple:
    return (int(n), float(p_int), float(p_neg))


@dataclass
class CalibrationTable:
    """Measured phase-curve points and critical bands, persistable as text."""

    points: dict = field(default_factory=dict)  # key -> {alpha: (p_hat, trials)}
    bands: dict = field(default_factory=dict)   # key -> (alpha_lo, alpha_hi)

    VERSION = "nlsatgen-calibration v1"

    def add_point(self, n, p_int, p_neg, alpha: Fraction, p_hat: float, trials: int):
        self.points.setdefault(_key(n, p_int, p_neg), {})[Fraction(alpha)] = (
            float(p_hat),
            int(trials),
        )

    def replace_points(self, n, p_int, p_neg, points):
        """Drop the key's points, then add ``points`` as (alpha, p_hat, trials)."""
        self.points.pop(_key(n, p_int, p_neg), None)
        for alpha, p_hat, trials in points:
            self.add_point(n, p_int, p_neg, alpha, p_hat, trials)

    def set_band(self, n, p_int, p_neg, lo: Fraction, hi: Fraction):
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError(f"band lower bound {lo} above upper bound {hi}")
        self.bands[_key(n, p_int, p_neg)] = (lo, hi)

    def band_for(self, n, p_int, p_neg) -> Optional[tuple]:
        return self.bands.get(_key(n, p_int, p_neg))

    def save(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = [f"# {self.VERSION}"]
        for key in sorted(self.points):
            n, p_int, p_neg = key
            for alpha, (p_hat, trials) in sorted(self.points[key].items()):
                lines.append(
                    f"point {n} {p_int!r} {p_neg!r} {alpha} {p_hat!r} {trials}"
                )
        for key in sorted(self.bands):
            n, p_int, p_neg = key
            lo, hi = self.bands[key]
            lines.append(f"band {n} {p_int!r} {p_neg!r} {lo} {hi}")
        with atomic_writer(path) as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path) -> "CalibrationTable":
        path = Path(path)
        table = cls()
        lines = _read_text(path).splitlines()
        if not lines or lines[0] != f"# {cls.VERSION}":
            raise ValueError(f"{path}: not a {cls.VERSION} file")
        for line_no, line in enumerate(lines[1:], start=2):
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split()
            try:
                if parts[0] == "point" and len(parts) == 7:
                    table.add_point(
                        int(parts[1]), float(parts[2]), float(parts[3]),
                        Fraction(parts[4]), float(parts[5]), int(parts[6]),
                    )
                elif parts[0] == "band" and len(parts) == 6:
                    table.set_band(
                        int(parts[1]), float(parts[2]), float(parts[3]),
                        Fraction(parts[4]), Fraction(parts[5]),
                    )
                else:
                    raise ValueError(f"unrecognized record {parts[0]!r}")
            except (ValueError, IndexError) as exc:
                raise ValueError(f"{path} line {line_no}: {exc}") from None
        return table


def calibration_cache_path() -> Path:
    """Calibration file location; NLSAT_CACHE_DIR overrides the default."""
    root = os.environ.get("NLSAT_CACHE_DIR")
    base = Path(root) if root else Path.home() / ".cache" / "nlsatgen"
    return base / "calibration.txt"


@dataclass(frozen=True)
class CalibrationResult:
    n: int
    p_int: float
    p_neg: float
    alpha_c: Fraction
    band: tuple  # (alpha_lo, alpha_hi)
    points: tuple  # ((alpha, p_hat, trials), ...)
    trials_per_point: int


def _thresholds(spec: SampleSpec, m_max: int, seed: int, trials, max_decisions: int) -> list:
    """The unsat threshold of each trial in ``trials``, in order.

    Trial t reads the first m_max clauses of its own stream, keyed by
    its index (its key's prefix hashed once), so its threshold does not
    depend on which other trials run or in what order.  A trial whose
    solve exhausts the decision budget draws its next m_max clauses from
    the same stream.
    """
    n = spec.n
    trial_seed = _seed_maker("threshold", seed, n, float(spec.p_int), float(spec.p_neg), m_max)

    def threshold(rng):
        return _redraw_on_budget(
            lambda: _unsat_threshold(n, islice(_clause_stream(spec, rng), m_max), max_decisions)
        )

    return [threshold(Random(trial_seed(trial))) for trial in trials]


def calibrate_critical(
    n: int,
    p_int: float,
    p_neg: float,
    tolerance: float = 0.02,
    trials_per_point: int = 500,
    seed: int = 0,
    alpha_max: Fraction = Fraction(12),
    max_decisions: int = DEFAULT_MAX_DECISIONS,
) -> CalibrationResult:
    """Locate the ratio where half the sampled formulas are satisfiable.

    Each trial reads m_max = floor(alpha_max * n) clauses from its own
    stream, keyed by its index, and finds its threshold, the length of
    its shortest unsat prefix.  The share of thresholds above m is
    P_sat(m) for every m at once, and it cannot rise with m.  alpha_c is
    the m/n whose P_sat is nearest 0.5; it must come within tolerance +
    its Wilson half-width of 0.5.  The critical band spans the ratios
    whose P_sat lies in [0.4, 0.6].  ``solver._unsat_threshold`` finds
    each threshold: up to 17 variables it draws the stream only up to
    the threshold and ``max_decisions`` is unused; above that the whole
    stream is drawn and searched, and a trial whose solve exhausts the
    decision budget redraws from its own stream, a few times, before
    giving up.  No two trials share an RNG, so the thresholds do not
    depend on the order in which the trials run.  A p_neg of 0 or 1 is
    refused before any trial: one assignment satisfies all its formulas.
    """
    if trials_per_point <= 0:
        raise ValueError("trials must be positive")
    if not tolerance >= 0:  # NaN fails this too, and would pass any closeness
        raise ValueError(f"tolerance must be a non-negative number, got {tolerance!r}")
    m_max = math.floor(Fraction(alpha_max) * n)
    spec = SampleSpec(n=n, p_int=p_int, p_neg=p_neg)
    if p_neg in (0, 1):
        raise CalibrationError(
            f"p_neg = {p_neg} signs every literal alike: setting every variable "
            f"{'false' if p_neg else 'true'} satisfies every formula at every ratio"
        )
    thresholds = _thresholds(spec, m_max, seed, range(trials_per_point), max_decisions)
    # a threshold is at most m_max + 1; P_sat(m) counts those above m,
    # the suffix sum of their counts from m + 1
    counts = [0] * (m_max + 2)
    for t in thresholds:
        counts[t] += 1
    above = list(accumulate(reversed(counts[1:])))[::-1]
    psat = [count / trials_per_point for count in above]
    if psat[m_max] >= 0.5:
        raise CalibrationError(
            f"p_sat({Fraction(m_max, n)}) = {psat[m_max]:.3f} still >= 0.5; raise alpha_max"
        )
    if psat[1] < 0.5:
        raise CalibrationError(
            f"p_sat({Fraction(1, n)}) = {psat[1]:.3f} already below 0.5; family degenerate"
        )
    m_c = min(range(m_max + 1), key=lambda m: (abs(psat[m] - 0.5), m))
    if abs(psat[m_c] - 0.5) > tolerance + wilson_halfwidth(psat[m_c], trials_per_point):
        raise CalibrationError(
            f"|p_sat - 0.5| = {abs(psat[m_c] - 0.5):.3f} at alpha={Fraction(m_c, n)}; "
            "increase trials_per_point"
        )
    in_band = [m for m, p in enumerate(psat) if 0.4 <= p <= 0.6] + [m_c]
    band = (Fraction(min(in_band), n), Fraction(max(in_band), n))
    first = max(m for m, p in enumerate(psat) if p == 1.0)
    last = next((m for m, p in enumerate(psat) if p == 0.0), m_max)
    points = tuple(
        (Fraction(m, n), psat[m], trials_per_point) for m in range(first, last + 1)
    )
    return CalibrationResult(
        n, float(p_int), float(p_neg), Fraction(m_c, n), band, points, trials_per_point
    )


def _missing_band(n, p_int, p_neg) -> CalibrationError:
    """The error for a strategy that needs the band of an uncalibrated (n, p_int, p_neg)."""
    return CalibrationError(
        f"no calibration for (n={n}, p_int={p_int}, p_neg={p_neg}); run calibrate first"
    )


@lru_cache(maxsize=64)
def _m_choices(n: int, strategy: str, band: Optional[tuple]) -> tuple:
    """The clause counts at n per side of the hard coin, (band, widened
    band), or naive's or biased's one entry; an empty one is its error's
    text.  Equal bands give equal Fractions, so merged keys change nothing."""
    if strategy == NAIVE:
        return (admissible_m(n, *NAIVE_BAND) or f"empty naive band {NAIVE_BAND} at n={n}",)
    lo, hi = Fraction(band[0]), Fraction(band[1])
    if strategy == HARD:
        wide = (max(lo - DIVERSITY_WIDEN, Fraction(1, n)), hi + DIVERSITY_WIDEN)
        return tuple(
            admissible_m(n, a, b) or f"empty hard band [{a}, {b}] at n={n}"
            for a, b in ((lo, hi), wide)
        )
    # biased: far left and far right of the band, inside the naive limits
    ms = (*admissible_m(n, NAIVE_BAND[0], lo / 2), *admissible_m(n, 2 * hi, NAIVE_BAND[1]))
    return (ms or f"biased strategy bands empty for band [{lo}, {hi}] at n={n}",)


def strategy_m_candidates(
    spec: SampleSpec,
    strategy: str,
    band: Optional[tuple],
    rng,
    diversity_fraction: float = DIVERSITY_FRACTION,
) -> Sequence:
    """Admissible clause counts for one draw under a sampling strategy.

    For the hard strategy this consumes one rng draw to decide whether
    the critical band or the widened diversity band applies.  The counts
    come from a memo keyed by (n, strategy, band), ``_m_choices``; an
    empty range raises after the coin, naming the bounds it chose.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == NAIVE:
        band = None  # unused
    elif band is None:
        raise _missing_band(spec.n, spec.p_int, spec.p_neg)
    choices = _m_choices(spec.n, strategy, band if band is None else tuple(band))
    ms = choices[strategy == HARD and rng.random() < diversity_fraction]
    if type(ms) is str:
        raise ValueError(ms)
    return ms


def draw_m(
    spec: SampleSpec,
    strategy: str,
    band: Optional[tuple],
    rng,
    diversity_fraction: float = DIVERSITY_FRACTION,
) -> int:
    """One clause count under ``strategy``, uniform over its candidates;
    ``band`` is the calibrated one for (n, p_int, p_neg), unused by naive.
    The memo of counts leaves its RNG calls, coin then ``randrange``, as they were."""
    ms = strategy_m_candidates(spec, strategy, band, rng, diversity_fraction)
    return ms[rng.randrange(len(ms))]
