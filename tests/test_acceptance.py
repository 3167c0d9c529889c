"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single
"ACCEPTANCE <k> PASS/FAIL: ..." line with the measured numbers.
"""

import json
import random
import statistics
import time
from fractions import Fraction

import pytest

from nlsatgen import lexicon as lexicon_mod
from nlsatgen import rcl, ruletaker
from nlsatgen.cli import main as cli_main
from nlsatgen.cnf import CnfFormula
from nlsatgen.fragments import parse_theory
from nlsatgen.pipeline import (
    DatasetConfig,
    generate_records,
    verify_dataset,
    write_dataset,
)
from nlsatgen.rcl import ground_rcl, ground_var
from nlsatgen.sampler import (
    CalibrationTable,
    SampleSpec,
    admissible_m,
    calibrate_critical,
    draw_m,
    estimate_psat,
    sample_clause,
)
from nlsatgen.solver import (
    CONTRADICTED,
    ENTAILED,
    SAT,
    check_entailment,
    solve,
    solve_bruteforce,
)

MASTER_SEED = 108
GRL_SIZES = tuple(range(5, 13))


def draw_formula(spec, m, rng) -> CnfFormula:
    """m clauses drawn from ``spec``, in order."""
    return CnfFormula(spec.n, tuple([sample_clause(spec, rng) for _ in range(m)]))


def report(criterion: int, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {criterion} {verdict}: {detail}"
    print(line)
    assert passed, line


@pytest.fixture(scope="session")
def calibration(tmp_path_factory):
    """Critical bands for n=5..12 at p_int=1, p_neg=0.5, saved to disk."""
    table = CalibrationTable()
    results = {}
    for n in GRL_SIZES:
        result = calibrate_critical(n, 1.0, 0.5, trials_per_point=500, seed=0)
        results[n] = result
        for a, p_hat, trials in result.points:
            table.add_point(n, 1.0, 0.5, a, p_hat, trials)
        table.set_band(n, 1.0, 0.5, *result.band)
    path = tmp_path_factory.mktemp("calibration") / "calibration.txt"
    table.save(path)
    return {"table": table, "results": results, "path": path}


@pytest.fixture(scope="session")
def grl_dataset(calibration, tmp_path_factory):
    """The 10,000-instance conditional-rule dataset, with generation time."""
    config = DatasetConfig(
        fragment="grl",
        sizes=GRL_SIZES,
        count_per_size=1250,
        seed=MASTER_SEED,
        strategy="hard",
    )
    started = time.perf_counter()
    records = generate_records(config, calibration["table"], jobs=1)
    elapsed = time.perf_counter() - started
    path = tmp_path_factory.mktemp("grl") / "grl.jsonl"
    write_dataset(path, config, records)
    return {"config": config, "records": records, "path": path, "seconds": elapsed}


@pytest.fixture(scope="session")
def rcl_dataset(calibration, tmp_path_factory):
    config = DatasetConfig(
        fragment="rcl",
        sizes=(10, 12),
        count_per_size=5000,
        seed=MASTER_SEED,
        strategy="hard",
    )
    records = generate_records(config, calibration["table"], jobs=1)
    path = tmp_path_factory.mktemp("rcl") / "rcl.jsonl"
    write_dataset(path, config, records)
    return {"config": config, "records": records, "path": path}


@pytest.fixture(scope="session")
def rt_dataset(calibration, tmp_path_factory):
    config = DatasetConfig(
        fragment="ruletaker",
        sizes=(5, 6, 7, 8),
        count_per_size=2500,
        seed=MASTER_SEED,
        strategy="hard",
    )
    records = generate_records(config, calibration["table"], jobs=1)
    path = tmp_path_factory.mktemp("rt") / "rt.jsonl"
    write_dataset(path, config, records)
    return {"config": config, "records": records, "path": path}


def test_criterion_1_oracle_equivalence():
    started = time.perf_counter()
    p_ints = (0.0, 0.5, 1.0)
    count = disagreements = 0
    for n in range(3, 17):
        for i in range(360):
            lo = 1 + (i % 11) * Fraction(1, 2)
            spec = SampleSpec(n=n, p_int=p_ints[i % 3], p_neg=0.5)
            ms = admissible_m(n, lo, min(lo + Fraction(1, 2), Fraction(6)))
            rng = random.Random(1_000_000 + n * 1000 + i)
            formula = draw_formula(spec, ms[rng.randrange(len(ms))], rng)
            count += 1
            if solve(formula).label != solve_bruteforce(formula).label:
                disagreements += 1
    elapsed = time.perf_counter() - started
    report(
        1,
        disagreements == 0 and count >= 5000 and elapsed < 120,
        f"{count - disagreements}/{count} labels agree with brute force "
        f"(n<=16, alpha in [1,6], p_int in {{0,0.5,1}}) in {elapsed:.1f}s (< 120s)",
    )


def test_criterion_2_phase_transition():
    started = time.perf_counter()
    three_sat = calibrate_critical(12, 1.0, 0.5, trials_per_point=500, seed=0)
    alpha_c = three_sat.alpha_c
    in_window = Fraction(7, 2) <= alpha_c <= Fraction(11, 2)
    low = estimate_psat(12, 1.0, 0.5, Fraction(2), 500, seed=0)
    mid = estimate_psat(12, 1.0, 0.5, alpha_c, 500, seed=0)
    high = estimate_psat(12, 1.0, 0.5, Fraction(7), 500, seed=0)
    left_gap = low.p_hat - mid.p_hat
    right_gap = mid.p_hat - high.p_hat
    ordered = (
        left_gap > low.halfwidth + mid.halfwidth
        and right_gap > mid.halfwidth + high.halfwidth
    )
    two_sat = calibrate_critical(12, 0.0, 0.5, trials_per_point=500, seed=0)
    crossover_left = two_sat.alpha_c < alpha_c
    elapsed = time.perf_counter() - started
    report(
        2,
        in_window and ordered and crossover_left and elapsed < 600,
        f"alpha_c={float(alpha_c):.3f} in [3.5,5.5]; "
        f"p(2)={low.p_hat:.3f} > p(alpha_c)={mid.p_hat:.3f} > p(7)={high.p_hat:.3f} "
        f"with gaps {left_gap:.3f}/{right_gap:.3f} beyond half-widths; "
        f"width-2 crossover {float(two_sat.alpha_c):.3f} < width-3 "
        f"{float(alpha_c):.3f}; {elapsed:.1f}s (< 600s)",
    )


def test_criterion_3_critical_band_balance(calibration):
    band = calibration["table"].band_for(10, 1.0, 0.5)
    spec = SampleSpec(n=10, p_int=1.0, p_neg=0.5)
    rng = random.Random(MASTER_SEED)
    satisfiable = 0
    trials = 2000
    for _ in range(trials):
        result = solve(draw_formula(spec, draw_m(spec, "hard", band, rng), rng))
        satisfiable += result.label == SAT
    fraction = satisfiable / trials
    report(
        3,
        0.4 <= fraction <= 0.6,
        f"raw sat fraction {fraction:.3f} over {trials} hard-strategy draws "
        f"at n=10 (target 0.5 +/- 0.1)",
    )


def test_criterion_4_hardness_ordering(calibration, rt_dataset):
    band = calibration["table"].band_for(10, 1.0, 0.5)
    def conflict_median(strategy, seed):
        spec = SampleSpec(n=10, p_int=1.0, p_neg=0.5)
        rng = random.Random(seed)
        conflicts = []
        for _ in range(500):
            result = solve(draw_formula(spec, draw_m(spec, strategy, band, rng), rng))
            conflicts.append(result.stats.conflicts)
        return statistics.median(conflicts)

    hard_median = conflict_median("hard", MASTER_SEED + 1)
    biased_median = conflict_median("biased", MASTER_SEED + 2)
    decisions_median = statistics.median(
        rec["stats"]["decisions"] for rec in rt_dataset["records"]
    )
    report(
        4,
        hard_median > biased_median and decisions_median == 0.0,
        f"median conflicts hard {hard_median} > biased {biased_median} "
        f"(500 each, n=10); single-entity theory median decisions "
        f"{decisions_median} == 0.0",
    )


def test_criterion_5_round_trip_integrity(grl_dataset, rcl_dataset, rt_dataset):
    counts = {}
    issue_counts = {}
    for name, ds in (
        ("grl", grl_dataset), ("rcl", rcl_dataset), ("ruletaker", rt_dataset),
    ):
        counts[name] = len(ds["records"])
        issue_counts[name] = len(verify_dataset(ds["path"]))
    report(
        5,
        all(c == 10000 for c in counts.values())
        and all(i == 0 for i in issue_counts.values()),
        "re-parsed text reproduces every stored formula and label: "
        + ", ".join(
            f"{name} {counts[name]} records / {issue_counts[name]} mismatches"
            for name in counts
        ),
    )


def test_criterion_6_grounding_correctness():
    def finite_domain_satisfiable(problem):
        n = problem.n_predicates * problem.n_constants
        clauses = [
            (const, clause)
            for clause in problem.universal_clauses
            for const in range(1, problem.n_constants + 1)
        ] + list(problem.ground_clauses)
        for bits in range(2**n):
            assignment = {v: bool(bits >> (v - 1) & 1) for v in range(1, n + 1)}
            if all(
                any(
                    assignment[ground_var(l.var, const, problem.n_predicates)]
                    != l.negated
                    for l in clause.literals
                )
                for const, clause in clauses
            ):
                return True
        return False

    rng = random.Random(MASTER_SEED)
    total = 1000
    agreements = 0
    for _ in range(total):
        problem = rcl._as_problem(rcl._draw(
            rng.choice([3, 4]),
            rng.choice([1, 2, 3]),
            rng.randint(1, 6),
            rng.randint(1, 4) + 3,
            0.5,
            rng,
        ))
        expected = SAT if finite_domain_satisfiable(problem) else "unsat"
        agreements += solve(ground_rcl(problem)).label == expected
    report(
        6,
        agreements == total,
        f"{agreements}/{total} grounded problems (predicates<=4, constants<=3) "
        f"match the finite-domain brute-force oracle",
    )


def test_criterion_7_retrofit_validity(rt_dataset):
    vocab = ruletaker.RetrofitVocab(
        lexicon_mod.default_attributes(), lexicon_mod.default_entities()
    )
    bad_rules = bad_theories = bad_labels = 0
    for rec in rt_dataset["records"]:
        theory, binding, _ = parse_theory(rec["text"], "ruletaker", vocab)
        if theory.rules and solve(CnfFormula(theory.n_vars, theory.rules)).label != SAT:
            bad_rules += 1
        formula = theory.formula()
        if solve(formula).label != SAT:
            bad_theories += 1
        conjecture = ruletaker.parse_conjecture(
            rec["conjecture_text"], vocab, binding
        )
        expected = ENTAILED if rec["label"] == "true" else CONTRADICTED
        if check_entailment(formula, conjecture) != expected:
            bad_labels += 1
    per_size = {}
    for rec in rt_dataset["records"]:
        cell = per_size.setdefault(rec["size"], {"true": 0, "false": 0})
        cell[rec["label"]] += 1
    balanced = all(cell["true"] == cell["false"] for cell in per_size.values())
    report(
        7,
        bad_rules == 0 and bad_theories == 0 and bad_labels == 0 and balanced,
        f"{len(rt_dataset['records'])} instances: {bad_rules} unsatisfiable rule "
        f"sets, {bad_theories} unsatisfiable theories, {bad_labels} label "
        f"mismatches; per-size label balance "
        + ", ".join(f"n{s} {c['true']}/{c['false']}" for s, c in sorted(per_size.items())),
    )


def test_criterion_8_worker_count_determinism(calibration, tmp_path):
    serial = tmp_path / "serial.jsonl"
    parallel = tmp_path / "parallel.jsonl"
    base = [
        "generate", "--fragment", "grl", "--sizes", "5-6", "--per-size", "200",
        "--seed", str(MASTER_SEED), "--strategy", "hard",
        "--cache", str(calibration["path"]),
    ]
    assert cli_main(base + ["--jobs", "1", "--out", str(serial)]) == 0
    assert cli_main(base + ["--jobs", "8", "--out", str(parallel)]) == 0
    identical = serial.read_bytes() == parallel.read_bytes()
    report(
        8,
        identical,
        f"--jobs 1 and --jobs 8 wrote byte-identical JSONL "
        f"({len(serial.read_bytes())} bytes, 400 records)",
    )


def test_criterion_9_generation_scale(grl_dataset):
    records = grl_dataset["records"]
    elapsed = grl_dataset["seconds"]
    cells = {}
    for rec in records:
        cells.setdefault((rec["size"], rec["label"]), 0)
        cells[(rec["size"], rec["label"])] += 1
    balanced = all(cells[(s, lab)] == 625 for s in GRL_SIZES for lab in ("sat", "unsat"))
    report(
        9,
        len(records) == 10000 and balanced and elapsed < 300,
        f"10,000 balanced hard-strategy instances over sizes 5..12 generated "
        f"in {elapsed:.1f}s on one core (< 300s)",
    )
