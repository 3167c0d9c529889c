"""Tests for dataset generation, splitting, verification, and export."""

import hashlib
import json
import os
import random
import re
import subprocess
import sys
import threading
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import pytest

from nlsatgen import grl, pipeline, rcl, ruletaker
from nlsatgen.cnf import Clause, CnfFormula, Literal, to_dimacs
from nlsatgen.fragments import (
    GRL,
    ParseError,
    _packaged_vocab,
    _parse_formula,
    reindex_formula,
    split_sentences,
)
from nlsatgen.pipeline import (
    DatasetConfig,
    DatasetError,
    GenerationStallError,
    assign_splits,
    dataset_header,
    export_dimacs_files,
    generate_candidate,
    generate_records,
    read_dataset,
    stats_report,
    verify_dataset,
    write_dataset,
)
from nlsatgen.pipeline import _largest_remainder, load_vocabulary
from nlsatgen.rng import derive_rng
from nlsatgen.ruletaker import reindex_theory, retrofit
from nlsatgen.sampler import (
    CalibrationError,
    CalibrationTable,
    SampleSpec,
    draw_m,
    sample_clause,
)
from nlsatgen.solver import _MASK_SCAN_MAX_VARS, BudgetExhaustedError

SPLITS = ("train", "dev", "test")


def naive_config(**overrides):
    base = dict(fragment="grl", sizes=(5,), count_per_size=8, seed=42, strategy="naive")
    base.update(overrides)
    return DatasetConfig(**base)


@pytest.fixture(scope="module")
def grl_dataset(tmp_path_factory):
    config = naive_config(sizes=(5, 6))
    records = generate_records(config)
    path = tmp_path_factory.mktemp("ds") / "grl.jsonl"
    write_dataset(path, config, records)
    return config, records, path


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


class TestDatasetConfig:
    def test_defaults(self):
        config = naive_config()
        assert config.splits == (Fraction(8, 10), Fraction(1, 10), Fraction(1, 10))
        assert config.balance_labels is True
        assert config.labels == ("sat", "unsat")

    def test_ruletaker_labels(self):
        config = naive_config(fragment="ruletaker")
        assert config.labels == ("true", "false")

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown fragment"):
            naive_config(fragment="prose")
        with pytest.raises(ValueError, match="unknown strategy"):
            naive_config(strategy="chaotic")
        with pytest.raises(ValueError, match="at least one size"):
            naive_config(sizes=())
        with pytest.raises(ValueError, match="sizes repeat"):
            naive_config(sizes=(5, 5))
        with pytest.raises(ValueError, match="count_per_size must be positive"):
            naive_config(count_per_size=0)
        with pytest.raises(ValueError, match="must be even"):
            naive_config(count_per_size=7)
        with pytest.raises(ValueError, match="p_int and p_neg"):
            naive_config(p_int=1.5)
        with pytest.raises(ValueError, match="splits must sum to 1"):
            naive_config(splits=(0.5, 0.1, 0.1))
        with pytest.raises(ValueError, match="too small"):
            naive_config(sizes=(2,))
        with pytest.raises(ValueError, match="sizes must be integers"):
            naive_config(sizes=(5.0, 6))

    @pytest.mark.parametrize("prob", [1.5, -3.0, float("nan")])
    def test_no_rewrite_prob_must_be_a_probability(self, prob):
        with pytest.raises(ValueError, match=r"^no_rewrite_prob must lie in \[0, 1\]"):
            naive_config(fragment="rcl", sizes=(10,), no_rewrite_prob=prob)
        for bound in (0.0, 1.0):
            assert naive_config(fragment="rcl", sizes=(10,), no_rewrite_prob=bound)

    def test_max_decisions_must_not_be_negative(self):
        with pytest.raises(ValueError, match="^max_decisions must be non-negative, got -1$"):
            naive_config(max_decisions=-1)
        assert naive_config(max_decisions=0).max_decisions == 0

    def test_odd_count_allowed_when_unbalanced(self):
        config = naive_config(count_per_size=7, balance_labels=False)
        assert config.count_per_size == 7

    def test_quantified_sizes_must_factor(self):
        with pytest.raises(ValueError, match="no predicate count in 5..8"):
            naive_config(fragment="rcl", sizes=(11,))
        with pytest.raises(ValueError, match="width-3"):
            naive_config(fragment="rcl", sizes=(10,), p_int=0.5)

    def test_header_contents(self):
        config = naive_config(sizes=(5, 6))
        header = dataset_header(config)
        assert header["kind"] == "header"
        assert header["fragment"] == "grl"
        assert header["sizes"] == [5, 6]
        assert header["splits"] == ["4/5", "1/10", "1/10"]
        assert header["balance_labels"] is True
        assert header["diversity_fraction"] == config.diversity_fraction


# ---------------------------------------------------------------------------
# Split arithmetic
# ---------------------------------------------------------------------------


class TestSplits:
    def test_largest_remainder_pins(self):
        splits = (Fraction(8, 10), Fraction(1, 10), Fraction(1, 10))
        assert _largest_remainder(1000, splits) == [800, 100, 100]
        assert _largest_remainder(3, splits) == [3, 0, 0]
        assert _largest_remainder(0, splits) == [0, 0, 0]
        thirds = (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
        assert _largest_remainder(10, thirds) == [4, 3, 3]

    def test_largest_remainder_total_preserved(self):
        splits = (Fraction(8, 10), Fraction(1, 10), Fraction(1, 10))
        for total in range(50):
            assert sum(_largest_remainder(total, splits)) == total

    def test_stratified_and_exact_on_round_cells(self):
        config = naive_config(count_per_size=1000)
        records = [
            {"size": 5, "label": "sat", "diversity": i < 30, "id": f"s{i}"}
            for i in range(500)
        ] + [
            {"size": 5, "label": "unsat", "diversity": False, "id": f"u{i}"}
            for i in range(500)
        ]
        assign_splits(config, records)
        for label in ("sat", "unsat"):
            cell = [r for r in records if r["label"] == label]
            counts = {s: sum(r["split"] == s for r in cell) for s in SPLITS}
            assert counts == {"train": 400, "dev": 50, "test": 50}

    def test_diversity_records_end_up_in_train(self):
        config = naive_config(count_per_size=1000)
        records = [
            {"size": 5, "label": "sat", "diversity": i < 30, "id": f"s{i}"}
            for i in range(500)
        ]
        assign_splits(config, records)
        assert {r["split"] for r in records if r["diversity"]} == {"train"}
        counts = {s: sum(r["split"] == s for r in records) for s in SPLITS}
        assert counts == {"train": 400, "dev": 50, "test": 50}

    def test_assignment_deterministic(self):
        config = naive_config(count_per_size=100)
        def fresh():
            return [
                {"size": 5, "label": "sat", "diversity": False, "id": f"s{i}"}
                for i in range(100)
            ]
        a, b = fresh(), fresh()
        assign_splits(config, a)
        assign_splits(config, b)
        assert [r["split"] for r in a] == [r["split"] for r in b]


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


class TestGenerateRecords:
    def test_balanced_counts_and_schema(self, grl_dataset):
        config, records, _ = grl_dataset
        assert len(records) == 16
        for size in (5, 6):
            for label in ("sat", "unsat"):
                cell = [r for r in records if r["size"] == size and r["label"] == label]
                assert len(cell) == 4
        record = records[0]
        assert record["id"] == "grl-n5-000000"
        for key in (
            "id", "fragment", "size", "seed_index", "strategy", "text",
            "n_vars", "n_clauses", "alpha", "stats", "dimacs", "label",
            "diversity", "split",
        ):
            assert key in record
        assert set(record["stats"]) == {"decisions", "conflicts", "propagations"}

    def test_deterministic(self, grl_dataset):
        config, records, _ = grl_dataset
        again = generate_records(config)
        assert json.dumps(again, sort_keys=True) == json.dumps(records, sort_keys=True)

    def test_worker_count_does_not_change_output(self, grl_dataset):
        config, records, _ = grl_dataset
        parallel = generate_records(config, jobs=2)
        assert json.dumps(parallel, sort_keys=True) == json.dumps(
            records, sort_keys=True
        )

    def test_unbalanced_natural_labels(self):
        config = naive_config(count_per_size=7, balance_labels=False)
        records = generate_records(config)
        assert len(records) == 7
        # natural draws at these sizes are mostly satisfiable
        assert sum(r["label"] == "sat" for r in records) > 3

    def test_hard_strategy_needs_calibration(self):
        config = naive_config(strategy="hard")
        with pytest.raises(CalibrationError, match="run calibrate first"):
            generate_records(config)

    def test_hard_strategy_with_manual_band(self):
        table = CalibrationTable()
        table.set_band(5, 1.0, 0.5, Fraction(4), Fraction(5))
        config = naive_config(strategy="hard", count_per_size=6)
        records = generate_records(config, table=table)
        assert len(records) == 6
        for record in records:
            in_band = Fraction(4) <= Fraction(record["alpha"]) <= Fraction(5)
            assert record["diversity"] == (not in_band)

    def test_quantified_records_carry_grounding_fields(self):
        config = naive_config(fragment="rcl", sizes=(10,), count_per_size=4, seed=3)
        records = generate_records(config)
        for record in records:
            assert record["n_vars"] * record["n_constants"] == record["n_ground_vars"]
            assert record["n_ground_vars"] == 10

    def test_entity_records_carry_conjectures(self):
        config = naive_config(fragment="ruletaker", sizes=(5,), count_per_size=4, seed=3)
        records = generate_records(config)
        assert [r["label"] for r in records] == ["true", "false", "true", "false"]
        for record in records:
            assert record["conjecture_text"].endswith(".")

    NOUNS = ("doctor", "baker", "gardener", "chemist", "sculptor")

    @pytest.mark.parametrize("fragment,sizes,lists,message", [
        ("grl", (5, 6), {"nouns": NOUNS}, "lexicon has 5 count nouns, need 6"),
        ("rcl", (10,), {"nouns": NOUNS[:4], "names": ("Alma", "Bertil")},
         "lexicon has 4 count nouns, need 5"),
        ("rcl", (10,), {"nouns": NOUNS, "names": ("Alma",)}, "lexicon has 1 proper nouns, need 2"),
        ("ruletaker", (5, 6), {"attributes": ("red", "blue", "green", "big", "round")},
         "vocabulary has 5 attributes, need 6"),
    ])
    def test_small_word_list_is_refused_before_any_candidate(
        self, tmp_path, monkeypatch, fragment, sizes, lists, message
    ):
        # checked when generation starts, so no candidate may run
        paths = {}
        for name, words in lists.items():
            path = tmp_path / f"{name}.txt"
            path.write_text("\n".join(words) + "\n")
            paths[f"{name}_path"] = str(path)

        def ran(*args, **kwargs):
            raise AssertionError("a candidate ran")

        monkeypatch.setattr(pipeline, "generate_candidate", ran)
        config = naive_config(fragment=fragment, sizes=sizes, count_per_size=2, **paths)
        with pytest.raises(DatasetError, match=f"^{message}$"):
            generate_records(config)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_stall_when_a_label_is_unreachable(self, jobs):
        # all-positive clauses are always satisfiable, so the unsat half
        # of a balanced dataset can never fill; at jobs=2 the error comes
        # back from a worker process, for whichever size stalls first
        config = naive_config(sizes=(5, 6), count_per_size=4, p_neg=0.0)
        with pytest.raises(GenerationStallError, match="looks infeasible"):
            generate_records(config, jobs=jobs)

    def test_one_size_starts_no_pool(self, monkeypatch):
        config = naive_config(count_per_size=6)
        serial = generate_records(config, jobs=1)

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started for one size")

        monkeypatch.setattr(pipeline, "multiprocessing", SimpleNamespace(Pool=no_pool))
        assert generate_records(config, jobs=4) == serial

    def test_only_a_pooled_run_imports_multiprocessing(self):
        code = (
            "import sys; import nlsatgen as nl\n"
            "config = nl.DatasetConfig('grl', (5, 6), 2, 42, strategy='naive')\n"
            "print('multiprocessing' in sys.modules)\n"
            "for jobs in (1, 2):\n"
            "    nl.generate_records(config, jobs=jobs)\n"
            "    print('multiprocessing' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
        ).stdout
        assert out.split() == ["False", "False", "True"]

    @pytest.mark.parametrize("jobs", [0, -7])
    def test_jobs_below_one_is_refused(self, jobs):
        with pytest.raises(ValueError, match=f"^jobs must be at least 1, got {jobs}$"):
            generate_records(naive_config(), None, jobs=jobs)


# ---------------------------------------------------------------------------
# Writing and reading
# ---------------------------------------------------------------------------


class TestReadWrite:
    def test_round_trip(self, grl_dataset):
        config, records, path = grl_dataset
        header, back = read_dataset(path)
        assert back == records
        assert header == json.loads(json.dumps(dataset_header(config)))

    def test_header_line_first(self, grl_dataset):
        _, _, path = grl_dataset
        first = path.read_text().splitlines()[0]
        assert json.loads(first)["kind"] == "header"

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="cannot read"):
            read_dataset(tmp_path / "missing.jsonl")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("")
        with pytest.raises(DatasetError, match="empty file"):
            read_dataset(p)

    def test_missing_header(self, tmp_path):
        p = tmp_path / "nohdr.jsonl"
        p.write_text('{"kind": "record"}\n')
        with pytest.raises(DatasetError, match="first line must be the header"):
            read_dataset(p)

    def test_unsupported_schema_version(self, tmp_path):
        p = tmp_path / "ver.jsonl"
        p.write_text('{"kind": "header", "schema_version": 99}\n{"x": 1}\n')
        with pytest.raises(DatasetError, match="schema_version 99 unsupported"):
            read_dataset(p)

    def test_bad_json_line_is_located(self, tmp_path, grl_dataset):
        config, _, _ = grl_dataset
        p = tmp_path / "bad.jsonl"
        p.write_text(json.dumps(dataset_header(config)) + "\n{oops\n")
        with pytest.raises(DatasetError, match="line 2 is not JSON"):
            read_dataset(p)

    def test_no_records(self, tmp_path, grl_dataset):
        config, _, _ = grl_dataset
        p = tmp_path / "none.jsonl"
        p.write_text(json.dumps(dataset_header(config)) + "\n")
        with pytest.raises(DatasetError, match="no instance records"):
            read_dataset(p)

    def test_failed_write_keeps_the_old_file(self, tmp_path, grl_dataset):
        config, records, src = grl_dataset
        p = tmp_path / "kept.jsonl"
        p.write_bytes(src.read_bytes())
        # the unserializable record comes after a few good ones, so the
        # write fails part way through
        with pytest.raises(TypeError):
            write_dataset(p, config, records[:3] + [{"id": object()}])
        assert p.read_bytes() == src.read_bytes()
        assert [q.name for q in tmp_path.iterdir()] == ["kept.jsonl"]

    def test_failed_calibration_save_keeps_the_old_file(self, tmp_path):
        p = tmp_path / "calibration.txt"
        table = CalibrationTable()
        table.set_band(8, 1.0, 0.5, Fraction(4), Fraction(5))
        table.save(p)
        before = p.read_bytes()
        table.points[(8, 1.0, 0.5)] = {Fraction(4): None}  # cannot be unpacked
        with pytest.raises(TypeError):
            table.save(p)
        assert p.read_bytes() == before
        assert [q.name for q in tmp_path.iterdir()] == ["calibration.txt"]


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


def rewrite(path, config, records):
    write_dataset(path, config, records)
    return path


class TestVerifyDataset:
    def test_clean_dataset_has_no_issues(self, grl_dataset):
        _, _, path = grl_dataset
        assert verify_dataset(path) == []

    def test_negative_budget_is_refused(self, grl_dataset):
        _, _, path = grl_dataset
        with pytest.raises(ValueError, match="^max_decisions must be non-negative, got -1$"):
            verify_dataset(path, max_decisions=-1)

    def test_budget_error_holds_the_issues_found_before_it(self, tmp_path):
        # a flipped label in an earlier record, and a stored formula that
        # differs in the record whose solve runs out, found before its solve
        config = naive_config(sizes=(10,), count_per_size=6, seed=1)
        bad = [dict(r) for r in generate_records(config)]
        budget = 6
        at = next(i for i, rec in enumerate(bad) if rec["stats"]["decisions"] > budget)
        assert at > 0
        bad[0]["label"] = "unsat" if bad[0]["label"] == "sat" else "sat"
        bad[at]["dimacs"] += "c\n"
        path = rewrite(tmp_path / "budget.jsonl", config, bad)
        with pytest.raises(BudgetExhaustedError) as exc:
            verify_dataset(path, max_decisions=budget)
        assert str(exc.value) == (
            f"record {bad[at]['id']}: budget exhausted: more than {budget} decisions needed"
        )
        assert [(i.record_id, i.kind) for i in exc.value.issues] == [
            (bad[0]["id"], "label"), (bad[at]["id"], "dimacs"),
        ]

    def test_flipped_label_is_caught(self, tmp_path, grl_dataset):
        config, records, _ = grl_dataset
        bad = [dict(r) for r in records]
        bad[0]["label"] = "unsat" if bad[0]["label"] == "sat" else "sat"
        path = rewrite(tmp_path / "flip.jsonl", config, bad)
        issues = verify_dataset(path)
        kinds = sorted(i.kind for i in issues)
        assert kinds == ["balance", "label"]
        label_issue = next(i for i in issues if i.kind == "label")
        assert label_issue.record_id == bad[0]["id"]
        assert "record says" in label_issue.message

    def test_tampered_formula_is_caught(self, tmp_path, grl_dataset):
        config, records, _ = grl_dataset
        bad = [dict(r) for r in records]
        lines = bad[0]["dimacs"].splitlines()
        lines[1] = "1 2 3 0"
        bad[0]["dimacs"] = "\n".join(lines) + "\n"
        path = rewrite(tmp_path / "tamper.jsonl", config, bad)
        issues = verify_dataset(path)
        assert any(
            i.kind == "dimacs" and "differs from the parsed text" in i.message
            for i in issues
        )

    def test_unparseable_text_is_caught(self, tmp_path, grl_dataset):
        config, records, _ = grl_dataset
        bad = [dict(r) for r in records]
        noun = bad[0]["text"].split()[1]
        bad[0]["text"] = bad[0]["text"].replace(noun, "zzgrobble", 1)
        path = rewrite(tmp_path / "noun.jsonl", config, bad)
        issues = verify_dataset(path)
        assert any(
            i.kind == "parse" and "unknown noun 'zzgrobble'" in i.message
            for i in issues
        )

    def test_duplicate_id_is_caught(self, tmp_path, grl_dataset):
        config, records, _ = grl_dataset
        bad = [dict(r) for r in records]
        bad[1]["id"] = bad[0]["id"]
        path = rewrite(tmp_path / "dup.jsonl", config, bad)
        assert any(i.message == "duplicate id" for i in verify_dataset(path))

    def test_imbalance_is_caught(self, tmp_path, grl_dataset):
        config, records, _ = grl_dataset
        path = rewrite(tmp_path / "imbal.jsonl", config, records[:-1])
        issues = verify_dataset(path)
        assert any(
            i.kind == "balance" and "not balanced" in i.message for i in issues
        )

    def test_balance_skipped_for_unbalanced_datasets(self, tmp_path):
        config = naive_config(count_per_size=7, balance_labels=False)
        records = generate_records(config)
        path = rewrite(tmp_path / "unbal.jsonl", config, records)
        assert verify_dataset(path) == []

    def test_entity_dataset_verifies(self, tmp_path):
        config = naive_config(fragment="ruletaker", sizes=(5,), count_per_size=4, seed=3)
        records = generate_records(config)
        path = rewrite(tmp_path / "rt.jsonl", config, records)
        assert verify_dataset(path) == []
        flipped = [dict(r) for r in records]
        flipped[0]["label"] = "false" if flipped[0]["label"] == "true" else "true"
        path2 = rewrite(tmp_path / "rtflip.jsonl", config, flipped)
        issues = verify_dataset(path2)
        assert any(i.kind == "label" for i in issues)

    def test_quantified_dataset_verifies(self, tmp_path):
        config = naive_config(fragment="rcl", sizes=(10,), count_per_size=4, seed=3)
        records = generate_records(config)
        path = rewrite(tmp_path / "rcl.jsonl", config, records)
        assert verify_dataset(path) == []
        bad = [dict(r) for r in records]
        bad[0]["n_ground_vars"] = 99
        path2 = rewrite(tmp_path / "rclbad.jsonl", config, bad)
        assert any("n_ground_vars" in i.message for i in verify_dataset(path2))


# One small naive dataset per fragment; each tamper edits its first record.
VERIFY_CONFIGS = {
    "grl": dict(fragment="grl", sizes=(5,), count_per_size=4, seed=42),
    "rcl": dict(fragment="rcl", sizes=(10,), count_per_size=4, seed=3),
    "ruletaker": dict(fragment="ruletaker", sizes=(5,), count_per_size=4, seed=3),
}


def _flip_label(rec):
    rec["label"] = {"sat": "unsat", "unsat": "sat", "true": "false", "false": "true"}[
        rec["label"]
    ]


def _swap_dimacs_clause(rec):
    lines = rec["dimacs"].splitlines()
    lines[1] = "1 2 3 0"
    rec["dimacs"] = "\n".join(lines) + "\n"


def _unknown_noun(rec):
    noun = rec["text"].split()[1]
    rec["text"] = rec["text"].replace(noun, "zzgrobble", 1)


def _insert(after, words):
    def tamper(rec):
        rec["text"] = rec["text"].replace(f" {after} ", f" {after} {words} ", 1)

    return tamper


def _repeat_fact(rec):
    # the conjecture is a fact sentence about the theory's entity
    rec["text"] += f" {rec['conjecture_text']} {rec['conjecture_text']}"


def _foreign_attribute(rec):
    from nlsatgen.lexicon import default_attributes

    words = set(rec["text"].split())
    unused = next(w for w in default_attributes() if w not in words)
    *head, _ = rec["conjecture_text"][:-1].split()
    rec["conjecture_text"] = " ".join(head + [unused]) + "."


VERIFY_ISSUE_TABLE = [
    ("grl", "dimacs", _swap_dimacs_clause, [
        "grl-n5-000000: dimacs: stored formula differs from the parsed text",
    ]),
    ("grl", "label", _flip_label, [
        "grl-n5-000000: label: formula is sat, record says 'unsat'",
        "grl-n5: balance: labels are not balanced: {'sat': 1, 'unsat': 3}",
    ]),
    ("grl", "n_vars", lambda rec: rec.update(n_vars=6), [
        "grl-n5-000000: field: n_vars 6 != 5",
    ]),
    ("grl", "n_clauses", lambda rec: rec.update(n_clauses=99), [
        "grl-n5-000000: field: n_clauses 99 != 23",
    ]),
    ("grl", "alpha", lambda rec: rec.update(alpha="1/2"), [
        "grl-n5-000000: field: alpha '1/2' != '23/5'",
    ]),
    ("grl", "unknown noun", _unknown_noun, [
        "grl-n5-000000: parse: sentence 1, chars 3-12: unknown noun 'zzgrobble'",
    ]),
    ("grl", "lowercase if", lambda rec: rec.update(text="if" + rec["text"][2:]), [
        "grl-n5-000000: parse: sentence 1, chars 0-2: expected 'If', got 'if'",
    ]),
    ("grl", "two-word consequent", _insert("then", "tasty"), [
        "grl-n5-000000: parse: sentence 1, chars 29-43: expected an optionally negated noun",
    ]),
    ("grl", "double negation", _insert("and", "no no"), [
        "grl-n5-000000: parse: sentence 1, chars 20-29: expected an optionally negated noun",
    ]),
    ("rcl", "unknown noun", _unknown_noun, [
        "rcl-n10-000000: parse: sentence 1, chars 6-15: unknown noun 'zzgrobble'",
    ]),
    ("rcl", "n_ground_vars", lambda rec: rec.update(n_ground_vars=99), [
        "rcl-n10-000000: field: n_ground_vars 99 != 10",
    ]),
    ("rcl", "n_constants", lambda rec: rec.update(n_constants=99), [
        "rcl-n10-000000: field: n_constants 99 != 2",
    ]),
    ("rcl", "label", _flip_label, [
        "rcl-n10-000000: label: formula is sat, record says 'unsat'",
        "rcl-n10: balance: labels are not balanced: {'sat': 1, 'unsat': 3}",
    ]),
    ("ruletaker", "label", _flip_label, [
        "ruletaker-n5-000000: label: conjecture is entailed, record says 'false'",
        "ruletaker-n5: balance: labels are not balanced: {'true': 1, 'false': 3}",
    ]),
    ("ruletaker", "repeated fact", _repeat_fact, [
        "ruletaker-n5-000000: parse: facts repeat or contradict on variable 5",
    ]),
    ("ruletaker", "foreign attribute", _foreign_attribute, [
        "ruletaker-n5-000000: parse: conjecture: sentence 1: "
        "conjecture mentions an attribute the theory does not",
    ]),
]


@pytest.fixture(scope="module")
def verify_datasets():
    made = {}
    for fragment, fields in VERIFY_CONFIGS.items():
        config = naive_config(**fields)
        made[fragment] = (config, generate_records(config))
    return made


@pytest.mark.parametrize(
    "fragment,tamper,expected",
    [(frag, tamper, expected) for frag, _, tamper, expected in VERIFY_ISSUE_TABLE],
    ids=[f"{frag}-{what}" for frag, what, _, _ in VERIFY_ISSUE_TABLE],
)
def test_verify_reports_each_tampering_exactly(tmp_path, verify_datasets, fragment, tamper, expected):
    config, records = verify_datasets[fragment]
    bad = [dict(r) for r in records]
    tamper(bad[0])
    path = rewrite(tmp_path / "tampered.jsonl", config, bad)
    assert [str(issue) for issue in verify_dataset(path)] == expected


def _other_fragment(rec):
    # every other field is broken too: none of those checks may run
    _flip_label(rec)
    rec.update(fragment="rcl", split="holdout", seed_index=-1)
    del rec["dimacs"]


# Record-level issues that no other verify test reaches, one tampering
# of the first record each.
VERIFY_FIELD_TABLE = [
    ("grl", "fragment differs", _other_fragment, [
        "grl-n5-000000: field: fragment differs from header",
        "grl-n5: balance: labels are not balanced: {'sat': 1, 'unsat': 2}",
    ]),
    ("grl", "bad split", lambda rec: rec.update(split="holdout"), [
        "grl-n5-000000: field: bad split 'holdout'",
    ]),
    ("grl", "missing dimacs", lambda rec: rec.pop("dimacs"), [
        "grl-n5-000000: field: missing dimacs",
    ]),
    ("ruletaker", "missing conjecture_text", lambda rec: rec.pop("conjecture_text"), [
        "ruletaker-n5-000000: field: missing conjecture_text",
    ]),
    ("ruletaker", "unknown label", lambda rec: rec.update(label="maybe"), [
        "ruletaker-n5-000000: label: unknown label 'maybe'",
        "ruletaker-n5: balance: labels are not balanced: {'true': 1, 'false': 2}",
    ]),
]


@pytest.mark.parametrize(
    "fragment,tamper,expected",
    [(frag, tamper, expected) for frag, _, tamper, expected in VERIFY_FIELD_TABLE],
    ids=[f"{frag}-{what}" for frag, what, _, _ in VERIFY_FIELD_TABLE],
)
def test_verify_reports_each_field_issue_exactly(tmp_path, verify_datasets, fragment, tamper, expected):
    config, records = verify_datasets[fragment]
    bad = [dict(r) for r in records]
    tamper(bad[0])
    path = rewrite(tmp_path / "tampered.jsonl", config, bad)
    assert [str(issue) for issue in verify_dataset(path)] == expected


def _last_word(word):
    def tamper(rec):
        rec["text"] = rec["text"][:-1].rsplit(" ", 1)[0] + f" {word}."

    return tamper


def _nth_replace(old, new, n):
    """Replace the n-th occurrence of ``old`` (0-based, negative from the end)."""
    def tamper(rec):
        parts = rec["text"].split(old)
        k = n % (len(parts) - 1)
        rec["text"] = old.join(parts[: k + 1]) + new + old.join(parts[k + 1 :])

    return tamper


# Strict parse errors past the first sentence and past an atom's first
# occurrence, one tampering per record.  A doubled space is read by the
# grl walker, so it is no issue.
VERIFY_PARSE_TAMPERINGS = {
    "grl": ([
        _last_word("zzgrobble"),
        _nth_replace(" then ", " then not not ", 3),
        _nth_replace(" no ", " not ", 4),
        _nth_replace(" and ", "  and ", 2),
    ], [
        "grl-n5-000000: parse: sentence 23, chars 35-44: unknown noun 'zzgrobble'",
        "grl-n5-000001: parse: sentence 4, chars 31-45: expected an optionally negated noun",
        "grl-n5-000004: parse: sentence 3, chars 3-13: expected an optionally negated noun",
    ]),
    "rcl": ([
        _nth_replace(" a ", " an ", -1),
        _nth_replace(" a ", " an ", 0),
        _last_word("zzgrobble"),
        _nth_replace(" an ", " a ", -1),
    ], [
        "rcl-n10-000000: parse: sentence 20, chars 39-49: "
        "article mismatch: expected 'a' before 'dentist'",
        "rcl-n10-000001: parse: sentence 1, chars 21-35: "
        "article mismatch: expected 'a' before 'referee'",
        "rcl-n10-000005: parse: sentence 27, chars 45-54: unknown noun 'zzgrobble'",
        "rcl-n10-000010: parse: sentence 29, chars 8-15: "
        "article mismatch: expected 'an' before 'usher'",
    ]),
}


@pytest.mark.parametrize("fragment", sorted(VERIFY_PARSE_TAMPERINGS))
def test_verify_reports_parse_tamperings_anywhere_in_the_text(tmp_path, verify_datasets, fragment):
    config, records = verify_datasets[fragment]
    tampers, expected = VERIFY_PARSE_TAMPERINGS[fragment]
    bad = [dict(r) for r in records]
    for rec, tamper in zip(bad, tampers):
        tamper(rec)
    path = rewrite(tmp_path / "tampered.jsonl", config, bad)
    assert [str(issue) for issue in verify_dataset(path)] == expected


def test_verify_reports_a_newline_before_an_rcl_period(tmp_path, verify_datasets):
    config, records = verify_datasets["rcl"]
    bad = [dict(r) for r in records]
    text = bad[1]["text"]
    cut = text.index(".")
    bad[1]["text"] = text[:cut] + "\n" + text[cut:]
    path = rewrite(tmp_path / "tampered.jsonl", config, bad)
    sentence = text[:cut] + "\n."
    assert [str(issue) for issue in verify_dataset(path)] == [
        f"{bad[1]['id']}: parse: sentence 1: "
        f"sentence does not match the fragment grammar: {sentence!r}"
    ]


# The fields the text cannot show: the id is built from fragment, size
# and seed_index, the strategy is the header's, and only a hard record
# may be a diversity draw.
VERIFY_ORIGIN_TABLE = [
    ("grl", "seed_index elsewhere", lambda rec: rec.update(seed_index=999), [
        "grl-n5-000000: field: id 'grl-n5-000000' != 'grl-n5-000999'",
    ]),
    ("grl", "negative seed_index", lambda rec: rec.update(seed_index=-1), [
        "grl-n5-000000: field: bad seed_index -1",
    ]),
    ("grl", "string seed_index", lambda rec: rec.update(seed_index="0"), [
        "grl-n5-000000: field: bad seed_index '0'",
    ]),
    ("grl", "bool seed_index", lambda rec: rec.update(seed_index=False), [
        "grl-n5-000000: field: bad seed_index False",
    ]),
    ("grl", "missing seed_index", lambda rec: rec.pop("seed_index"), [
        "grl-n5-000000: field: bad seed_index None",
    ]),
    ("rcl", "renamed id", lambda rec: rec.update(id="rcl-n10-999999"), [
        "rcl-n10-999999: field: id 'rcl-n10-999999' != 'rcl-n10-000000'",
    ]),
    ("ruletaker", "missing id", lambda rec: rec.pop("id"), [
        "<missing id>: field: id None != 'ruletaker-n5-000000'",
    ]),
    ("grl", "strategy", lambda rec: rec.update(strategy="hard"), [
        "grl-n5-000000: field: strategy 'hard' != header's 'naive'",
    ]),
    ("rcl", "missing strategy", lambda rec: rec.pop("strategy"), [
        "rcl-n10-000000: field: strategy None != header's 'naive'",
    ]),
    ("grl", "string diversity", lambda rec: rec.update(diversity="yes"), [
        "grl-n5-000000: field: bad diversity 'yes' for strategy 'naive'",
    ]),
    ("ruletaker", "diversity in a naive dataset", lambda rec: rec.update(diversity=True), [
        "ruletaker-n5-000000: field: bad diversity True for strategy 'naive'",
    ]),
    ("ruletaker", "missing diversity", lambda rec: rec.pop("diversity"), [
        "ruletaker-n5-000000: field: bad diversity None for strategy 'naive'",
    ]),
]


@pytest.mark.parametrize(
    "fragment,tamper,expected",
    [(frag, tamper, expected) for frag, _, tamper, expected in VERIFY_ORIGIN_TABLE],
    ids=[f"{frag}-{what}" for frag, what, _, _ in VERIFY_ORIGIN_TABLE],
)
def test_verify_checks_record_origin(tmp_path, verify_datasets, fragment, tamper, expected):
    config, records = verify_datasets[fragment]
    bad = [dict(r) for r in records]
    tamper(bad[0])
    path = rewrite(tmp_path / "origin.jsonl", config, bad)
    assert [str(issue) for issue in verify_dataset(path)] == expected


def test_verify_checks_the_strategy_of_a_hard_dataset(tmp_path):
    table = CalibrationTable()
    table.set_band(5, 1.0, 0.5, Fraction(4), Fraction(5))
    config = naive_config(strategy="hard", count_per_size=6, diversity_fraction=0.5)
    records = generate_records(config, table=table)
    assert any(r["diversity"] for r in records)  # a hard diversity draw verifies
    assert verify_dataset(rewrite(tmp_path / "hard.jsonl", config, records)) == []
    bad = [dict(r) for r in records]
    bad[0]["strategy"] = "naive"
    path = rewrite(tmp_path / "mixed.jsonl", config, bad)
    assert [str(issue) for issue in verify_dataset(path)] == [
        f"{bad[0]['id']}: field: strategy 'naive' != header's 'hard'",
    ]


# A ruletaker record's alpha is m/n_vars for the m >= n_clauses clauses
# retrofit drew; the first record here has 22 clauses over 5 variables.
# (The third, 11/5 over 10 clauses, shows m may exceed the clause count:
# retrofit drops repeated facts.)
RT_ALPHA_TABLE = [
    ("1/2", "ruletaker-n5-000000: field: alpha '1/2' is not m/5 with m >= 22"),
    ("21/5", "ruletaker-n5-000000: field: alpha '21/5' is not m/5 with m >= 22"),
    ("44/10", "ruletaker-n5-000000: field: alpha '44/10' is not m/5 with m >= 22"),
    (4.4, "ruletaker-n5-000000: field: alpha 4.4 is not m/5 with m >= 22"),
    (None, "ruletaker-n5-000000: field: alpha None is not m/5 with m >= 22"),
]


@pytest.mark.parametrize(
    "alpha,expected", RT_ALPHA_TABLE,
    ids=["m not an integer", "m below the clauses", "not canonical", "float", "missing"],
)
def test_verify_checks_ruletaker_alpha(tmp_path, verify_datasets, alpha, expected):
    config, records = verify_datasets["ruletaker"]
    bad = [dict(r) for r in records]
    bad[0]["alpha"] = alpha
    path = rewrite(tmp_path / "alpha.jsonl", config, bad)
    assert [str(issue) for issue in verify_dataset(path)] == [expected]


# Counts must be ints: JSON keeps 5.0 apart from 5, and 5.0 == 5 in Python.
def _float_stat(key):
    def tamper(rec):
        rec["stats"] = dict(rec["stats"], **{key: float(rec["stats"][key])})

    return tamper


VERIFY_INT_TABLE = [
    ("grl", "n_vars", lambda rec: rec.update(n_vars=5.0), [
        "grl-n5-000000: field: n_vars 5.0 != 5",
    ]),
    ("grl", "n_clauses", lambda rec: rec.update(n_clauses=23.0), [
        "grl-n5-000000: field: n_clauses 23.0 != 23",
    ]),
    ("grl", "stats", _float_stat("decisions"), [
        "grl-n5-000000: field: stats {'conflicts': 1, 'decisions': 2.0, 'propagations': 5}"
        " != {'decisions': 2, 'conflicts': 1, 'propagations': 5}",
    ]),
    ("rcl", "n_vars", lambda rec: rec.update(n_vars=5.0), [
        "rcl-n10-000000: field: n_vars 5.0 != 5",
    ]),
    ("rcl", "n_ground_vars", lambda rec: rec.update(n_ground_vars=10.0), [
        "rcl-n10-000000: field: n_ground_vars 10.0 != 10",
    ]),
    ("rcl", "n_constants", lambda rec: rec.update(n_constants=2.0), [
        "rcl-n10-000000: field: n_constants 2.0 != 2",
    ]),
    ("rcl", "stats", _float_stat("conflicts"), [
        "rcl-n10-000000: field: stats {'conflicts': 1.0, 'decisions': 6, 'propagations': 5}"
        " != {'decisions': 6, 'conflicts': 1, 'propagations': 5}",
    ]),
    ("ruletaker", "n_clauses", lambda rec: rec.update(n_clauses=22.0), [
        "ruletaker-n5-000000: field: n_clauses 22.0 != 22",
    ]),
    ("ruletaker", "stats", _float_stat("propagations"), [
        "ruletaker-n5-000000: field: stats {'conflicts': 1, 'decisions': 0, 'propagations': 5.0}"
        " != {'decisions': 0, 'conflicts': 1, 'propagations': 5}",
    ]),
]


@pytest.mark.parametrize(
    "fragment,tamper,expected",
    [(frag, tamper, expected) for frag, _, tamper, expected in VERIFY_INT_TABLE],
    ids=[f"{frag}-{what}" for frag, what, _, _ in VERIFY_INT_TABLE],
)
def test_verify_requires_int_counts(tmp_path, verify_datasets, fragment, tamper, expected):
    config, records = verify_datasets[fragment]
    bad = [dict(r) for r in records]
    tamper(bad[0])
    path = rewrite(tmp_path / "floats.jsonl", config, bad)
    assert [str(issue) for issue in verify_dataset(path)] == expected


# The stored stats, as read back (keys sorted), and the re-derived ones.
VERIFY_STATS = {
    "grl": ("{'conflicts': 1, 'decisions': 3, 'propagations': 5}",
            "{'decisions': 2, 'conflicts': 1, 'propagations': 5}"),
    "rcl": ("{'conflicts': 1, 'decisions': 7, 'propagations': 5}",
            "{'decisions': 6, 'conflicts': 1, 'propagations': 5}"),
    "ruletaker": ("{'conflicts': 1, 'decisions': 1, 'propagations': 5}",
                  "{'decisions': 0, 'conflicts': 1, 'propagations': 5}"),
}


@pytest.mark.parametrize("fragment", sorted(VERIFY_CONFIGS))
def test_verify_checks_stats_against_its_own_solve(tmp_path, verify_datasets, fragment):
    # the label solve for grl and rcl, the refuting solve for ruletaker
    config, records = verify_datasets[fragment]
    bad = [dict(r) for r in records]
    bad[0]["stats"] = dict(bad[0]["stats"], decisions=bad[0]["stats"]["decisions"] + 1)
    path = rewrite(tmp_path / "stats.jsonl", config, bad)
    stored, solved = VERIFY_STATS[fragment]
    assert [str(issue) for issue in verify_dataset(path)] == [
        f"{bad[0]['id']}: field: stats {stored} != {solved}"
    ]


@pytest.mark.parametrize("fragment", sorted(VERIFY_CONFIGS))
def test_verify_builds_no_clause_objects(tmp_path, monkeypatch, verify_datasets, fragment):
    # parsing, DIMACS, labelling and entailment all stay on signed ints
    config, records = verify_datasets[fragment]
    path = rewrite(tmp_path / "clean.jsonl", config, records)

    def built(*args, **kwargs):
        raise AssertionError("a clause object was built")

    monkeypatch.setattr(Clause, "__post_init__", built)
    monkeypatch.setattr(CnfFormula, "__post_init__", built)
    monkeypatch.setattr(Literal, "__new__", built)
    assert verify_dataset(path) == []


# ---------------------------------------------------------------------------
# Reporting and export
# ---------------------------------------------------------------------------


class TestStatsAndExport:
    def test_stats_report_shape(self, grl_dataset):
        _, records, path = grl_dataset
        report = stats_report(path)
        lines = report.splitlines()
        assert lines[0] == "fragment: grl"
        assert lines[1] == "strategy: naive"
        assert lines[2] == f"instances: {len(records)}"
        assert lines[3].startswith("labels: sat 8, unsat 8")
        assert lines[4].startswith("splits: train ")
        for line in lines[5:]:
            assert line.startswith("size ")
            assert "labels 4/4" in line
            assert "decisions mean" in line and "median" in line
        assert report.endswith("\n")

    def test_export_dimacs_files(self, tmp_path, grl_dataset):
        _, records, path = grl_dataset
        out = tmp_path / "cnfs"
        assert export_dimacs_files(path, out) == len(records)
        names = sorted(p.name for p in out.iterdir())
        assert names[0] == "grl-n5-000000.cnf"
        assert len(names) == len(records)
        first = (out / "grl-n5-000000.cnf").read_text()
        assert first == records[0]["dimacs"]

    def test_export_refuses_unsafe_ids(self, tmp_path, grl_dataset):
        config, records, _ = grl_dataset
        bad = [dict(r) for r in records]
        bad[0]["id"] = "../evil"
        path = rewrite(tmp_path / "unsafe.jsonl", config, bad)
        with pytest.raises(DatasetError, match="unsafe record id"):
            export_dimacs_files(path, tmp_path / "out")

    def test_export_refuses_an_empty_id(self, tmp_path, grl_dataset):
        # an empty id would be written as the hidden file ".cnf"
        config, records, _ = grl_dataset
        bad = [dict(r) for r in records]
        bad[-1]["id"] = ""
        path = rewrite(tmp_path / "empty.jsonl", config, bad)
        with pytest.raises(DatasetError, match="unsafe record id ''"):
            export_dimacs_files(path, tmp_path / "out")
        assert not (tmp_path / "out").exists()  # refused before any file is written


# ---------------------------------------------------------------------------
# Golden digests: the dataset bytes for a fixed configuration
# ---------------------------------------------------------------------------

# Bands of bench/data/calibration.txt at (p_int=1.0, p_neg=0.5).  The
# biased strategy gets a narrow band instead, so that both of its ranges,
# [1/2, lo/2] and [2*hi, 8], are non-empty.
BIASED_BAND = (Fraction(2), Fraction(3))
GOLDEN_BANDS = {
    6: (Fraction(31, 6), Fraction(35, 6)),
    8: (Fraction(39, 8), Fraction(11, 2)),
    10: (Fraction(47, 10), Fraction(26, 5)),
    12: (Fraction(19, 4), Fraction(61, 12)),
}

# sha256 of the written file; any change to sampling, labelling,
# rendering or the record layout moves these.
GOLDEN_DIGESTS = {
    ("grl", (8, 10), "hard"): "706fc8d492b9fc698337bd8f50a1e829401bbef4d3d6c21bf550b3e231dd3da4",
    ("rcl", (10, 12), "hard"): "97ca4b1a035226ca6db6654292066bf23e9fb9d8baac5e90860f2ee3a5efc3bb",
    ("ruletaker", (6, 8), "hard"): "ac105b5a3be017202d5312376faf3ea7336eeaf55bf18df130a33cdaab45dde4",
    ("grl", (8, 10), "biased"): "6de1b73a0c4683118afcacefcaa8f18d79a87be5f5ea2b4879aa3f8d0fb019cd",
    ("grl", (8, 10), "naive"): "ba117d01940544326ed70615498c3729bfbc0fcca21ec741dbc5d13c7e732ab3",
}


# At p_int=0.5 about half the clauses have two literals, the width only
# grl renders ("If no carrot then not steak."); naive needs no band.
WIDTH2_GRL_DIGEST = "25d4646d807e2cb210fe78abc86bd21fbc55054cc41cb6d241acf423a55e19e2"


# Above 21 variables random.sample tracks its picks in a set, not a pool
# list; every other digest is at 12 variables or fewer.
SET_BRANCH_GRL_DIGEST = "4110c0e275297138210c8999ec3f8a51049fc74887c2bcf2279483d123b910e3"


# Unbalanced, each viable draw is taken under its natural label; for
# ruletaker that is the one path where a draw offers both labels and its
# own decides.  The odd count means no pairing of labels is assumed.
UNBALANCED_RT_DIGEST = "7bb38ef32ec1389e61b56714908142b14a757cd6bcceb1cd68425e7d8bf2d50c"


# Ruletaker paths the hard digest misses: sizes 17 and 18 sit either side
# of the truth-table limit, so retrofit decides them by mask and by DPLL;
# p_int=0.5 draws two-literal clauses and redraws their tautologies; and
# the biased band's far ratios reject nearly every draw in retrofit.
RT_PATH_DIGESTS = {
    ((17, 18), "naive", 1.0): "895c5b5742e4d564f4dff93ebaa9cab1e6514c9eadffbe91d77168f0af1e723f",
    ((6, 8), "naive", 0.5): "405d4bc541ba21351e9214b1ad74c98ce19af2e790b0fd3ccc4122f24411ec40",
    ((6, 8), "biased", 1.0): "ffa1bd9a46505c79e03c449f3bef9513e103064af811b5bc14aedc3b25ecd1f1",
}


def _golden_config(fragment, sizes, strategy, **settings) -> tuple:
    """(config, records) of a golden digest's dataset."""
    table = CalibrationTable()
    for n, band in GOLDEN_BANDS.items():
        table.set_band(n, 1.0, 0.5, *(BIASED_BAND if strategy == "biased" else band))
    config = DatasetConfig(
        fragment=fragment, sizes=sizes, seed=108, strategy=strategy,
        **{"count_per_size": 40, **settings},
    )
    return config, generate_records(config, table)


def _golden_digest(tmp_path, fragment, sizes, strategy, **settings) -> str:
    path = tmp_path / "golden.jsonl"
    write_dataset(path, *_golden_config(fragment, sizes, strategy, **settings))
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("fragment,sizes,strategy", sorted(GOLDEN_DIGESTS))
def test_golden_dataset_digest(tmp_path, fragment, sizes, strategy):
    digest = _golden_digest(tmp_path, fragment, sizes, strategy)
    assert digest == GOLDEN_DIGESTS[(fragment, sizes, strategy)]


def test_golden_width2_grl_digest(tmp_path):
    digest = _golden_digest(tmp_path, "grl", (8, 10), "naive", p_int=0.5)
    assert digest == WIDTH2_GRL_DIGEST


def test_golden_set_branch_grl_digest(tmp_path):
    assert _golden_digest(tmp_path, "grl", (22, 24), "naive") == SET_BRANCH_GRL_DIGEST


def test_golden_unbalanced_ruletaker_digest(tmp_path):
    digest = _golden_digest(
        tmp_path, "ruletaker", (6, 8), "hard", count_per_size=41, balance_labels=False
    )
    assert digest == UNBALANCED_RT_DIGEST


@pytest.mark.parametrize("sizes,strategy,p_int", sorted(RT_PATH_DIGESTS))
def test_golden_ruletaker_path_digest(tmp_path, sizes, strategy, p_int):
    digest = _golden_digest(tmp_path, "ruletaker", sizes, strategy, p_int=p_int)
    assert digest == RT_PATH_DIGESTS[(sizes, strategy, p_int)]


def _first_noun(sentence: str) -> str:
    words = sentence.split()
    return words[2] if words[1] == "no" else words[1]


# Edits of one grl sentence: most make the walker report an error, and
# the whitespace ones are read by the walker though the match refuses them.
GRL_SENTENCE_MUTATIONS = (
    lambda s: s[:-1].rsplit(" ", 1)[0] + " zzgrobble.",           # unknown noun
    lambda s: s[:-1].rsplit(" ", 1)[0] + f" {_first_noun(s)}.",   # repeated noun
    lambda s: s.replace(" no ", " ~ ").replace(" not ", " no ").replace(" ~ ", " not "),
    lambda s: "i" + s[1:],                                        # lowercase if
    lambda s: s.replace(" ", "  ", 1),                            # double space
    lambda s: s.replace(" ", "\t", 1),                            # tab
    lambda s: s[:-1] + " .",                                      # space before the period
    lambda s: s[:-1] + " tasty.",                                 # two-word consequent
    lambda s: s + ".",                                            # extra period
    lambda s: s.replace(" then ", " ", 1),                        # missing then
    lambda s: s.replace(" then ", f" and {_first_noun(s)}s then ", 1),  # plural
)

GRL_GOLDEN_CONFIGS = [key + ({},) for key in sorted(GOLDEN_DIGESTS) if key[0] == "grl"] + [
    ("grl", (8, 10), "naive", {"p_int": 0.5}),
    ("grl", (22, 24), "naive", {}),
]


def _grl_outcome(sentences, lexicon):
    try:
        return grl._parse(sentences, lexicon, True)
    except ParseError as exc:
        return exc.sentence_index, exc.span, str(exc)


@pytest.mark.parametrize("fragment,sizes,strategy,settings", GRL_GOLDEN_CONFIGS)
def test_grl_compiled_match_agrees_with_walker_on_golden_texts(
    fragment, sizes, strategy, settings
):
    # every record text, then one mutated sentence per record and
    # mutation, read by the walker: some mutations still parse and
    # others are errors (the scan reads every golden text in
    # test_scan_reads_every_bench_and_golden_text, and agrees with the
    # core on edited texts in tests/test_fragments.py)
    _, records = _golden_config(fragment, sizes, strategy, **settings)
    lexicon = _packaged_vocab(GRL)
    texts = []
    for i, rec in enumerate(records):
        sentences = split_sentences(rec["text"])
        texts.append(sentences)
        for j, mutate in enumerate(GRL_SENTENCE_MUTATIONS):
            k = (i + j) % len(sentences)
            texts.append(sentences[:k] + [mutate(sentences[k])] + sentences[k + 1 :])
    outcomes = [_grl_outcome(t, lexicon) for t in texts]
    errors = [out for out in outcomes if isinstance(out[0], int)]
    assert len(records) < len(errors) < len(texts) - len(records)


def _swap_article(s: str) -> str:
    """The first article swapped: rcl's "a" and "an", ruletaker's "the" for "a"."""
    swap = {"a": "an", "an": "a", "the": "a", "The": "A"}
    return re.sub(r"\b(an?|the|The)\b", lambda m: swap[m.group(1)], s, count=1)


def _content_words(s: str, vocab) -> list:
    """The positions in ``s.split()`` of the sentence's lexicon words."""
    known = set(vocab.attributes if hasattr(vocab, "attributes") else vocab.count_nouns)
    return [i for i, w in enumerate(s[:-1].split()) if w in known]


def _changed_entity(s: str, vocab) -> str:
    """The first entity word made the next one in the vocabulary: the
    entity (ruletaker), the name of a ground sentence or the first noun
    of a universal one (rcl)."""
    words = s[:-1].split(" ")
    if hasattr(vocab, "entities"):
        pool = vocab.entities
    elif words[0] in vocab.proper_nouns:
        pool = vocab.proper_nouns
    else:
        pool = vocab.count_nouns
    at = next((i for i, w in enumerate(words) if w in pool), None)
    if at is not None:
        words[at] = pool[(pool.index(words[at]) + 1) % len(pool)]
    return " ".join(words) + "."


def _repeated_word(s: str, vocab) -> str:
    """The last lexicon word made the first one; a sentence with one says it twice."""
    words = s[:-1].split(" ")
    at = _content_words(s, vocab)
    if len(at) > 1:
        words[at[-1]] = words[at[0]]
    elif at:
        words.insert(at[0], words[at[0]])
    return " ".join(words) + "."


def _at(mutate):
    """The text edit that applies a one-sentence edit to sentence k."""
    return lambda sentences, k, vocab: (
        sentences[:k] + [mutate(sentences[k], vocab)] + sentences[k + 1 :]
    )


def _moved_last(sentences, k, vocab):
    """The last sentence (a ground sentence or a fact, when there is one) moved to k."""
    return sentences[:k] + sentences[-1:] + sentences[k:-1]


# Edits of an rcl or ruletaker text at sentence k.  Each maps
# (sentences, k, vocab) to the edited sentence list.
SENTENCE_MUTATIONS = (
    _at(lambda s, v: s.replace(" ", "  ", 1)),                         # doubled space
    _at(lambda s, v: s + " "),                                         # trailing space
    _at(lambda s, v: s[:-1] + " ."),                                   # space before the period
    _at(lambda s, v: s.replace(" ", "\t", 1)),                         # tab
    _at(lambda s, v: _swap_article(s)),                                # swapped article
    _at(lambda s, v: s[:-1].rsplit(" ", 1)[0] + " zzgrobble."),        # unknown word
    _at(lambda s, v: s[0].lower() + s[1:]),                            # lowercase "if"
    _at(_changed_entity),                                              # changed entity
    _at(_repeated_word),                                               # repeated attribute
    _moved_last,                                                       # fact before a rule
    lambda sentences, k, vocab: sentences + sentences[-1:],            # last sentence twice
)

# The golden configs of each fragment, with a sha256 of what
# ``_parse_formula`` gives on every record text and every mutated text
# (see ``_formula_outcomes``).  Any change to what strict parsing accepts,
# returns or words as an error moves these.
FORMULA_OUTCOME_DIGESTS = {
    ("rcl", (10, 12), "hard", ()):
        "3b2edaaef2721ad6b3a509de97b8da5e18900ee4d2fa9db04a502ccfd3806d2a",
    ("ruletaker", (6, 8), "hard", ()):
        "0970163ea038802087490f512740593c23ac88bf3909d1778c50de9704207945",
    ("ruletaker", (6, 8), "hard", (("balance_labels", False), ("count_per_size", 41))):
        "783c89a90d897771d709868bb32bae988d4882cc9eb90acbd17be429ed7ad809",
    ("ruletaker", (6, 8), "biased", ()):
        "7dadc2e5fce3fe811a84eb0922ff5792407e2deb43ae0caef6b377f641b91fb7",
    ("ruletaker", (6, 8), "naive", (("p_int", 0.5),)):
        "3b5e636ec6c8461a4a9f430fbb5504c8b0fa6f63654d2c3545f12bcd644dcec0",
    ("ruletaker", (17, 18), "naive", ()):
        "670bf84f7b1e1eeca7f3fde223039aa6103cfb486cfd712de69ff20b7edb641d",
}


def _formula_outcome(text: str, fragment: str, vocab):
    """``_parse_formula``'s result, or (sentence index, span, message)."""
    try:
        return _parse_formula(text, fragment, vocab, strict=True)
    except ParseError as exc:
        return exc.sentence_index, exc.span, str(exc)
    except ValueError as exc:
        return None, None, str(exc)


def _formula_outcomes(fragment, sizes, strategy, settings) -> tuple:
    """(outcomes, record count): the outcome of every golden record text,
    then of one edit per record and mutation, each text joined as the
    renderer joins it."""
    _, records = _golden_config(fragment, sizes, strategy, **dict(settings))
    vocab = _packaged_vocab(fragment)
    texts = []
    for i, rec in enumerate(records):
        texts.append(rec["text"])
        sentences = split_sentences(rec["text"])
        for j, mutate in enumerate(SENTENCE_MUTATIONS):
            k = (i + j) % len(sentences)
            texts.append(" ".join(mutate(sentences, k, vocab)))
    return [_formula_outcome(t, fragment, vocab) for t in texts], len(records)


@pytest.mark.parametrize("fragment,sizes,strategy,settings", sorted(FORMULA_OUTCOME_DIGESTS))
def test_strict_formula_outcomes_are_pinned(fragment, sizes, strategy, settings):
    # every rcl and ruletaker golden text, and each with one sentence
    # mutated, parses to the same formula or the same error
    outcomes, n_records = _formula_outcomes(fragment, sizes, strategy, settings)
    errors = [out for out in outcomes if out[0] is None or isinstance(out[0], int)]
    assert n_records < len(errors) < len(outcomes) - n_records
    digest = hashlib.sha256("\n".join(map(repr, outcomes)).encode()).hexdigest()
    assert digest == FORMULA_OUTCOME_DIGESTS[(fragment, sizes, strategy, settings)]


# The bench's datasets (bench/run.py, seed 108; GOLDEN_BANDS are the
# bench calibration's bands), then every golden digest's dataset.
SCAN_CONFIGS = {
    "grl": [((10, 12), "hard", {"count_per_size": 150})]
    + [(sizes, strategy, settings) for _, sizes, strategy, settings in GRL_GOLDEN_CONFIGS],
    "rcl": [((10, 12), "hard", {"count_per_size": 150}), ((10, 12), "hard", {})],
    "ruletaker": [
        ((6, 8), "hard", {"count_per_size": 60}),
        ((6, 8), "hard", {}),
        ((6, 8), "hard", {"count_per_size": 41, "balance_labels": False}),
    ]
    + [(sizes, strategy, {"p_int": p_int}) for sizes, strategy, p_int in sorted(RT_PATH_DIGESTS)],
}


def _sentence_form(fragment: str, sentence: str) -> str:
    if fragment == "grl":
        return "3 literals" if " and " in sentence else "2 literals"
    if fragment == "rcl":
        first = sentence.split(" ", 1)[0]
        return first if first in ("Every", "No", "Everyone") else "ground"
    if sentence.startswith("The "):
        return "fact"
    return "2 antecedents" if " and " in sentence else "1 antecedent"


SENTENCE_FORMS = {
    "grl": {"2 literals", "3 literals"},
    "rcl": {"Every", "No", "Everyone", "ground"},
    "ruletaker": {"1 antecedent", "2 antecedents", "fact"},
}


@pytest.mark.parametrize("fragment", sorted(SCAN_CONFIGS))
def test_scan_reads_every_bench_and_golden_text(tmp_path, monkeypatch, fragment):
    # with the per-sentence core unusable, verify still passes every
    # record: the whole-text scan reads each form the renderer writes
    datasets = [
        _golden_config(fragment, sizes, strategy, **settings)
        for sizes, strategy, settings in SCAN_CONFIGS[fragment]
    ]

    def no_core(*args):
        raise AssertionError("a rendered text fell back to the per-sentence core")

    for module in (grl, rcl, ruletaker):
        monkeypatch.setattr(module, "_parse", no_core)
    forms = set()
    for i, (config, records) in enumerate(datasets):
        assert verify_dataset(rewrite(tmp_path / f"{i}.jsonl", config, records)) == []
        forms.update(
            _sentence_form(fragment, s) for rec in records for s in split_sentences(rec["text"])
        )
    assert forms == SENTENCE_FORMS[fragment]


@pytest.mark.parametrize("fragment,sizes", [("grl", (8, 10)), ("ruletaker", (6, 8))])
def test_public_sampling_names_reproduce_every_record(fragment, sizes):
    # draw_m then sample_clause (grl) or retrofit (ruletaker), on each
    # record's own RNG, is the generator's sampling path: the public
    # names rebuild every formula
    table = CalibrationTable()
    for n, band in GOLDEN_BANDS.items():
        table.set_band(n, 1.0, 0.5, *band)
    config = DatasetConfig(
        fragment=fragment, sizes=sizes, count_per_size=10, seed=108, strategy="hard"
    )
    records = generate_records(config, table)
    assert len(records) == 20
    for rec in records:
        size = rec["size"]
        rng = derive_rng(config.seed, fragment, size, rec["seed_index"])
        spec = SampleSpec(
            n=size, p_int=config.p_int, p_neg=config.p_neg,
            with_replacement=fragment == "ruletaker",
        )
        m = draw_m(spec, config.strategy, GOLDEN_BANDS[size], rng, config.diversity_fraction)
        if fragment == "grl":
            drawn = CnfFormula(size, tuple([sample_clause(spec, rng) for _ in range(m)]))
            formula, _ = reindex_formula(drawn)
        else:
            theory = retrofit(spec, m, rng, config.max_decisions)
            formula = reindex_theory(theory)[0].formula()
        assert to_dimacs(formula) == rec["dimacs"]


@pytest.mark.parametrize(
    "fragment,sizes", [("grl", (8, 10)), ("rcl", (10, 12)), ("ruletaker", (6, 8))]
)
def test_sat_candidates_build_no_clause_objects(monkeypatch, fragment, sizes):
    # every candidate stays on signed-int clauses from draw to record
    config = DatasetConfig(
        fragment=fragment, sizes=sizes, count_per_size=2, seed=108, strategy="naive"
    )
    vocab = load_vocabulary(config)

    def built(*args, **kwargs):
        raise AssertionError("a clause object was built")

    monkeypatch.setattr(Clause, "__post_init__", built)
    monkeypatch.setattr(CnfFormula, "__post_init__", built)
    monkeypatch.setattr(Literal, "__new__", built)
    # about a quarter of naive ruletaker draws survive retrofit and reindexing
    draws = 80 if fragment == "ruletaker" else 20
    candidates = [
        generate_candidate(config, None, vocab, size, index)
        for size in sizes
        for index in range(draws)
    ]
    assert sum(c is not None for c in candidates) > 20
    # a candidate offers each record as a builder, so build every one
    records = [build() for options in candidates if options for build in options.values()]
    assert len(records) > 20 and all(record["dimacs"] for record in records)


def test_candidates_reuse_no_size_set_up_across_keys(monkeypatch):
    # a size's seed maker and spec are kept between calls; interleaved
    # sizes, fragments and configs, equal ones included, must give the
    # candidates of calls that each start with nothing kept
    configs = [
        DatasetConfig(fragment=fragment, sizes=(10, 12), count_per_size=2, seed=seed,
                      strategy="naive", p_neg=p_neg)
        for fragment in ("grl", "rcl", "ruletaker")
        for seed, p_neg in ((108, 0.5), (108, 0.5), (7, 0.5), (108, 0.25))
    ]
    calls = [(config, size, index) for config in configs for size in (10, 12) for index in range(6)]
    random.Random(26).shuffle(calls)
    vocabs = {config.fragment: load_vocabulary(config) for config in configs}

    def records(fresh):
        out = []
        for config, size, index in calls:
            if fresh:
                monkeypatch.setattr(pipeline, "_size_setup", (None, None, None, None))
            options = generate_candidate(config, None, vocabs[config.fragment], size, index)
            out.append({label: build() for label, build in (options or {}).items()})
        return out

    assert records(fresh=False) == records(fresh=True)


def test_candidates_from_many_threads_match_one_thread():
    # threads share generate_candidate's kept set-up; each must still draw
    # its own config's candidates, whichever thread replaced it last
    configs = [
        DatasetConfig(fragment="grl", sizes=(8, 10), count_per_size=2, seed=seed,
                      strategy="naive")
        for seed in range(6)
    ]
    vocab = load_vocabulary(configs[0])

    def dimacs_of(config):
        return [
            {label: build()["dimacs"] for label, build in (options or {}).items()}
            for size in (8, 10)
            for index in range(30)
            for options in [generate_candidate(config, None, vocab, size, index)]
        ]

    expected = [dimacs_of(config) for config in configs]
    got = [None] * len(configs)

    def run(i):
        got[i] = dimacs_of(configs[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(configs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert got == expected


@pytest.mark.parametrize("size", [6, _MASK_SCAN_MAX_VARS])
def test_ruletaker_candidates_solve_only_for_stats(size):
    # up to the mask-scan limit retrofit and the pools do no search, and a
    # record's one DPLL solve, which gives its stats, runs in its builder:
    # one solve per taken record, none for an offer the collector drops
    # and none for a draw that retrofit rejects
    config = DatasetConfig(
        fragment="ruletaker", sizes=(size,), count_per_size=4, seed=108, strategy="naive"
    )
    vocab = load_vocabulary(config)
    real_retrofit = ruletaker._retrofit
    theories = []
    offers = []

    def retrofit_core(*args):
        theories.append(real_retrofit(*args))
        return theories[-1]

    def candidate(*args):
        options = generate_candidate(*args)
        offers.append(len(options or ()))
        return options

    with mock.patch.object(ruletaker, "_dpll", side_effect=ruletaker._dpll) as solves, \
            mock.patch.object(ruletaker, "_retrofit", side_effect=retrofit_core), \
            mock.patch.object(pipeline, "generate_candidate", side_effect=candidate):
        records = generate_records(config)
    assert solves.call_count == len(records) == 4
    assert None in theories  # some draws were rejected, offering nothing
    assert all(not n for theory, n in zip(theories, offers, strict=True) if theory is None)
    assert sum(offers) > len(records)  # and some offers were dropped


def test_verify_flags_every_record_of_swapped_pools(tmp_path, monkeypatch):
    # a pools fault that swaps the labels must not pass verify, which
    # decides each conjecture with DPLL instead of the generator's masks
    real_pools = ruletaker._conjecture_pools

    def swapped(*args):
        pools = real_pools(*args)
        return {ruletaker.LABEL_TRUE: pools[ruletaker.LABEL_FALSE],
                ruletaker.LABEL_FALSE: pools[ruletaker.LABEL_TRUE]}

    config = naive_config(fragment="ruletaker", sizes=(5, 8), count_per_size=6, seed=3)
    monkeypatch.setattr(ruletaker, "_conjecture_pools", swapped)
    records = generate_records(config)
    monkeypatch.undo()
    issues = verify_dataset(rewrite(tmp_path / "swapped.jsonl", config, records))
    assert {i.record_id for i in issues if i.kind == "label"} == {r["id"] for r in records}
