"""Tests for the command-line interface: subcommands, exit codes, plumbing."""

import json
from fractions import Fraction

import pytest

from nlsatgen import cli, pipeline
from nlsatgen.cli import _parse_sizes, _parse_splits, main
from nlsatgen.fragments import parse_theory, split_sentences
from nlsatgen.lexicon import default_occupation_lexicon, load_lexicon
from nlsatgen.sampler import CalibrationTable


@pytest.fixture(autouse=True)
def isolated_cache(monkeypatch, tmp_path):
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    monkeypatch.setenv("NLSAT_CACHE_DIR", str(cache_dir))
    return cache_dir


@pytest.fixture(scope="module")
def calibration_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("calib") / "calibration.txt"
    rc = main(["calibrate", "--n", "5", "--trials", "60", "--seed", "0",
               "--cache", str(path)])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "small.jsonl"
    rc = main([
        "generate", "--fragment", "grl", "--sizes", "5", "--per-size", "4",
        "--seed", "1", "--strategy", "naive", "--jobs", "1", "--out", str(path),
    ])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def small_rt_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "small-rt.jsonl"
    rc = main([
        "generate", "--fragment", "ruletaker", "--sizes", "5", "--per-size", "4",
        "--seed", "1", "--strategy", "naive", "--jobs", "1", "--out", str(path),
    ])
    assert rc == 0
    return path


# ---------------------------------------------------------------------------
# Argument helpers
# ---------------------------------------------------------------------------


class TestArgumentParsing:
    def test_size_spellings(self):
        assert _parse_sizes("5-8") == (5, 6, 7, 8)
        assert _parse_sizes("5..8") == (5, 6, 7, 8)
        assert _parse_sizes("5,7,9") == (5, 7, 9)
        assert _parse_sizes("6") == (6,)
        assert _parse_sizes("5-7,10") == (5, 6, 7, 10)
        assert _parse_sizes([5, 6]) == (5, 6)

    def test_size_errors(self):
        with pytest.raises(ValueError, match="backwards"):
            _parse_sizes("8-5")
        with pytest.raises(ValueError, match="no sizes"):
            _parse_sizes(",")

    def test_split_spellings(self):
        assert _parse_splits("0.8,0.1,0.1") == (
            Fraction(4, 5), Fraction(1, 10), Fraction(1, 10)
        )
        assert _parse_splits("4/5,1/10,1/10") == (
            Fraction(4, 5), Fraction(1, 10), Fraction(1, 10)
        )
        assert _parse_splits([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]) == (
            Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)
        )

    def test_missing_seed_is_a_usage_error(self, tmp_path, capsys):
        # neither --seed nor a config gives one
        rc = main(["generate", "--fragment", "grl", "--sizes", "5",
                   "--per-size", "4", "--out", str(tmp_path / "x.jsonl")])
        assert rc == 2
        assert "missing required settings: seed" in capsys.readouterr().err
        assert not (tmp_path / "x.jsonl").exists()


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------


class TestCalibrate:
    def test_writes_cache_and_reports_band(self, calibration_file, capsys):
        assert calibration_file.exists()
        rc = main(["calibrate", "--n", "5", "--trials", "60", "--seed", "0",
                   "--cache", str(calibration_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "n=5 p_int=1.0 p_neg=0.5: alpha_c=" in out
        assert "band=[" in out
        assert f"calibration saved to {calibration_file}" in out

    def test_default_cache_uses_environment(self, isolated_cache, capsys):
        rc = main(["calibrate", "--n", "5", "--trials", "60", "--seed", "0"])
        assert rc == 0
        assert (isolated_cache / "calibration.txt").exists()

    @pytest.mark.parametrize("tolerance", ["-1", "nan"])
    def test_negative_or_nan_tolerance_is_a_usage_error(self, tolerance, tmp_path, capsys):
        path = tmp_path / "calibration.txt"
        rc = main(["calibrate", "--n", "6", "--trials", "20", "--tolerance", tolerance,
                   "--cache", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "tolerance must be a non-negative number" in err
        assert "trials_per_point" not in err
        assert not path.exists()

    @pytest.mark.parametrize("sizes", ["8,8", "5-7,6"])
    def test_repeated_sizes_are_the_usage_error_of_generate(self, sizes, tmp_path, capsys):
        # one repeat check for both commands, made before any calibration
        path, out = tmp_path / "calibration.txt", tmp_path / "ds.jsonl"
        rc = main(["generate", "--fragment", "grl", "--sizes", sizes, "--per-size", "4",
                   "--strategy", "naive", "--seed", "1", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: sizes repeat\n"
        rc = main(["calibrate", "--n", sizes, "--trials", "20", "--cache", str(path)])
        assert rc == 2
        assert capsys.readouterr() == ("", "error: sizes repeat\n")
        assert not path.exists() and not out.exists()

    def test_a_size_the_spec_refuses_stops_calibrate_before_any_size(self, tmp_path, capsys):
        # n = 8 comes first and is valid, but nothing is calibrated or saved
        path = tmp_path / "calibration.txt"
        rc = main(["calibrate", "--n", "8,2", "--trials", "20", "--cache", str(path)])
        assert rc == 2
        assert capsys.readouterr() == (
            "", "error: three-literal clauses need n >= 3 without replacement\n")
        assert not path.exists()

    def test_recalibration_replaces_the_curve(self, tmp_path, capsys):
        path = tmp_path / "calibration.txt"
        for trials in ("100", "40"):
            rc = main(["calibrate", "--n", "5", "--trials", trials, "--seed", "0",
                       "--cache", str(path)])
            assert rc == 0
        points = CalibrationTable.load(path).points[(5, 1.0, 0.5)]
        assert points
        assert {trials for _, trials in points.values()} == {40}


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


class TestGenerate:
    def test_naive_generation_writes_dataset_and_stats(self, small_dataset):
        lines = small_dataset.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["kind"] == "header"
        assert header["sizes"] == [5]
        assert len(lines) == 5
        sidecar = small_dataset.with_suffix(".stats.txt")
        assert sidecar.exists()
        assert sidecar.read_text().startswith("fragment: grl")

    def test_hard_generation_with_calibration(self, calibration_file, tmp_path, capsys):
        out = tmp_path / "hard.jsonl"
        rc = main([
            "generate", "--fragment", "grl", "--sizes", "5", "--per-size", "4",
            "--seed", "1", "--strategy", "hard", "--cache", str(calibration_file),
            "--jobs", "1", "--out", str(out),
        ])
        assert rc == 0
        assert f"wrote 4 records to {out}" in capsys.readouterr().out
        records = [json.loads(l) for l in out.read_text().splitlines()[1:]]
        assert sorted(r["label"] for r in records) == ["sat", "sat", "unsat", "unsat"]

    def test_missing_calibration_is_a_usage_error(self, tmp_path, capsys):
        rc = main([
            "generate", "--fragment", "grl", "--sizes", "5", "--per-size", "4",
            "--seed", "1", "--strategy", "hard", "--out", str(tmp_path / "x.jsonl"),
        ])
        assert rc == 2
        assert "run calibrate first" in capsys.readouterr().err

    def test_odd_count_is_a_usage_error(self, tmp_path, capsys):
        rc = main([
            "generate", "--fragment", "grl", "--sizes", "5", "--per-size", "3",
            "--seed", "1", "--strategy", "naive", "--out", str(tmp_path / "x.jsonl"),
        ])
        assert rc == 2
        assert "must be even" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_jobs_below_one_is_a_usage_error(self, tmp_path, capsys, jobs):
        out = tmp_path / "x.jsonl"
        rc = main([
            "generate", "--fragment", "grl", "--sizes", "5", "--per-size", "4",
            "--seed", "1", "--strategy", "naive", "--jobs", jobs, "--out", str(out),
        ])
        assert rc == 2
        assert f"jobs must be at least 1, got {jobs}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("prob", ["1.5", "-3", "nan"])
    def test_no_rewrite_prob_outside_unit_interval_is_a_usage_error(self, tmp_path, capsys, prob):
        out = tmp_path / "x.jsonl"
        rc = main([
            "generate", "--fragment", "rcl", "--sizes", "10", "--per-size", "4",
            "--seed", "1", "--strategy", "naive", "--no-rewrite-prob", prob, "--out", str(out),
        ])
        assert rc == 2
        assert "no_rewrite_prob must lie in [0, 1]" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_budget_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.jsonl"
        rc = main([
            "generate", "--fragment", "grl", "--sizes", "5", "--per-size", "4",
            "--seed", "1", "--strategy", "naive", "--max-decisions", "-1", "--out", str(out),
        ])
        assert rc == 2
        assert "max_decisions must be non-negative, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_jobs_left_out_means_all_cores(self, tmp_path, monkeypatch):
        seen = []
        generate = cli.generate_records

        def recording(config, table, jobs):
            seen.append(jobs)
            return generate(config, table, jobs=jobs)

        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        monkeypatch.setattr(cli, "generate_records", recording)
        rc = main([
            "generate", "--fragment", "grl", "--sizes", "5", "--per-size", "4",
            "--seed", "1", "--strategy", "naive", "--out", str(tmp_path / "x.jsonl"),
        ])
        assert rc == 0
        assert seen == [3]

    def test_exhausted_budget_exits_three(self, tmp_path, capsys):
        rc = main([
            "generate", "--fragment", "grl", "--sizes", "5", "--per-size", "4",
            "--seed", "1", "--strategy", "naive", "--max-decisions", "0",
            "--out", str(tmp_path / "x.jsonl"),
        ])
        assert rc == 3
        assert "budget exhausted" in capsys.readouterr().err

    def test_stalled_generation_exits_three(self, tmp_path, capsys):
        rc = main([
            "generate", "--fragment", "grl", "--sizes", "5", "--per-size", "4",
            "--seed", "1", "--strategy", "naive", "--p-neg", "0",
            "--out", str(tmp_path / "x.jsonl"),
        ])
        assert rc == 3
        assert "looks infeasible" in capsys.readouterr().err

    def test_config_file_supplies_settings(self, tmp_path):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({
            "fragment": "grl", "sizes": "5", "count_per_size": 4,
            "strategy": "naive", "seed": 7,
        }))
        out = tmp_path / "ds.jsonl"
        rc = main(["generate", "--config", str(config_path), "--out", str(out)])
        assert rc == 0
        header = json.loads(out.read_text().splitlines()[0])
        assert (header["fragment"], header["count_per_size"], header["seed"]) == (
            "grl", 4, 7
        )

    def test_flags_override_config(self, tmp_path):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({
            "fragment": "grl", "sizes": "5", "count_per_size": 4,
            "strategy": "naive",
        }))
        out = tmp_path / "ds.jsonl"
        rc = main(["generate", "--config", str(config_path), "--per-size", "6",
                   "--seed", "7", "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text().splitlines()[0])["count_per_size"] == 6

    def test_incomplete_settings_are_a_usage_error(self, tmp_path, capsys):
        rc = main(["generate", "--seed", "1", "--out", str(tmp_path / "x.jsonl")])
        assert rc == 2
        assert "missing required settings" in capsys.readouterr().err

    def test_unreadable_config_is_a_usage_error(self, tmp_path, capsys):
        rc = main(["generate", "--config", str(tmp_path / "nope.json"),
                   "--seed", "1", "--out", str(tmp_path / "x.jsonl")])
        assert rc == 2
        assert "cannot read config" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"count_per_size": "four"}, "count_per_size must be an integer, got 'four'"),
            ({"p_neg": "half"}, "p_neg must be a number, got 'half'"),
            ({"foo": 1}, "unknown settings in config: foo"),
            ({"sizes": [5.7, 6]}, "sizes must be integers, got [5.7, 6]"),
            ({"sizes": [True, 6]}, "sizes must be integers, got [True, 6]"),
            ({"sizes": "5.7"}, "sizes: '5.7' is not an integer"),
        ],
    )
    def test_bad_config_setting_is_a_usage_error(self, tmp_path, capsys, settings, message):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({
            "fragment": "grl", "sizes": "5", "count_per_size": 4, "strategy": "naive",
            **settings,
        }))
        rc = main(["generate", "--config", str(config_path), "--seed", "7",
                   "--out", str(tmp_path / "ds.jsonl")])
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fragment,sizes,flag,message",
        [
            ("rcl", "10", "--names", "rcl needs --nouns with --names"),
            ("rcl", "10", "--nouns", "rcl needs --names with --nouns"),
            ("grl", "6", "--names", "grl takes no --names word list"),
            ("grl", "6", "--attributes", "grl takes no --attributes word list"),
            ("grl", "6", "--entities", "grl takes no --entities word list"),
            ("rcl", "10", "--attributes", "rcl takes no --attributes word list"),
            ("ruletaker", "6", "--nouns", "ruletaker takes no --nouns word list"),
            ("ruletaker", "6", "--names", "ruletaker takes no --names word list"),
        ],
    )
    def test_word_list_the_fragment_does_not_take_is_a_usage_error(
        self, tmp_path, capsys, fragment, sizes, flag, message
    ):
        words = tmp_path / "words.txt"
        words.write_text("\n".join(default_occupation_lexicon().count_nouns) + "\n")
        out = tmp_path / "ds.jsonl"
        rc = main([
            "generate", "--fragment", fragment, "--sizes", sizes, "--per-size", "2",
            "--seed", "1", "--strategy", "naive", flag, str(words), "--out", str(out),
        ])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "fragment,flag,message",
        [
            ("ruletaker", "--nouns", "ruletaker takes no --nouns word list"),
            ("grl", "--nouns", "error: "),  # the path cannot be read
        ],
    )
    def test_empty_word_list_path_is_a_usage_error(
        self, tmp_path, capsys, fragment, flag, message
    ):
        # an empty path is a given list, not a silent fall back to the defaults
        rc = main([
            "generate", "--fragment", fragment, "--sizes", "6", "--per-size", "2",
            "--seed", "1", "--strategy", "naive", flag, "", "--out", str(tmp_path / "ds.jsonl"),
        ])
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_rcl_records_name_only_the_custom_people(self, tmp_path):
        nouns = tmp_path / "nouns.txt"
        nouns.write_text("\n".join(default_occupation_lexicon().count_nouns) + "\n")
        names = tmp_path / "names.txt"
        names.write_text("Alma\nBertil\nCosima\nDorian\n")
        out = tmp_path / "rcl.jsonl"
        rc = main([
            "generate", "--fragment", "rcl", "--sizes", "10", "--per-size", "4",
            "--seed", "1", "--strategy", "naive", "--nouns", str(nouns),
            "--names", str(names), "--jobs", "1", "--out", str(out),
        ])
        assert rc == 0
        lexicon = load_lexicon(nouns, names)
        people = set()
        for line in out.read_text().splitlines()[1:]:
            _, binding = parse_theory(json.loads(line)["text"], "rcl", lexicon)
            people |= set(binding.constants.values())
        assert people and people <= {"Alma", "Bertil", "Cosima", "Dorian"}

    def test_no_balance_flag(self, tmp_path):
        out = tmp_path / "unbal.jsonl"
        rc = main([
            "generate", "--fragment", "grl", "--sizes", "5", "--per-size", "5",
            "--seed", "1", "--strategy", "naive", "--no-balance", "--out", str(out),
        ])
        assert rc == 0
        records = [json.loads(l) for l in out.read_text().splitlines()[1:]]
        assert len(records) == 5
        assert json.loads(out.read_text().splitlines()[0])["balance_labels"] is False


# ---------------------------------------------------------------------------
# Verify, stats, export
# ---------------------------------------------------------------------------


def _with_second_record(dataset, tmp_path, change):
    """A copy of the dataset whose second record is change(record)."""
    lines = dataset.read_text().splitlines()
    lines[2] = json.dumps(change(json.loads(lines[2])), sort_keys=True)
    path = tmp_path / "malformed.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


def _without(key):
    return lambda rec: {k: v for k, v in rec.items() if k != key}


class TestVerify:
    def test_clean_dataset_passes(self, small_dataset, capsys):
        assert main(["verify", str(small_dataset)]) == 0
        assert "ok: 4 records verified" in capsys.readouterr().out

    def test_verify_counts_records_in_its_one_pass(self, small_dataset, monkeypatch, capsys):
        def second_read(path):
            raise AssertionError("verify read the dataset a second time")

        monkeypatch.setattr(pipeline, "read_dataset", second_read)
        monkeypatch.setattr(cli, "read_dataset", second_read, raising=False)
        assert main(["verify", str(small_dataset)]) == 0
        assert capsys.readouterr() == ("ok: 4 records verified\n", "")

    def test_tampered_dataset_fails(self, small_dataset, tmp_path, capsys):
        lines = small_dataset.read_text().splitlines()
        records = [json.loads(l) for l in lines]
        records[1]["label"] = "unsat" if records[1]["label"] == "sat" else "sat"
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n"
        )
        assert main(["verify", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "record says" in err
        assert "verification failed: 2 issue(s)" in err

    @pytest.mark.parametrize("size", [[5], "10"])
    def test_mistyped_size_is_a_field_issue(self, small_dataset, tmp_path, capsys, size):
        bad = _with_second_record(small_dataset, tmp_path, lambda rec: {**rec, "size": size})
        assert main(["verify", str(bad)]) == 1
        err = capsys.readouterr().err
        assert f"grl-n5-000001: field: bad size {size!r}" in err
        assert "verification failed" in err

    @pytest.mark.parametrize(
        "dataset, key, value",
        [
            ("small_dataset", "id", ["grl-n5-000001"]),
            ("small_dataset", "text", 7),
            ("small_dataset", "text", None),  # the record's sentences as a list
            ("small_rt_dataset", "label", ["true"]),
            ("small_rt_dataset", "conjecture_text", ["The cat is big."]),
        ],
    )
    def test_mistyped_field_is_a_field_issue(
        self, request, tmp_path, capsys, dataset, key, value
    ):
        def change(rec):
            if value is None:
                return {**rec, key: split_sentences(rec[key])}
            return {**rec, key: value}

        bad = _with_second_record(request.getfixturevalue(dataset), tmp_path, change)
        assert main(["verify", str(bad)]) == 1
        err = capsys.readouterr().err
        shown = json.loads(bad.read_text().splitlines()[2])[key]
        assert f": field: bad {key} {shown!r}" in err
        assert "verification failed" in err

    def test_unsatisfiable_theory_is_a_label_issue(self, tmp_path, capsys):
        path = tmp_path / "rt.jsonl"
        assert main([
            "generate", "--fragment", "ruletaker", "--sizes", "5", "--per-size", "8",
            "--seed", "3", "--strategy", "naive", "--jobs", "1", "--out", str(path),
        ]) == 0
        lines = path.read_text().splitlines()
        records = [json.loads(line) for line in lines[1:]]
        tampered = []
        for rec in records:
            # a fact that the theory refutes: the conjecture's opposite for
            # "true", the conjecture itself for "false"
            conjecture = rec["conjecture_text"]
            negated = (conjecture.replace(" is not ", " is ") if " is not " in conjecture
                       else conjecture.replace(" is ", " is not "))
            fact = negated if rec["label"] == "true" else conjecture
            if conjecture in rec["text"] or negated in rec["text"]:
                continue  # a stated fact: a second one on its attribute does not parse
            rec["text"] += " " + fact
            tampered.append(rec["id"])
        assert len(tampered) >= 2
        lines[1:] = [json.dumps(rec, sort_keys=True) for rec in records]
        path.write_text("\n".join(lines) + "\n")
        assert main(["verify", str(path)]) == 1
        err = capsys.readouterr().err
        for rid in tampered:
            assert f"{rid}: label: degenerate theory: unsatisfiable on its own" in err

    def test_negative_budget_is_a_usage_error(self, small_dataset, capsys):
        assert main(["verify", str(small_dataset), "--max-decisions", "-1"]) == 2
        assert "max_decisions must be non-negative, got -1" in capsys.readouterr().err

    def test_exhausted_budget_names_the_record(self, tmp_path, capsys):
        path = tmp_path / "g.jsonl"
        assert main([
            "generate", "--fragment", "grl", "--sizes", "10", "--per-size", "6",
            "--seed", "1", "--strategy", "naive", "--jobs", "1", "--out", str(path),
        ]) == 0
        records = [json.loads(line) for line in path.read_text().splitlines()[1:]]
        capsys.readouterr()
        most = max(rec["stats"]["decisions"] for rec in records)
        for budget in sorted({0, most - 1}):
            # the first record whose stored solve took more decisions
            rid = next(rec["id"] for rec in records if rec["stats"]["decisions"] > budget)
            assert main(["verify", str(path), "--max-decisions", str(budget)]) == 3
            assert capsys.readouterr() == (
                "",
                f"error: record {rid}: budget exhausted: more than {budget} decisions needed\n",
            )
        assert main(["verify", str(path), "--max-decisions", str(most)]) == 0

    def test_exhausted_budget_keeps_the_issues_found_before_it(self, tmp_path, capsys):
        path = tmp_path / "g.jsonl"
        assert main([
            "generate", "--fragment", "grl", "--sizes", "10", "--per-size", "6",
            "--seed", "1", "--strategy", "naive", "--jobs", "1", "--out", str(path),
        ]) == 0
        lines = path.read_text().splitlines()
        rec = json.loads(lines[2])
        assert rec["id"] == "grl-n10-000001"
        flipped = {"sat": "unsat", "unsat": "sat"}[rec["label"]]
        lines[2] = json.dumps({**rec, "label": flipped}, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["verify", str(path), "--max-decisions", "6"]) == 3
        assert capsys.readouterr() == (
            "",
            f"grl-n10-000001: label: formula is {rec['label']}, record says {flipped!r}\n"
            "error: record grl-n10-000007: budget exhausted: more than 6 decisions needed\n",
        )

    def test_missing_dataset_is_a_usage_error(self, tmp_path, capsys):
        assert main(["verify", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_non_object_record_is_a_usage_error(self, small_dataset, tmp_path, capsys):
        bad = _with_second_record(small_dataset, tmp_path, lambda rec: [1, 2])
        assert main(["verify", str(bad)]) == 2
        assert "line 3 is not a JSON object" in capsys.readouterr().err


class TestStats:
    def test_prints_report(self, small_dataset, capsys):
        assert main(["stats", str(small_dataset)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("fragment: grl")
        assert "labels: sat 2, unsat 2" in out
        assert "size 5: count 4, labels 2/2" in out

    def test_writes_report_file(self, small_dataset, tmp_path, capsys):
        out_path = tmp_path / "report.txt"
        assert main(["stats", str(small_dataset), "--out", str(out_path)]) == 0
        assert out_path.read_text() == capsys.readouterr().out

    def test_record_without_label_is_a_usage_error(self, small_dataset, tmp_path, capsys):
        bad = _with_second_record(small_dataset, tmp_path, _without("label"))
        assert main(["stats", str(bad)]) == 2
        assert "record grl-n5-000001 has no 'label'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "stats, key",
        [
            ({}, "decisions"),
            ([], "decisions"),
            ({"decisions": "many", "conflicts": 0}, "decisions"),
            ({"decisions": 1}, "conflicts"),
        ],
    )
    def test_record_with_bad_stats_is_a_usage_error(
        self, small_dataset, tmp_path, capsys, stats, key
    ):
        bad = _with_second_record(small_dataset, tmp_path, lambda rec: {**rec, "stats": stats})
        assert main(["stats", str(bad)]) == 2
        assert f"record grl-n5-000001 has no numeric 'stats.{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("size", [5], "a non-integer 'size'"),
            ("size", "10", "a non-integer 'size'"),
            ("label", ["sat"], "a non-string 'label'"),
            ("split", {"a": 1}, "a non-string 'split'"),
        ],
    )
    def test_record_with_mistyped_field_is_a_usage_error(
        self, small_dataset, tmp_path, capsys, key, value, message
    ):
        bad = _with_second_record(small_dataset, tmp_path, lambda rec: {**rec, key: value})
        assert main(["stats", str(bad)]) == 2
        assert f"record grl-n5-000001 has {message}" in capsys.readouterr().err


class TestExportDimacs:
    def test_writes_cnf_files(self, small_dataset, tmp_path, capsys):
        out_dir = tmp_path / "cnfs"
        assert main(["export-dimacs", str(small_dataset), str(out_dir)]) == 0
        assert f"wrote 4 DIMACS files to {out_dir}" in capsys.readouterr().out
        files = sorted(p.name for p in out_dir.iterdir())
        assert len(files) == 4
        assert all(n.startswith("grl-n5-") and n.endswith(".cnf") for n in files)
        for name in files:
            assert (out_dir / name).read_text().startswith("p cnf ")

    def test_record_without_dimacs_is_a_usage_error(self, small_dataset, tmp_path, capsys):
        bad = _with_second_record(small_dataset, tmp_path, _without("dimacs"))
        assert main(["export-dimacs", str(bad), str(tmp_path / "cnfs")]) == 2
        assert "has no 'dimacs'" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["id", "dimacs"])
    def test_record_with_mistyped_field_is_a_usage_error(
        self, small_dataset, tmp_path, capsys, key
    ):
        bad = _with_second_record(small_dataset, tmp_path, lambda rec: {**rec, key: 5})
        assert main(["export-dimacs", str(bad), str(tmp_path / "cnfs")]) == 2
        assert f"has a non-string {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "cnfs").exists()  # no partial export

    def test_empty_id_is_a_usage_error(self, small_dataset, tmp_path, capsys):
        bad = _with_second_record(small_dataset, tmp_path, lambda rec: {**rec, "id": ""})
        assert main(["export-dimacs", str(bad), str(tmp_path / "cnfs")]) == 2
        assert "unsafe record id ''" in capsys.readouterr().err
        assert not (tmp_path / "cnfs").exists()

    def test_repeated_id_is_a_usage_error(self, small_dataset, tmp_path, capsys):
        # the second file would replace the first, losing a formula
        first_id = json.loads(small_dataset.read_text().splitlines()[1])["id"]
        bad = _with_second_record(small_dataset, tmp_path, lambda rec: {**rec, "id": first_id})
        assert main(["export-dimacs", str(bad), str(tmp_path / "cnfs")]) == 2
        assert f"record id {first_id!r} repeats" in capsys.readouterr().err
        assert not (tmp_path / "cnfs").exists()


# ---------------------------------------------------------------------------
# Parse and retrofit subcommands
# ---------------------------------------------------------------------------


class TestParseCommand:
    def test_conditional_fragment(self, capsys):
        rc = main(["parse", "--fragment", "grl",
                   "If no carrot and steak then banana."])
        assert rc == 0
        assert capsys.readouterr().out == "p cnf 3 1\n1 -2 3 0\n"

    def test_quantified_fragment_prints_grounding(self, capsys):
        text = ("Every doctor who is not a philosopher is a baker. "
                "John is a doctor or a philosopher or not a baker.")
        assert main(["parse", "--fragment", "rcl", text]) == 0
        assert capsys.readouterr().out == "p cnf 3 2\n-1 2 3 0\n1 2 -3 0\n"

    def test_entity_fragment_prints_rules_and_facts(self, capsys):
        text = "If the lion is not red then the lion is blue. The lion is red."
        assert main(["parse", "--fragment", "ruletaker", text]) == 0
        assert capsys.readouterr().out == "p cnf 2 2\n1 2 0\n1 0\n"

    @pytest.mark.parametrize("fragment, size", [("grl", 5), ("rcl", 10), ("ruletaker", 5)])
    def test_prints_the_stored_dimacs(self, tmp_path, capsys, fragment, size):
        path = tmp_path / "ds.jsonl"
        assert main([
            "generate", "--fragment", fragment, "--sizes", str(size), "--per-size", "2",
            "--seed", "5", "--strategy", "naive", "--jobs", "1", "--out", str(path),
        ]) == 0
        capsys.readouterr()
        for line in path.read_text().splitlines()[1:]:
            rec = json.loads(line)
            assert main(["parse", "--fragment", fragment, rec["text"]]) == 0
            assert capsys.readouterr().out == rec["dimacs"]

    def test_file_input(self, tmp_path, capsys):
        src = tmp_path / "theory.txt"
        src.write_text("If no carrot and steak then banana.\n")
        assert main(["parse", "--fragment", "grl", "--file", str(src)]) == 0
        assert capsys.readouterr().out == "p cnf 3 1\n1 -2 3 0\n"

    def test_lenient_flag(self, capsys):
        text = "if no carrots and steak then banana."
        assert main(["parse", "--fragment", "grl", text]) == 1
        assert "parse error" in capsys.readouterr().err
        assert main(["parse", "--fragment", "grl", "--lenient", text]) == 0
        assert capsys.readouterr().out == "p cnf 3 1\n1 -2 3 0\n"

    def test_parse_error_exits_one(self, capsys):
        assert main(["parse", "--fragment", "grl", "Total garbage."]) == 1
        assert "parse error: sentence 1" in capsys.readouterr().err

    def test_empty_input_is_a_usage_error(self, tmp_path, capsys):
        src = tmp_path / "empty.txt"
        src.write_text("\n")
        assert main(["parse", "--fragment", "grl", "--file", str(src)]) == 2
        assert "nothing to parse" in capsys.readouterr().err


class TestRetrofitCommand:
    def test_prints_theories_with_conjectures(self, capsys):
        rc = main(["retrofit", "--n", "5", "--seed", "0", "--count", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        blocks = [b for b in out.split("\n\n") if b.strip()]
        assert len(blocks) == 2
        labels = []
        for block in blocks:
            lines = block.splitlines()
            assert lines[0].startswith("If ") or lines[0].startswith("The ")
            assert lines[1].startswith("conjecture: The ")
            assert lines[2] in ("label: true", "label: false")
            labels.append(lines[2].split(": ")[1])
        assert set(labels) == {"true", "false"}

    def test_deterministic(self, capsys):
        main(["retrofit", "--n", "5", "--seed", "3", "--count", "1"])
        first = capsys.readouterr().out
        main(["retrofit", "--n", "5", "--seed", "3", "--count", "1"])
        assert capsys.readouterr().out == first

    def test_prints_what_generate_writes(self, tmp_path, capsys):
        rc = main(["retrofit", "--n", "6", "--seed", "9", "--count", "4",
                   "--alpha-min", "1.5", "--alpha-max", "2.5"])
        assert rc == 0
        printed = capsys.readouterr().out
        cache = tmp_path / "band.txt"
        cache.write_text("# nlsatgen-calibration v1\nband 6 1.0 0.5 3/2 5/2\n")
        out = tmp_path / "rt.jsonl"
        rc = main(["generate", "--fragment", "ruletaker", "--sizes", "6", "--per-size", "4",
                   "--seed", "9", "--diversity-fraction", "0", "--jobs", "1",
                   "--cache", str(cache), "--out", str(out)])
        assert rc == 0
        records = [json.loads(line) for line in out.read_text().splitlines()[1:]]
        assert printed == "".join(
            f"{r['text']}\nconjecture: {r['conjecture_text']}\nlabel: {r['label']}\n\n"
            for r in records
        )


# ---------------------------------------------------------------------------
# Files that are not UTF-8
# ---------------------------------------------------------------------------

NAIVE_10 = ["--sizes", "10", "--per-size", "2", "--seed", "1", "--strategy", "naive"]
NOT_UTF8_READERS = {
    "verify": ["verify", "{bad}"],
    "stats": ["stats", "{bad}"],
    "export-dimacs": ["export-dimacs", "{bad}", "{tmp}/cnf"],
    "parse --file": ["parse", "--fragment", "grl", "--file", "{bad}"],
    "generate --config": ["generate", "--config", "{bad}"],
    "--nouns": ["generate", "--fragment", "grl", *NAIVE_10, "--nouns", "{bad}"],
    "--names": ["generate", "--fragment", "rcl", *NAIVE_10, "--nouns", "{nouns}", "--names", "{bad}"],
    "--attributes": ["generate", "--fragment", "ruletaker", *NAIVE_10, "--attributes", "{bad}"],
    "--entities": ["generate", "--fragment", "ruletaker", *NAIVE_10, "--entities", "{bad}"],
    "generate --cache": ["generate", "--fragment", "grl", *NAIVE_10, "--cache", "{bad}"],
    "calibrate --cache": ["calibrate", "--n", "5", "--cache", "{bad}"],
}


@pytest.mark.parametrize("reader", NOT_UTF8_READERS)
def test_a_file_that_is_not_utf8_is_a_usage_error_naming_it(tmp_path, capsys, reader):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe\n")
    nouns = tmp_path / "nouns.txt"
    nouns.write_text("\n".join(default_occupation_lexicon().count_nouns) + "\n")
    out = tmp_path / "ds.jsonl"
    argv = [arg.format(bad=bad, tmp=tmp_path, nouns=nouns) for arg in NOT_UTF8_READERS[reader]]
    if argv[0] == "generate":
        argv += ["--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {bad}: not UTF-8: invalid start byte\n")
    assert not out.exists()
