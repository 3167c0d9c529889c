"""Command-line interface.

Exit codes: 0 on success; 1 when verification or parsing finds
mismatches; 2 for unusable invocations (bad arguments, missing
calibration, empty or malformed datasets); 3 when generation gives up
(solver budget exhausted or candidate acceptance stalled).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

from .cnf import _dimacs
from .fileio import _read_text, atomic_writer
from .fragments import FRAGMENTS, RULETAKER, FragmentError, ParseError, _parse_formula
from .pipeline import (
    DatasetConfig,
    DatasetError,
    GenerationStallError,
    _check_sizes_distinct,
    _verify,
    export_dimacs_files,
    generate_records,
    stats_report,
    write_dataset,
)
from .sampler import (
    CalibrationError,
    CalibrationTable,
    STRATEGIES,
    SampleSpec,
    calibrate_critical,
    calibration_cache_path,
)
from .solver import DEFAULT_MAX_DECISIONS, BudgetExhaustedError


def _parse_sizes(text) -> tuple:
    """Accept "5-12", "5..12", "5,7,9", "6", or mixes like "5-8,10".

    A list (from a config file) is kept as it is, for ``DatasetConfig``
    to check; nothing is truncated to an integer.
    """
    if isinstance(text, (list, tuple)):
        return tuple(text)
    sizes = []
    for part in str(text).split(","):
        part = part.strip().replace("..", "-")
        if "-" in part.lstrip("-"):
            lo, _, hi = part.partition("-")
            lo, hi = _size(lo), _size(hi)
            if hi < lo:
                raise ValueError(f"size range {part!r} is backwards")
            sizes.extend(range(lo, hi + 1))
        elif part:
            sizes.append(_size(part))
    if not sizes:
        raise ValueError(f"no sizes in {text!r}")
    return tuple(sizes)


def _size(text) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"sizes: {text.strip()!r} is not an integer") from None


def _parse_splits(text) -> tuple:
    if isinstance(text, (list, tuple)):
        return tuple(Fraction(str(s)) for s in text)
    return tuple(Fraction(part.strip()) if "/" in part else Fraction(str(float(part)))
                 for part in str(text).split(","))


def _load_table(path_arg):
    path = Path(path_arg) if path_arg else calibration_cache_path()
    if path.exists():
        return CalibrationTable.load(path), path
    return CalibrationTable(), path


def cmd_calibrate(args) -> int:
    sizes = _parse_sizes(args.n)
    _check_sizes_distinct(sizes)
    # every size's distribution is checked before any size is calibrated
    for n in sizes:
        SampleSpec(n, args.p_int, args.p_neg)
    table, path = _load_table(args.cache)
    for n in sizes:
        result = calibrate_critical(
            n,
            args.p_int,
            args.p_neg,
            tolerance=args.tolerance,
            trials_per_point=args.trials,
            seed=args.seed,
        )
        # a new calibration replaces the key's curve instead of merging into it
        table.replace_points(n, args.p_int, args.p_neg, result.points)
        table.set_band(n, args.p_int, args.p_neg, *result.band)
        lo, hi = result.band
        print(
            f"n={n} p_int={args.p_int} p_neg={args.p_neg}: "
            f"alpha_c={result.alpha_c} ({float(result.alpha_c):.3f}), "
            f"band=[{lo} ({float(lo):.3f}), {hi} ({float(hi):.3f})]"
        )
    table.save(path)
    print(f"calibration saved to {path}")
    return 0


def cmd_generate(args) -> int:
    settings = {}
    if args.config:
        try:
            settings = json.loads(_read_text(args.config))
        except OSError as exc:
            raise DatasetError(f"cannot read config: {exc}") from None
        except json.JSONDecodeError as exc:
            raise DatasetError(f"config is not JSON: {exc}") from None
        if not isinstance(settings, dict):
            raise DatasetError("config must be a JSON object")
    # every DatasetConfig field is a generate option of the same dest
    names = [setting.name for setting in fields(DatasetConfig)]
    unknown = sorted(set(settings) - set(names))
    if unknown:
        raise DatasetError(f"unknown settings in config: {', '.join(unknown)}")
    settings.update({k: getattr(args, k) for k in names if getattr(args, k) is not None})
    missing = [k for k in ("fragment", "sizes", "count_per_size", "seed") if k not in settings]
    if missing:
        raise DatasetError(f"missing required settings: {', '.join(missing)}")
    settings["sizes"] = _parse_sizes(settings["sizes"])
    if "splits" in settings:
        settings["splits"] = _parse_splits(settings["splits"])
    config = DatasetConfig(**settings)
    table, _ = _load_table(args.cache)
    jobs = (os.cpu_count() or 1) if args.jobs is None else args.jobs
    records = generate_records(config, table, jobs=jobs)
    write_dataset(args.out, config, records)
    stats_path = Path(args.out).with_suffix(".stats.txt")
    report = stats_report(args.out)
    with atomic_writer(stats_path) as fh:
        fh.write(report)
    print(f"wrote {len(records)} records to {args.out}")
    print(f"wrote stats report to {stats_path}")
    return 0


def cmd_stats(args) -> int:
    report = stats_report(args.dataset)
    sys.stdout.write(report)
    if args.out:
        with atomic_writer(args.out) as fh:
            fh.write(report)
    return 0


def cmd_verify(args) -> int:
    try:
        issues, count = _verify(args.dataset, args.max_decisions)
    except BudgetExhaustedError as exc:
        # the issues found before the budget ran out, then main's error line
        for issue in exc.issues:
            print(issue, file=sys.stderr)
        raise
    if issues:
        for issue in issues:
            print(issue, file=sys.stderr)
        print(f"verification failed: {len(issues)} issue(s)", file=sys.stderr)
        return 1
    print(f"ok: {count} records verified")
    return 0


def cmd_parse(args) -> int:
    if args.file:
        text = _read_text(args.file).strip()
    else:
        text = args.text
    if not text:
        raise DatasetError("nothing to parse")
    try:
        formula, _ = _parse_formula(text, args.fragment, strict=not args.lenient)
    except (ParseError, FragmentError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(_dimacs(formula))
    return 0


def cmd_export_dimacs(args) -> int:
    count = export_dimacs_files(args.dataset, args.out_dir)
    print(f"wrote {count} DIMACS files to {args.out_dir}")
    return 0


def cmd_retrofit(args) -> int:
    """Print ruletaker records drawn from [--alpha-min, --alpha-max].

    The records are exactly those of ``generate --fragment ruletaker``
    with that band as the calibrated one and no diversity draws; labels
    are balanced when the count is even.
    """
    table = CalibrationTable()
    table.set_band(
        args.n, args.p_int, args.p_neg,
        Fraction(str(args.alpha_min)), Fraction(str(args.alpha_max)),
    )
    config = DatasetConfig(
        fragment=RULETAKER,
        sizes=(args.n,),
        count_per_size=args.count,
        seed=args.seed,
        p_int=args.p_int,
        p_neg=args.p_neg,
        diversity_fraction=0.0,
        balance_labels=args.count % 2 == 0,
        attributes_path=args.attributes,
        entities_path=args.entities,
    )
    for rec in generate_records(config, table):
        print(rec["text"])
        print(f"conjecture: {rec['conjecture_text']}")
        print(f"label: {rec['label']}")
        print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlsatgen",
        description="Generate, inspect, and verify natural-language satisfiability datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="locate the sat/unsat crossover for given sizes")
    p.add_argument("--n", required=True, help="sizes, e.g. 12 or 5-12 or 5,7,9")
    p.add_argument("--p-int", type=float, default=1.0, dest="p_int")
    p.add_argument("--p-neg", type=float, default=0.5, dest="p_neg")
    p.add_argument("--tolerance", type=float, default=0.02)
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cache", help="calibration file (default: cache directory)")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("generate", help="generate a balanced dataset as JSON Lines")
    p.add_argument("--fragment", choices=sorted(FRAGMENTS))
    p.add_argument("--sizes", help="e.g. 5-12, 5..12, or 6,8,10")
    p.add_argument(
        "--per-size", "--count-per-size", type=int, dest="count_per_size",
        help="instances per size (balanced, so must be even)",
    )
    p.add_argument("--seed", type=int, help="master seed (or give seed in --config)")
    p.add_argument("--strategy", choices=sorted(STRATEGIES))
    p.add_argument("--p-int", type=float, dest="p_int")
    p.add_argument("--p-neg", type=float, dest="p_neg")
    p.add_argument("--splits", help="train,dev,test fractions, e.g. 0.8,0.1,0.1")
    p.add_argument(
        "--diversity-fraction", type=float, dest="diversity_fraction",
        help="share of hard-strategy draws taken from the widened band",
    )
    p.add_argument(
        "--no-balance", action="store_const", const=False, dest="balance_labels",
        help="accept every viable draw instead of balancing labels",
    )
    p.add_argument("--token-budget", type=int, dest="token_budget")
    p.add_argument("--max-decisions", type=int, dest="max_decisions")
    p.add_argument("--no-rewrite-prob", type=float, dest="no_rewrite_prob")
    p.add_argument("--nouns", dest="nouns_path", help="count-noun lexicon file")
    p.add_argument("--names", dest="names_path", help="proper-noun lexicon file")
    p.add_argument("--attributes", dest="attributes_path", help="attribute word list")
    p.add_argument("--entities", dest="entities_path", help="entity word list")
    p.add_argument(
        "--jobs", type=int,
        help="worker processes, at least 1 and at most one per size (default: all cores)",
    )
    p.add_argument("--config", help="JSON file with generation settings")
    p.add_argument("--cache", help="calibration file (default: cache directory)")
    p.add_argument("--out", required=True, help="output JSONL path")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("stats", help="summarize a dataset")
    p.add_argument("dataset")
    p.add_argument("--out", help="also write the report to this file")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("verify", help="re-derive every record from its text")
    p.add_argument("dataset")
    p.add_argument(
        "--max-decisions", type=int, default=DEFAULT_MAX_DECISIONS, dest="max_decisions"
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("parse", help="parse fragment text and print its DIMACS form")
    p.add_argument("--fragment", required=True, choices=sorted(FRAGMENTS))
    p.add_argument("--lenient", action="store_true")
    p.add_argument("--file", help="read the text from a file")
    p.add_argument("text", nargs="?", help="the sentences to parse")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("export-dimacs", help="write each record as a .cnf file")
    p.add_argument("dataset")
    p.add_argument("out_dir")
    p.set_defaults(func=cmd_export_dimacs)

    p = sub.add_parser("retrofit", help="print sample single-entity theories")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--p-int", type=float, default=1.0, dest="p_int")
    p.add_argument("--p-neg", type=float, default=0.5, dest="p_neg")
    p.add_argument("--alpha-min", type=float, default=1.0, dest="alpha_min")
    p.add_argument("--alpha-max", type=float, default=6.0, dest="alpha_max")
    p.add_argument("--attributes", help="attribute word list")
    p.add_argument("--entities", help="entity word list")
    p.set_defaults(func=cmd_retrofit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BudgetExhaustedError, GenerationStallError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    # DatasetError, FragmentError and ParseError are ValueErrors
    except (CalibrationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
