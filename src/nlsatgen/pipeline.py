"""Dataset generation: sample, label, verbalize, balance, split, verify.

Every candidate is a pure function of (master seed, fragment, size,
index): one draw, rejected or turned into ``{label: build}``, one
zero-argument builder per label it can carry, each of which makes its
record with ``_record``.  A size's records depend only on its own
candidates and quota, so the unit of work is one size: a collector
takes its candidates in index order until each label's quota (exactly
half per size) or, unbalanced, the one shared quota is met, and builds
only the record it takes.  Builders stay in the process that collects
the size.  Output is thus byte-identical at any worker count.

Records are emitted as JSON Lines: a header object first, then one
object per instance, keys sorted.  :func:`verify_dataset` re-derives
each record from its text on the same signed-int cores: the parsers'
``_parse`` cores through ``fragments._parse_formula``, ``cnf._dimacs``,
``solver._dpll`` and ``solver._entailment``.
"""

from __future__ import annotations

import itertools
import json
import statistics
from collections import deque
from contextlib import closing
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import partial
from pathlib import Path
from random import Random

from . import grl, lexicon as lexicon_mod, rcl, ruletaker
from .cnf import _dimacs, _IntCnf, from_dimacs
from .fileio import atomic_writer
from .fragments import (
    FRAGMENTS,
    GRL,
    RCL,
    RULETAKER,
    FragmentError,
    ParseError,
    _check_words,
    _packaged_vocab,
    _parse_formula,
    _reindex,
    bind_vocabulary,
)
from .rng import _seed_maker, derive_rng
from .sampler import (
    DIVERSITY_FRACTION,
    HARD,
    NAIVE,
    STRATEGIES,
    SampleSpec,
    _clause_stream,
    _draw_clauses,
    _missing_band,
    draw_m,
)
from .solver import (
    CONTRADICTED,
    DEFAULT_MAX_DECISIONS,
    ENTAILED,
    SAT,
    UNSAT,
    BudgetExhaustedError,
    DegenerateTheoryError,
    _dpll,
    _entailment,
)

SCHEMA_VERSION = 1
SPLIT_NAMES = ("train", "dev", "test")
STALL_WINDOW = 2000
STALL_MIN_ACCEPTS = 20  # under 1% acceptance over the window

SAT_LABELS = (SAT, UNSAT)
RT_LABELS = (ruletaker.LABEL_TRUE, ruletaker.LABEL_FALSE)

# The word-list settings each fragment takes; rcl needs both of its lists.
_WORD_LISTS = {
    GRL: ("nouns_path",),
    RCL: ("nouns_path", "names_path"),
    RULETAKER: ("attributes_path", "entities_path"),
}


class GenerationStallError(RuntimeError):
    """Candidate acceptance collapsed; the configuration is infeasible."""


class DatasetError(ValueError):
    """A dataset file that cannot be used as requested."""


def _check_sizes_distinct(sizes) -> None:
    """Refuse a size list that names a size twice; generate and calibrate share it."""
    if len(set(sizes)) != len(sizes):
        raise ValueError("sizes repeat")


@dataclass(frozen=True)
class DatasetConfig:
    """Everything that determines a dataset's content."""

    fragment: str
    sizes: tuple
    count_per_size: int
    seed: int
    strategy: str = HARD
    p_int: float = 1.0
    p_neg: float = 0.5
    splits: tuple = (Fraction(8, 10), Fraction(1, 10), Fraction(1, 10))
    diversity_fraction: float = DIVERSITY_FRACTION
    balance_labels: bool = True
    token_budget: int = 30
    max_decisions: int = DEFAULT_MAX_DECISIONS
    no_rewrite_prob: float = rcl.DEFAULT_NO_REWRITE_PROB
    nouns_path: str = None
    names_path: str = None
    attributes_path: str = None
    entities_path: str = None

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(self.sizes))
        if not all(_is_int(s) for s in self.sizes):
            raise ValueError(f"sizes must be integers, got {list(self.sizes)!r}")
        object.__setattr__(
            self, "splits", tuple(Fraction(str(s)) for s in self.splits)
        )
        for setting in fields(self):
            value = getattr(self, setting.name)
            if setting.type == "int" and not _is_int(value):
                raise ValueError(f"{setting.name} must be an integer, got {value!r}")
            if setting.type == "float" and not (_is_int(value) or isinstance(value, float)):
                raise ValueError(f"{setting.name} must be a number, got {value!r}")
        if self.fragment not in FRAGMENTS:
            raise ValueError(f"unknown fragment {self.fragment!r}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if not self.sizes:
            raise ValueError("need at least one size")
        _check_sizes_distinct(self.sizes)
        if self.count_per_size < 1:
            raise ValueError("count_per_size must be positive")
        if self.balance_labels and self.count_per_size % 2:
            raise ValueError("count_per_size must be even (labels are balanced exactly)")
        if not 0.0 <= self.p_int <= 1.0 or not 0.0 <= self.p_neg <= 1.0:
            raise ValueError("p_int and p_neg must lie in [0, 1]")
        if not 0.0 <= self.diversity_fraction <= 1.0:
            raise ValueError("diversity_fraction must lie in [0, 1]")
        if not 0.0 <= self.no_rewrite_prob <= 1.0:
            raise ValueError(f"no_rewrite_prob must lie in [0, 1], got {self.no_rewrite_prob}")
        if self.max_decisions < 0:
            raise ValueError(f"max_decisions must be non-negative, got {self.max_decisions}")
        if len(self.splits) != 3 or any(s < 0 for s in self.splits):
            raise ValueError("splits must be three non-negative fractions")
        if sum(self.splits) != 1:
            raise ValueError(f"splits must sum to 1, got {self.splits}")
        for size in self.sizes:
            if size < 3:
                raise ValueError(f"size {size} too small (need at least 3 variables)")
            if self.fragment == RCL and not rcl.feasible_predicate_counts(size):
                raise ValueError(
                    f"size {size} has no predicate count in 5..8 dividing it "
                    "with at least 2 constants"
                )
        if self.fragment == RCL and self.p_int != 1.0:
            raise ValueError("the quantified fragment renders width-3 clauses only")
        takes = _WORD_LISTS[self.fragment]
        given = [
            f.name for f in fields(self)
            if f.name.endswith("_path") and getattr(self, f.name) is not None
        ]
        for name in given:
            if name not in takes:
                raise ValueError(f"{self.fragment} takes no {_flag(name)} word list")
        if self.fragment == RCL and len(given) == 1:
            (missing,) = set(takes) - set(given)
            raise ValueError(f"rcl needs {_flag(missing)} with {_flag(given[0])}")

    @property
    def labels(self) -> tuple:
        return _labels(self.fragment)


def _flag(name) -> str:
    """The generate flag of a word-list setting: nouns_path is --nouns."""
    return "--" + name.removesuffix("_path")


def _labels(fragment) -> tuple:
    """The labels a fragment's records carry, in quota order."""
    return RT_LABELS if fragment == RULETAKER else SAT_LABELS


def load_vocabulary(config: DatasetConfig):
    """The lexicon (or attribute vocabulary) the fragment renders with."""
    if config.fragment == RULETAKER:
        default = _packaged_vocab(RULETAKER)
        attributes, entities = config.attributes_path, config.entities_path
        return ruletaker.RetrofitVocab(
            default.attributes if attributes is None else lexicon_mod.load_wordlist(attributes),
            default.entities if entities is None else lexicon_mod.load_wordlist(entities),
        )
    if config.nouns_path is None:
        return _packaged_vocab(config.fragment)
    return lexicon_mod.load_lexicon(config.nouns_path, config.names_path)


def _check_vocabulary_capacity(config: DatasetConfig, vocab) -> None:
    biggest = max(config.sizes)
    try:
        if config.fragment == GRL:
            _check_words("lexicon", vocab.count_nouns, "count nouns", biggest)
        elif config.fragment == RCL:
            preds = max(p for size in config.sizes for p in rcl.feasible_predicate_counts(size))
            consts = max(size // min(rcl.feasible_predicate_counts(size)) for size in config.sizes)
            _check_words("lexicon", vocab.count_nouns, "count nouns", preds)
            _check_words("lexicon", vocab.proper_nouns, "proper nouns", consts)
        else:
            _check_words("vocabulary", vocab.attributes, "attributes", biggest)
    except FragmentError as exc:
        raise DatasetError(str(exc)) from None


def bands_for_config(config: DatasetConfig, table) -> dict:
    """Resolve the critical band per size, or raise for missing calibration."""
    bands = {}
    for size in config.sizes:
        band = None
        if config.strategy != NAIVE:
            band = table.band_for(size, config.p_int, config.p_neg) if table else None
            if band is None:
                raise _missing_band(size, config.p_int, config.p_neg)
        bands[size] = band
    return bands


def _record(config, band, size, index, m, n_vars, n_clauses, text, dimacs, stats, label) -> dict:
    """The fields every record carries; a candidate adds its fragment's extras.

    The draw asked for ``m`` clauses over ``size`` variables, so alpha is
    m/size, and a hard draw whose alpha lies outside the calibrated band
    is flagged as a diversity draw.
    """
    alpha = Fraction(m, size)
    return {
        "id": f"{config.fragment}-n{size}-{index:06d}",
        "fragment": config.fragment,
        "size": size,
        "seed_index": index,
        "strategy": config.strategy,
        "text": text,
        "n_vars": n_vars,
        "n_clauses": n_clauses,
        "alpha": str(alpha),
        "stats": stats.as_dict(),
        "dimacs": dimacs,
        "diversity": config.strategy == HARD and not band[0] <= alpha <= band[1],
        "label": label,
    }


# The candidates chain the private int cores of each layer (draw,
# retrofit, reindex, ground, solve, conjecture pools, render, DIMACS)
# and build no clause objects; the DIMACS core checks every clause it
# writes.  Verification parses with the parsers' int cores and reaches
# the same DIMACS and DPLL cores, so it builds none either.


def _grl_candidate(config, band, vocab, size, index, rng, spec):
    m = draw_m(spec, config.strategy, band, rng, config.diversity_fraction)
    try:
        f, _ = _reindex(_IntCnf(size, _draw_clauses(spec, m, rng)))
    except FragmentError:
        return None  # some variable never occurs; the text could not mention it
    result = _dpll(size, f.clauses, config.max_decisions)
    binding = bind_vocabulary(f, vocab, rng)
    text = " ".join(grl._render(f.clauses, binding, config.token_budget))
    return {result.label: lambda: _record(
        config, band, size, index, m, size, m, text, _dimacs(f), result.stats, result.label
    )}


def _rcl_candidate(config, band, vocab, size, index, rng, spec):
    feasible = rcl.feasible_predicate_counts(size)
    n_preds = feasible[rng.randrange(len(feasible))]
    n_consts = size // n_preds
    m = draw_m(spec, config.strategy, band, rng, config.diversity_fraction)
    try:
        m_universal, m_ground = rcl.split_clause_budget(m, n_consts)
    except ValueError:
        return None  # clause budget cannot cover every constant
    problem = rcl._draw(n_preds, n_consts, m_universal, m_ground, config.p_neg, rng)
    try:
        problem, _, _ = rcl._reindex(problem)
    except FragmentError:
        return None  # some predicate never occurs; the text could not mention it
    # m clauses over n_preds * n_consts = size ground variables
    grounded = rcl._ground(problem)
    result = _dpll(grounded.n_vars, grounded.clauses, config.max_decisions)
    binding = bind_vocabulary(problem, vocab, rng)
    sentences = rcl._render(
        problem, binding, vocab, rng, config.no_rewrite_prob, config.token_budget
    )

    def build():
        record = _record(
            config, band, size, index, m, n_preds, m, " ".join(sentences),
            _dimacs(grounded), result.stats, result.label,
        )
        return record | {"n_ground_vars": grounded.n_vars, "n_constants": n_consts}

    return {result.label: build}


def _rt_candidate(config, band, vocab, size, index, rng, spec):
    m = draw_m(spec, config.strategy, band, rng, config.diversity_fraction)
    clauses = itertools.islice(_clause_stream(spec, rng), m)
    theory = ruletaker._retrofit(spec, clauses, rng, config.max_decisions)
    if theory is None:
        return None  # contradictory facts or unsatisfiable rules
    try:
        theory, _ = _reindex(theory)
    except FragmentError:
        return None  # some attribute never occurs; the text could not mention it
    pools = ruletaker._conjecture_pools(theory, config.max_decisions)
    true, false = RT_LABELS
    if not pools[false]:  # "true" is then empty too: both come from the backbone
        return None  # theory neither entails nor refutes any literal
    # Draw both label options in a fixed order so the byte stream does
    # not depend on which one the collector ends up needing.
    picks = {label: pools[label][rng.randrange(len(pools[label]))] for label in RT_LABELS}
    # The natural label goes first: uniform over all decidable conjectures.
    if rng.randrange(len(pools[true]) + len(pools[false])) >= len(pools[true]):
        picks = dict(reversed(picks.items()))
    binding = ruletaker.bind_attributes(theory, vocab, rng)
    # each conjecture is one more fact, written after the theory's sentences
    t = _IntCnf(theory.n_vars, theory.clauses + [(q,) for q in picks.values()])
    sentences = ruletaker._render(t, binding, config.token_budget)
    text = " ".join(sentences[:-2])

    def build(label, conjecture, conjecture_text):
        # The pools decided the label; this DPLL solve only measures the
        # refutation, and verify re-decides the label with its own solves.
        stats = ruletaker._refutation(theory, conjecture, label, config.max_decisions).stats
        record = _record(
            config, band, size, index, m, size, len(theory.clauses), text, _dimacs(theory),
            stats, label,
        )
        return record | {"conjecture_text": conjecture_text}

    offers = zip(picks.items(), sentences[-2:])
    return {label: partial(build, label, q, q_text) for (label, q), q_text in offers}


_CANDIDATE_FNS = {GRL: _grl_candidate, RCL: _rcl_candidate, RULETAKER: _rt_candidate}

# generate_candidate's (config, size, seed maker, SampleSpec) for the size
# it drew last, matched by identity: an equal config or size that formats
# differently never shares its seeds, and the slot keeps both ids alive.
_size_setup = (None, None, None, None)


def generate_candidate(config: DatasetConfig, band, vocab, size: int, index: int):
    """Candidate (size, index) as ``{label: build}``, or None when rejected.

    A draw offers one record per label it can carry, natural label first:
    the label it gets when labels are not balanced.  Only a ruletaker
    draw can offer both.  ``build()`` makes that label's record; the
    draw, the solve that labels it and every RNG call happen before it
    returns, so a builder uses no RNG and the collector builds only the
    record it takes.  For ruletaker that skips the refutation solve and
    the DIMACS of each offer it drops, but both conjectures are written,
    and checked against the token budget, with the draw.
    The draw's RNG is ``derive_rng(config.seed, config.fragment, size,
    index)``, with its key's prefix hashed once per size.
    """
    global _size_setup
    held_config, held_size, seed, spec = _size_setup
    if held_config is not config or held_size is not size:
        seed = _seed_maker(config.seed, config.fragment, size)
        # rcl draws width-3 clauses, ruletaker with replacement
        p_int = 1.0 if config.fragment == RCL else config.p_int
        spec = SampleSpec(size, p_int, config.p_neg, config.fragment == RULETAKER)
        _size_setup = (config, size, seed, spec)
    rng = Random(seed(index))
    return _CANDIDATE_FNS[config.fragment](config, band, vocab, size, index, rng, spec)


def _collect_size(config, stream, size) -> list:
    """Accept candidates in index order until every label meets its quota.

    With label balancing off, every viable candidate counts toward one
    shared quota under its natural label instead.  Only the taken
    label's record is built.
    """
    if config.balance_labels:
        need = dict.fromkeys(config.labels, config.count_per_size // 2)
    else:
        need = {None: config.count_per_size}
    window = deque()
    window_accepts = 0
    accepted = []
    for options in stream:
        take = None
        if options is not None and not config.balance_labels:
            take = next(iter(options))
        elif options is not None:
            open_labels = [lab for lab in config.labels if need[lab] and lab in options]
            if open_labels:
                # Largest remaining need wins; ties go to the first label.
                take = max(open_labels, key=need.get)
        window.append(take is not None)
        window_accepts += take is not None
        if len(window) > STALL_WINDOW:
            window_accepts -= window.popleft()
        if take is not None:
            need[take if config.balance_labels else None] -= 1
            accepted.append(options[take]())
            if not any(need.values()):
                return accepted
        elif len(window) == STALL_WINDOW and window_accepts < STALL_MIN_ACCEPTS:
            raise GenerationStallError(
                f"size {size}: {window_accepts}/{STALL_WINDOW} candidates accepted; "
                f"still need {need}; the configuration looks infeasible"
            )
    raise AssertionError("candidate stream is infinite")


def _largest_remainder(total: int, fractions) -> list:
    exact = [Fraction(f) * total for f in fractions]
    counts = [int(e) for e in exact]
    order = sorted(range(len(exact)), key=lambda i: (exact[i] - counts[i], -i), reverse=True)
    for i in order[: total - sum(counts)]:
        counts[i] += 1
    return counts


def assign_splits(config: DatasetConfig, records: list) -> None:
    """Stratified train/dev/test split per (size, label), in place.

    Instances flagged as diversity draws are kept out of evaluation:
    a deterministic pass swaps each one in dev/test with an unflagged
    train record from the same cell.
    """
    cells = {}
    for rec in records:
        cells.setdefault((rec["size"], rec["label"]), []).append(rec)
    for (size, label), cell in sorted(cells.items()):
        counts = _largest_remainder(len(cell), config.splits)
        order = list(range(len(cell)))
        derive_rng(config.seed, "split", size, label).shuffle(order)
        names = [None] * len(cell)
        at = 0
        for split_name, k in zip(SPLIT_NAMES, counts):
            for pos in order[at:at + k]:
                names[pos] = split_name
            at += k
        for rec, name in zip(cell, names):
            rec["split"] = name
        train_pool = [r for r in cell if r["split"] == "train" and not r["diversity"]]
        for rec in cell:
            if rec["diversity"] and rec["split"] != "train" and train_pool:
                swap = train_pool.pop()
                swap["split"], rec["split"] = rec["split"], "train"


def dataset_header(config: DatasetConfig) -> dict:
    return {
        "kind": "header",
        "schema_version": SCHEMA_VERSION,
        "tool": "nlsatgen",
        "fragment": config.fragment,
        "sizes": list(config.sizes),
        "count_per_size": config.count_per_size,
        "seed": config.seed,
        "strategy": config.strategy,
        "p_int": config.p_int,
        "p_neg": config.p_neg,
        "splits": [str(s) for s in config.splits],
        "diversity_fraction": config.diversity_fraction,
        "balance_labels": config.balance_labels,
        "token_budget": config.token_budget,
    }


def _size_records(task) -> list:
    """The records of one size; ``task`` is (config, band, vocab, size)."""
    config, band, vocab, size = task
    stream = (generate_candidate(config, band, vocab, size, i) for i in itertools.count())
    return _collect_size(config, stream, size)


def __getattr__(name):
    """Import multiprocessing, as a patchable global, once a pooled run needs it."""
    if name != "multiprocessing":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    global multiprocessing
    import multiprocessing

    return multiprocessing


def generate_records(config: DatasetConfig, table=None, jobs: int = 1) -> list:
    """Generate the full dataset; returns records with splits assigned.

    The work unit is one size.  ``jobs`` only sets how many processes
    generate sizes, at most one per size; the output is byte-identical
    at any value, which must be at least 1.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    vocab = load_vocabulary(config)
    _check_vocabulary_capacity(config, vocab)
    bands = bands_for_config(config, table)
    tasks = [(config, bands[size], vocab, size) for size in config.sizes]
    workers = min(jobs, len(tasks))
    if workers <= 1:
        per_size = map(_size_records, tasks)
    else:
        # a patched pipeline.multiprocessing (the module global) is used as is
        mp = globals().get("multiprocessing") or __getattr__("multiprocessing")
        with mp.Pool(workers) as pool:
            per_size = pool.map(_size_records, tasks)
    records = [rec for size_records in per_size for rec in size_records]
    assign_splits(config, records)
    return records


def write_dataset(path, config: DatasetConfig, records: list) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_writer(path) as fh:
        fh.write(json.dumps(dataset_header(config), sort_keys=True) + "\n")
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _stream_dataset(path):
    """Yield a dataset's header, then its records one at a time.

    Lines and their numbers are those of ``str.splitlines()`` on the whole
    text, so a form feed or a U+2028 ends a line; the file is closed when
    the stream ends, fails or is closed.
    """
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            lines = (line for text in fh for line in text.splitlines())
            first = next(lines, None)
            if first is None:
                raise DatasetError(f"{path}: empty file")
            try:
                header = json.loads(first)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"{path}: line 1 is not JSON: {exc}") from None
            if not isinstance(header, dict) or header.get("kind") != "header":
                raise DatasetError(f"{path}: first line must be the header object")
            version = header.get("schema_version")
            # True and 1.0 equal 1, but are not the int a writer puts there
            if not _is_int(version) or version != SCHEMA_VERSION:
                raise DatasetError(f"{path}: schema_version {version!r} unsupported")
            yield header
            rec = None
            for line_no, line in enumerate(lines, start=2):
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DatasetError(f"{path}: line {line_no} is not JSON: {exc}") from None
                if not isinstance(rec, dict):
                    raise DatasetError(f"{path}: line {line_no} is not a JSON object")
                yield rec
            if rec is None:
                raise DatasetError(f"{path}: no instance records")
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: not UTF-8: {exc.reason}") from None


def read_dataset(path) -> tuple:
    """Returns (header, records); raises DatasetError on malformed files."""
    header, *records = _stream_dataset(path)
    return header, records


@dataclass(frozen=True)
class VerifyIssue:
    record_id: str
    kind: str  # parse | dimacs | label | field | balance
    message: str

    def __str__(self):
        return f"{self.record_id}: {self.kind}: {self.message}"


def _verify_record(rec: dict, vocab, max_decisions: int, issues: list) -> None:
    """Append the record's issues to ``issues``, as they are found."""
    rid = rec.get("id", "<missing id>")
    fragment = rec.get("fragment")

    def bad(kind, message):
        issues.append(VerifyIssue(rid, kind, message))

    def count(key, expected):  # 6.0 == 6, so the type is checked too
        if not _is_int(rec.get(key)) or rec[key] != expected:
            bad("field", f"{key} {rec.get(key)} != {expected}")

    for key in ("text", "label", "dimacs", "n_vars", "n_clauses"):
        if key not in rec:
            bad("field", f"missing {key}")
            return
    for key in ("text", "label", "conjecture_text"):
        if key in rec and not isinstance(rec[key], str):
            bad("field", f"bad {key} {rec[key]!r}")
            return
    try:
        formula, parsed = _parse_formula(rec["text"], fragment, vocab, strict=True)
    except (ParseError, FragmentError, ValueError) as exc:
        bad("parse", str(exc))
        return
    n_vars, clauses = formula
    expected_n_vars = n_vars
    if fragment == RCL:
        problem = parsed[0]
        expected_n_vars = problem.n_predicates
        count("n_ground_vars", n_vars)
        count("n_constants", problem.n_constants)
    if _dimacs(formula) != rec["dimacs"]:
        bad("dimacs", "stored formula differs from the parsed text")
    count("n_vars", expected_n_vars)
    count("n_clauses", len(clauses))
    if fragment == RULETAKER:
        if "conjecture_text" not in rec:
            bad("field", "missing conjecture_text")
            return
        try:
            conjecture = ruletaker._parse_conjecture(rec["conjecture_text"], vocab, parsed[1])
        except (ParseError, ValueError) as exc:
            bad("parse", f"conjecture: {exc}")
            return
        try:
            status, stats = _entailment(n_vars, clauses, conjecture, max_decisions)
        except DegenerateTheoryError as exc:
            bad("label", f"{exc}; record says {rec['label']!r}")
            return
        expected = {
            ruletaker.LABEL_TRUE: ENTAILED,
            ruletaker.LABEL_FALSE: CONTRADICTED,
        }.get(rec["label"])
        if expected is None:
            bad("label", f"unknown label {rec['label']!r}")
        elif status != expected:
            bad("label", f"conjecture is {status}, record says {rec['label']!r}")
        # retrofit keeps at most the m clauses it drew, and alpha is m / n_vars
        alpha = rec.get("alpha")
        try:
            m = Fraction(alpha) * n_vars
            fits = str(Fraction(alpha)) == alpha and m.denominator == 1 and m >= len(clauses)
        except (TypeError, ValueError, ZeroDivisionError):
            fits = False
        if not fits:
            bad("field", f"alpha {alpha!r} is not m/{n_vars} with m >= {len(clauses)}")
    else:
        result = _dpll(n_vars, clauses, max_decisions)
        stats = result.stats
        if result.label != rec["label"]:
            bad("label", f"formula is {result.label}, record says {rec['label']!r}")
        expected_alpha = str(Fraction(len(clauses), n_vars)) if n_vars else None
        if expected_alpha is not None and rec.get("alpha") != expected_alpha:
            bad("field", f"alpha {rec.get('alpha')!r} != {expected_alpha!r}")
    # the solve that decided the label (for ruletaker, the refuting one)
    # is the solve whose effort the record states
    if stats is not None and (
        rec.get("stats") != stats.as_dict() or not all(map(_is_int, rec["stats"].values()))
    ):
        bad("field", f"stats {rec.get('stats')!r} != {stats.as_dict()!r}")


def verify_dataset(path, max_decisions: int = DEFAULT_MAX_DECISIONS) -> list:
    """Re-derive every record from its text; returns all mismatches found.

    Each record's sentences are re-parsed strictly, the parsed logical
    form must serialize to exactly the stored DIMACS, and re-solving
    (or re-checking the conjecture) must reproduce the stored label and,
    from that same solve, the stored ``stats``: the label solve for grl
    and rcl, the refuting solve for ruletaker.  A record's id must be
    built from its fragment, size and seed_index, its strategy must be
    the header's, and only a hard record may be a diversity draw.
    Per-size label balance is checked dataset-wide.  Parsing, solving
    and the DIMACS comparison run on the signed-int cores and build no
    clause objects.  A solve that needs more than ``max_decisions``
    decisions stops the check with a ``BudgetExhaustedError`` that names
    the record and holds, as ``issues``, every issue found before it.

    Records are read and checked one at a time, keeping only the ids and
    a label count per size, so a malformed line raises ``DatasetError``
    (as from ``read_dataset``) only after the records before it are
    checked: one whose solve runs out of budget raises its error first.
    """
    return _verify(path, max_decisions)[0]


def _verify(path, max_decisions: int) -> tuple:
    """``verify_dataset``'s issues and the number of records read, in one pass."""
    if max_decisions < 0:
        raise ValueError(f"max_decisions must be non-negative, got {max_decisions}")
    with closing(_stream_dataset(path)) as stream:
        header = next(stream)
        fragment = header.get("fragment")
        vocab = _packaged_vocab(fragment)
        labels = _labels(fragment)
        issues = []
        seen_ids = set()
        by_size = {}  # size -> count per label of ``labels``
        for count, rec in enumerate(stream, start=1):
            rid = rec.get("id", "<missing id>")
            if not isinstance(rid, str):
                issues.append(VerifyIssue(rid, "field", f"bad id {rid!r}"))
            elif rid in seen_ids:
                issues.append(VerifyIssue(rid, "field", "duplicate id"))
            else:
                seen_ids.add(rid)
            if rec.get("fragment") != fragment:
                issues.append(VerifyIssue(rid, "field", "fragment differs from header"))
                continue
            if rec.get("split") not in SPLIT_NAMES:
                issues.append(VerifyIssue(rid, "field", f"bad split {rec.get('split')!r}"))
            try:
                _verify_record(rec, vocab, max_decisions, issues)
            except BudgetExhaustedError as exc:
                error = BudgetExhaustedError(f"record {rid}: {exc}")
                error.issues = issues
                raise error from None
            size = rec.get("size")
            if _is_int(size):
                counts = by_size.setdefault(size, dict.fromkeys(labels, 0))
                if rec.get("label") in labels:
                    counts[rec["label"]] += 1
            else:
                issues.append(VerifyIssue(rid, "field", f"bad size {size!r}"))
            issues.extend(_origin_issues(rec, rid, size, header))
    if header.get("balance_labels") is False:
        return issues, count
    for size, counts in sorted(by_size.items()):
        if len(set(counts.values())) != 1:
            issues.append(
                VerifyIssue(
                    f"{fragment}-n{size}", "balance",
                    f"labels are not balanced: {counts}",
                )
            )
    return issues, count


def _origin_issues(rec: dict, rid, size, header: dict) -> list:
    """Check the fields that say where a record came from against the header.

    The text cannot show them, but the id is built from the others, the
    strategy is the dataset's, and only hard draws can be diversity draws.
    """
    issues = []
    strategy = header.get("strategy")
    index = rec.get("seed_index")
    if not _is_int(index) or index < 0:
        issues.append(VerifyIssue(rid, "field", f"bad seed_index {index!r}"))
    elif _is_int(size) and isinstance(rid, str):
        expected = f"{header.get('fragment')}-n{size}-{index:06d}"
        if rec.get("id") != expected:
            issues.append(VerifyIssue(rid, "field", f"id {rec.get('id')!r} != {expected!r}"))
    if rec.get("strategy") != strategy:
        issues.append(
            VerifyIssue(rid, "field", f"strategy {rec.get('strategy')!r} != header's {strategy!r}")
        )
    diversity = rec.get("diversity")
    if not isinstance(diversity, bool) or (diversity and strategy != HARD):
        issues.append(
            VerifyIssue(rid, "field", f"bad diversity {diversity!r} for strategy {strategy!r}")
        )
    return issues


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _require_keys(path, records, keys) -> None:
    for rec in records:
        for key in keys:
            if key not in rec:
                rid = rec.get("id", "<missing id>")
                raise DatasetError(f"{path}: record {rid} has no {key!r}")


def stats_report(path) -> str:
    """Human-readable summary: counts, balance, splits, solver effort."""
    header, records = read_dataset(path)
    _require_keys(path, records, ("size", "label", "split", "stats"))
    for rec in records:
        rid = rec.get("id", "<missing id>")
        if not _is_int(rec["size"]):
            raise DatasetError(f"{path}: record {rid} has a non-integer 'size'")
        for key in ("label", "split"):
            if not isinstance(rec[key], str):
                raise DatasetError(f"{path}: record {rid} has a non-string {key!r}")
        stats = rec["stats"]
        for key in ("decisions", "conflicts"):
            value = stats.get(key) if isinstance(stats, dict) else None
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise DatasetError(f"{path}: record {rid} has no numeric 'stats.{key}'")
    labels = _labels(header.get("fragment"))
    lines = [
        f"fragment: {header.get('fragment')}",
        f"strategy: {header.get('strategy')}",
        f"instances: {len(records)}",
    ]
    label_counts = {lab: 0 for lab in labels}
    split_counts = {name: 0 for name in SPLIT_NAMES}
    for rec in records:
        label_counts[rec["label"]] = label_counts.get(rec["label"], 0) + 1
        split_counts[rec["split"]] = split_counts.get(rec["split"], 0) + 1
    lines.append(
        "labels: " + ", ".join(f"{lab} {label_counts[lab]}" for lab in label_counts)
    )
    lines.append(
        "splits: " + ", ".join(f"{name} {split_counts[name]}" for name in split_counts)
    )
    by_size = {}
    for rec in records:
        by_size.setdefault(rec["size"], []).append(rec)
    for size in sorted(by_size):
        recs = by_size[size]
        decisions = [r["stats"]["decisions"] for r in recs]
        conflicts = [r["stats"]["conflicts"] for r in recs]
        balance = "/".join(
            str(sum(r["label"] == lab for r in recs)) for lab in labels
        )
        lines.append(
            f"size {size}: count {len(recs)}, "
            f"labels {balance}, "
            f"decisions mean {statistics.mean(decisions):.1f} "
            f"median {statistics.median(decisions):.1f}, "
            f"conflicts mean {statistics.mean(conflicts):.1f} "
            f"median {statistics.median(conflicts):.1f}"
        )
    return "\n".join(lines) + "\n"


def export_dimacs_files(path, out_dir) -> int:
    """Write each record's formula as <id>.cnf; returns the file count.

    Every record is checked before the first file is written, so a bad
    record leaves no partial export behind.  A repeated id is refused:
    its second file would replace the first.
    """
    _, records = read_dataset(path)
    _require_keys(path, records, ("id", "dimacs"))
    names = set()
    for rec in records:
        for key in ("id", "dimacs"):
            if not isinstance(rec[key], str):
                raise DatasetError(f"{path}: record {rec['id']} has a non-string {key!r}")
        from_dimacs(rec["dimacs"])  # refuse to export corrupt formulas
        name = rec["id"]
        if not name or "/" in name or "\\" in name or name.startswith("."):
            raise DatasetError(f"unsafe record id {name!r}")
        if name in names:
            raise DatasetError(f"{path}: record id {name!r} repeats")
        names.add(name)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for rec in records:
        (out / f"{rec['id']}.cnf").write_text(rec["dimacs"], encoding="utf-8")
    return len(records)
