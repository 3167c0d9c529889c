"""nlsatgen benchmark: generate, verify and calibrate, timed and checked.

Run from the repository root:

    python3 bench/run.py                                # every workload
    python3 bench/run.py --workload gen_sat --seed 108 --seconds 20
    python3 bench/run.py --workload gen_rt --trace 1    # per-layer run

Each workload is a batch job run in one process through the package's
public functions.  A generate workload writes a dataset per fragment
with ``generate_records`` and ``write_dataset`` (the write side), then
re-reads it with ``verify_dataset`` (the read side).  The calibrate
workload runs ``calibrate_critical`` and saves the table (write side),
then loads it with ``CalibrationTable.load`` and re-checks each band
(read side).  A run repeats its job, with a new dataset seed each time,
for ``--seconds``, and reports medians over the repeats.

All times are taken by ``steady.SteadyClock``, which scales program
time by the host speed it measures while the job runs; the raw figures
are printed beside the steady ones.  Correctness is checked after the
timed part: ``verify_dataset`` must find no issue, every label must
match a brute-force solve, a parallel dataset must equal the serial
one byte for byte, and each calibrated band must hold P_sat near 0.5.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of one traced job (see ``tracing.py``).  Full reports and span files go
to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
TABLE_PATH = HERE / "data" / "calibration.txt"

DEFAULT_SEED = 108
DEFAULT_SECONDS = 30
P_INT, P_NEG = 1.0, 0.5
CALIBRATION_SEED = 0    # the acceptance fixture's setting; fixes the job
CHECK_TRIALS = 1000     # brute-force trials per calibrated band midpoint
CHECK_MARGIN = 0.15     # allowed |P_sat - 0.5| at a midpoint, plus 95% CI
SETUP_PROBES = 9
POOL_JOBS = max(2, os.cpu_count() or 1)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    datasets: tuple = ()     # (fragment, sizes, records per size)
    calibrate: tuple = ()    # sizes to calibrate
    pool_check: bool = False  # also make the first dataset with the pool


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "gen_sat",
            "grl then rcl generate and verify at jobs=1: clause sampling, "
            "reindexing, rendering and DIMACS dominate and solve is small",
            datasets=(("grl", (10, 12), 150), ("rcl", (10, 12), 150)),
            pool_check=True,
        ),
        Workload(
            "gen_rt",
            "ruletaker generate and verify at jobs=1: retrofit, conjecture pools "
            "and about 22 solves per record dominate",
            datasets=(("ruletaker", (6, 8), 60),),
        ),
        Workload(
            "calibrate",
            "calibrate_critical for n=8 and n=10, then a brute-force band check: "
            "sampler and solve only, no rendering or pipeline",
            calibrate=(8, 10),
        ),
    )
}

FRAGMENT_KEYS = {"grl": "grl", "rcl": "rcl", "ruletaker": "rt"}


def import_package():
    """Import nlsatgen from this checkout's ``src``, and nothing else."""
    if not (SRC / "nlsatgen" / "__init__.py").is_file():
        raise SystemExit(f"error: package source not found at {SRC / 'nlsatgen'}")
    sys.path.insert(0, str(SRC))
    import nlsatgen

    if Path(nlsatgen.__file__).resolve().parent != (SRC / "nlsatgen").resolve():
        raise SystemExit(f"error: imported nlsatgen from {nlsatgen.__file__}, not {SRC}")
    return nlsatgen


def chunk_seeds(master_seed: int):
    """The master seed, then a seed stream drawn from it."""
    yield master_seed
    rng = random.Random(master_seed)
    while True:
        yield rng.randrange(2**31)


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def elapsed(t0: tuple, t1: tuple) -> list:
    """[steady, raw] seconds between two ``SteadyClock.reading()`` values."""
    return [t1[0] - t0[0], t1[1] - t0[1]]


def job_digests(job: dict) -> list:
    if "checks" in job:
        return [sha256(job["path"])]
    return [sha256(ds["path"]) for ds in job["datasets"]]


def environment() -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True, timeout=30,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
    }


# -- jobs -------------------------------------------------------------


class Jobs:
    """One batch job of a workload, timed on the steady clock."""

    def __init__(self, nl, workload: Workload, clock, workdir: Path):
        self.nl = nl
        self.workload = workload
        self.clock = clock
        self.workdir = workdir
        self.table = nl.CalibrationTable.load(TABLE_PATH)

    def run(self, seed: int, tag: str, tracer=None) -> dict:
        if self.workload.calibrate:
            return self.calibrate(seed, tag)
        return self.generate(seed, tag, tracer)

    def config(self, fragment, sizes, per_size, seed):
        return self.nl.DatasetConfig(
            fragment, sizes, per_size, seed, strategy="hard", p_int=P_INT, p_neg=P_NEG
        )

    def generate(self, seed: int, tag: str, tracer=None) -> dict:
        nl, clock = self.nl, self.clock
        job = {"seed": seed, "datasets": [], "gen": [0.0, 0.0], "verify": [0.0, 0.0]}
        gen_counts = []
        for fragment, sizes, per_size in self.workload.datasets:
            config = self.config(fragment, sizes, per_size, seed)
            path = self.workdir / f"{tag}-{fragment}-{seed}.jsonl"
            before = tracer.counts() if tracer else None
            t0 = clock.reading()
            records = nl.generate_records(config, self.table)
            nl.write_dataset(path, config, records)
            t1 = clock.reading()
            if tracer:
                gen_counts.append(count_delta(tracer.counts(), before))
            count = len(records)
            del records
            issues = nl.verify_dataset(path)
            t2 = clock.reading()
            gen, verify = elapsed(t0, t1), elapsed(t1, t2)
            job["datasets"].append({
                "fragment": fragment, "sizes": list(sizes), "per_size": per_size,
                "path": str(path), "records": count, "gen": gen, "verify": verify,
                "issues": [[i.record_id, i.kind, i.message] for i in issues],
            })
            for side, span in (("gen", gen), ("verify", verify)):
                job[side] = [job[side][0] + span[0], job[side][1] + span[1]]
        if tracer:
            job["gen_counts"] = gen_counts
        return job

    def pooled(self, seed: int, tag: str) -> dict:
        """The first dataset again, generated by ``POOL_JOBS`` processes."""
        fragment, sizes, per_size = self.workload.datasets[0]
        config = self.config(fragment, sizes, per_size, seed)
        path = self.workdir / f"{tag}-{fragment}-{seed}.jsonl"
        t0 = self.clock.reading()
        with self.clock.offloaded():
            records = self.nl.generate_records(config, self.table, jobs=POOL_JOBS)
        self.nl.write_dataset(path, config, records)
        t1 = self.clock.reading()
        return {"path": str(path), "records": len(records), "gen": elapsed(t0, t1)}

    def calibrate(self, seed: int, tag: str) -> dict:
        nl, clock = self.nl, self.clock
        sizes = self.workload.calibrate
        path = self.workdir / f"{tag}-calibration-{seed}.txt"
        t0 = clock.reading()
        table = nl.CalibrationTable()
        for n in sizes:
            result = nl.calibrate_critical(n, P_INT, P_NEG, seed=CALIBRATION_SEED)
            for alpha, p_hat, trials in result.points:
                table.add_point(n, P_INT, P_NEG, alpha, p_hat, trials)
            table.set_band(n, P_INT, P_NEG, *result.band)
        table.save(path)
        t1 = clock.reading()
        loaded = nl.CalibrationTable.load(path)
        checks = [check_band(nl, n, loaded.band_for(n, P_INT, P_NEG), seed) for n in sizes]
        t2 = clock.reading()
        return {
            "seed": seed, "path": str(path), "sizes": list(sizes), "checks": checks,
            "gen": elapsed(t0, t1), "verify": elapsed(t1, t2),
        }


def count_delta(after: dict, before: dict) -> dict:
    """Solve calls, decisions and candidates between two ``Tracer.counts()``."""
    calls = ("solver.solve", "pipeline.generate_candidate")
    delta = {name: after["calls"][name] - before["calls"][name] for name in calls}
    delta["decisions"] = after["decisions"] - before["decisions"]
    return delta


def check_band(nl, n: int, band, seed: int) -> dict:
    """Re-estimate P_sat at the band midpoint with the brute-force oracle.

    The formulas come from a stream seeded apart from calibration's own,
    and ``solve_bruteforce`` shares no code with the DPLL that
    calibration used, so a band that only fits its own samples fails.
    """
    lo, hi = band
    m = round((lo + hi) / 2 * n)
    spec = nl.SampleSpec(n=n, p_int=P_INT, p_neg=P_NEG)
    rng = random.Random(f"band-check:{seed}:{n}")
    sat = 0
    for _ in range(CHECK_TRIALS):
        formula = nl.CnfFormula(n, tuple(nl.sample_clause(spec, rng) for _ in range(m)))
        sat += nl.solve_bruteforce(formula).label == nl.SAT
    p_hat = sat / CHECK_TRIALS
    halfwidth = nl.wilson_halfwidth(p_hat, CHECK_TRIALS)
    return {
        "n": n, "band": [str(lo), str(hi)], "m": m, "p_sat": p_hat,
        "halfwidth": halfwidth, "ok": abs(p_hat - 0.5) <= CHECK_MARGIN + halfwidth,
    }


# -- correctness gate -------------------------------------------------


def oracle_failures(nl, path) -> list:
    """Record ids whose label a brute-force solve does not confirm.

    sat/unsat records: the label must equal ``solve_bruteforce`` on the
    record's DIMACS.  ruletaker records: the theory must be satisfiable
    and the theory plus the refuted side of the conjecture unsatisfiable.
    """
    bad = []
    vocab = None
    with open(path, encoding="utf-8") as fh:
        next(fh)  # header
        for line in fh:
            rec = json.loads(line)
            formula = nl.from_dimacs(rec["dimacs"])
            if rec["fragment"] != nl.RULETAKER:
                if nl.solve_bruteforce(formula).label != rec["label"]:
                    bad.append(rec["id"])
                continue
            if vocab is None:
                vocab = nl.RetrofitVocab(nl.default_attributes(), nl.default_entities())
            _, binding, _ = nl.parse_theory(rec["text"], nl.RULETAKER, vocab)
            q = nl.ruletaker.parse_conjecture(rec["conjecture_text"], vocab, binding)
            refuted = q.negate() if rec["label"] == nl.ruletaker.LABEL_TRUE else q
            with_refuted = nl.CnfFormula(
                formula.n_vars, formula.clauses + (nl.Clause((refuted,)),)
            )
            if (
                nl.solve_bruteforce(formula).label != nl.SAT
                or nl.solve_bruteforce(with_refuted).label != nl.UNSAT
            ):
                bad.append(rec["id"])
    return bad


def gate(nl, results: list, report: dict, pooled=()) -> None:
    """Check every output of the jobs; fills attempted, failed and correct.

    ``pooled`` are pool-made copies of the first job's first dataset,
    which must equal it byte for byte.
    """
    attempted = failed = 0
    digests = []
    for job in results:
        if "checks" in job:
            attempted += len(job["checks"])
            failed += sum(not c["ok"] for c in job["checks"])
            digests.append({"seed": job["seed"], "file": "calibration",
                            "sha256": sha256(job["path"])})
            continue
        for ds in job["datasets"]:
            bad = {record_id for record_id, _, _ in ds["issues"]}
            bad.update(oracle_failures(nl, ds["path"]))
            attempted += ds["records"]
            failed += len(bad)
            digests.append({"seed": job["seed"], "file": ds["fragment"],
                            "sha256": sha256(ds["path"])})
    report["digests"] = digests
    report["attempted"] = attempted
    report["failed"] = failed
    if pooled:
        serial = sha256(results[0]["datasets"][0]["path"])
        report["pool_equals_serial"] = all(sha256(p["path"]) == serial for p in pooled)
    report["correct"] = failed == 0 and report.get("pool_equals_serial", True)


# -- set-up time ------------------------------------------------------


def measure_setup() -> dict:
    """Median set-up time over fresh interpreters (after one warm-up)."""
    probe = [sys.executable, str(HERE / "setup_probe.py")]
    samples = []
    for i in range(SETUP_PROBES + 1):
        proc = subprocess.run(
            probe, capture_output=True, text=True, check=True, timeout=120, cwd=ROOT
        )
        if i:
            samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return {
        "steady": statistics.median(s["steady"] for s in samples),
        "raw": statistics.median(s["raw"] for s in samples),
        "samples": samples,
    }


# -- runs -------------------------------------------------------------


def timed_loop(jobs: Jobs, master_seed: int, seconds: float) -> list:
    """Repeat the job on new seeds; start no repeat that would overrun."""
    results = []
    start = time.perf_counter()
    for k, seed in enumerate(chunk_seeds(master_seed)):
        t0 = time.perf_counter()
        results.append(jobs.run(seed, f"c{k}"))
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return results


def median_pair(values) -> list:
    return [statistics.median(v[0] for v in values), statistics.median(v[1] for v in values)]


def summarize(workload: Workload, results: list) -> dict:
    """Medians over repeats: the end-to-end figures and the named rates."""
    summary = {
        "gen_s": median_pair([r["gen"] for r in results]),
        "verify_s": median_pair([r["verify"] for r in results]),
        "repeats": len(results),
    }
    named = {}
    if workload.calibrate:
        per_n = len(workload.calibrate)
        named["calibrate_s"] = ([g / per_n for g in summary["gen_s"]], "s")
    for i, (fragment, _, _) in enumerate(workload.datasets):
        key = FRAGMENT_KEYS[fragment]
        rows = [r["datasets"][i] for r in results]
        gen = median_pair([[d["records"] / s for s in d["gen"]] for d in rows])
        verify = median_pair([[d["records"] / s for s in d["verify"]] for d in rows])
        named[f"{key}.gen_rps"] = (gen, "rec/s")
        named[f"{key}.verify_rps"] = (verify, "rec/s")
    summary["named"] = named
    return summary


def run_plain(nl, jobs: Jobs, args, report: dict) -> dict:
    results = timed_loop(jobs, args.seed, args.seconds)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    pooled = []
    if jobs.workload.pool_check:
        pooled.append(jobs.pooled(results[0]["seed"], "pool"))
        report["pool"] = pooled[0]
    jobs.clock.stop()
    report["summary"] = summarize(jobs.workload, results)
    report["jobs"] = results
    gate(nl, results, report, pooled)
    report["setup"] = measure_setup()
    s = report["summary"]
    return {
        "gen_s": (s["gen_s"][0], "s"),
        "verify_s": (s["verify_s"][0], "s"),
        "setup_s": (report["setup"]["steady"], "s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }


def run_traced(nl, jobs: Jobs, args, report: dict) -> dict:
    """One job untraced, traced, and again counting only, on one seed.

    Workloads with a pool check also make their first dataset with the
    pool twice, traced from the parent side and counting only.
    """
    import tracing

    workload, seed = jobs.workload, args.seed
    untraced = jobs.run(seed, "plain")
    tracers = {tag: tracing.Tracer(jobs.clock, spans=(tag == "traced"))
               for tag in ("traced", "counted")}
    runs, pooled, pool_tracers = {}, [], {}
    for tag, tracer in tracers.items():
        with tracer.install():
            runs[tag] = jobs.run(seed, tag, tracer)
        if workload.pool_check:
            pool_tracers[tag] = tracing.Tracer(jobs.clock, spans=(tag == "traced"))
            with pool_tracers[tag].trace_pool():
                pooled.append(jobs.pooled(seed, f"pool-{tag}"))
    jobs.clock.stop()
    results = [untraced, runs["traced"], runs["counted"]]
    gate(nl, results, report, pooled)

    def all_counts(tag):
        pool = pool_tracers[tag].counts() if pool_tracers else None
        return tracers[tag].counts(), runs[tag].get("gen_counts"), pool

    report["counts_repeat"] = all_counts("traced") == all_counts("counted")
    byte_sets = [job_digests(job) for job in results]
    report["bytes_repeat"] = byte_sets[0] == byte_sets[1] == byte_sets[2]
    report["correct"] = (
        report["correct"] and report["counts_repeat"] and report["bytes_repeat"]
    )
    report["counts"] = all_counts("traced")
    tracers["traced"].write(OUT / f"trace-{workload.name}")

    untraced_s = untraced["gen"][0] + untraced["verify"][0]
    traced_s = runs["traced"]["gen"][0] + runs["traced"]["verify"][0]
    metrics = layer_metrics(tracers["traced"], runs["traced"], untraced_s / traced_s)
    pool_tracer = pool_tracers.get("traced")
    if pool_tracer:
        metrics["pipeline.pool.wait_s"] = (pool_tracer.total_s(tracing.POOL_MAP), "s")
        metrics["pipeline.pool.candidates_per_record"] = (
            pool_tracer.pool_tasks / pooled[0]["records"], "1/rec")
    return metrics


def layer_metrics(tracer, job: dict, throughput_ratio: float) -> dict:
    """Per-layer calls and self time, exact ratios, and tracing overhead."""
    import tracing

    metrics = {}
    self_s = tracer.self_times()
    for name in tracing.LAYER_NAMES:
        metrics[f"{name}.calls"] = (tracer.calls[name], "count")
        metrics[f"{name}.self_s"] = (self_s[name], "s")
    # Generation only: verify solves again, and is measured on its own.
    gen = {}
    for delta in job.get("gen_counts", []):
        for key, value in delta.items():
            gen[key] = gen.get(key, 0) + value
    records = sum(d["records"] for d in job.get("datasets", []))
    candidates = gen.get("pipeline.generate_candidate", 0)

    def per(value, base):
        return value / base if base else 0.0

    metrics["solver.solve.decisions"] = (tracer.decisions, "count")
    metrics["solver.solves_per_record"] = (per(gen.get("solver.solve", 0), records), "1/rec")
    metrics["solver.decisions_per_record"] = (per(gen.get("decisions", 0), records), "1/rec")
    metrics["ruletaker.retrofit.accept_ratio"] = (
        per(tracer.retrofit_accepted, tracer.calls["ruletaker.retrofit"]), "ratio")
    metrics["pipeline.accept_ratio"] = (per(records, candidates), "ratio")
    metrics["pipeline.candidates_per_record"] = (per(candidates, records), "1/rec")
    metrics["pipeline.pool.wait_s"] = (0.0, "s")
    metrics["pipeline.pool.candidates_per_record"] = (0.0, "1/rec")
    metrics["trace.spans"] = (len(tracer.starts), "count")
    metrics["trace.throughput_ratio"] = (throughput_ratio, "ratio")
    return metrics


def print_report(workload: Workload, report: dict, metrics: dict) -> None:
    env = report["environment"]
    print(f"# nlsatgen benchmark: workload {workload.name}, seed {report['seed']}, "
          f"trace {report['trace']}")
    print(f"# python {env['python']}, nproc {env['nproc']}, git {env['git_sha']}")
    for d in report["digests"]:
        print(f"sha256 {d['file']} seed {d['seed']}: {d['sha256']}")
    for job in report.get("jobs", []):
        for c in job.get("checks", []):
            print(f"band check n={c['n']} [{c['band'][0]}, {c['band'][1]}] m={c['m']}: "
                  f"P_sat {c['p_sat']:.3f} +/- {c['halfwidth']:.3f} "
                  f"{'ok' if c['ok'] else 'FAIL'}")
    summary = report.get("summary")
    if summary:
        print(f"repeats: {summary['repeats']}")
        for name, (pair, unit) in summary["named"].items():
            print(f"{name}: {pair[0]:.4f} {unit} (raw {pair[1]:.4f} {unit})")
        print(f"gen_s: {summary['gen_s'][0]:.4f} s (raw {summary['gen_s'][1]:.4f} s)")
        print(f"verify_s: {summary['verify_s'][0]:.4f} s "
              f"(raw {summary['verify_s'][1]:.4f} s)")
        setup = report["setup"]
        print(f"setup_s: {setup['steady']:.4f} s (raw {setup['raw']:.4f} s)")
        print(f"peak_rss_mb: {report['peak_rss_mb']:.1f} MB")
        pool = report.get("pool")
        if pool:
            rates = [pool["records"] / s for s in pool["gen"]]
            print(f"grl.gen_rps_par: {rates[0]:.4f} rec/s (raw {rates[1]:.4f} rec/s; "
                  f"one pass at jobs={POOL_JOBS}, not steady on a shared host)")
    else:
        for name, (value, unit) in metrics.items():
            print(f"{name}: {value:.6g} {unit}")
        print(f"counts repeat exactly: {report['counts_repeat']}; "
              f"bytes repeat: {report['bytes_repeat']}")
    if "pool_equals_serial" in report:
        print(f"pool bytes equal serial: {report['pool_equals_serial']}")
    frac = report["failed"] / report["attempted"]
    print(f"failed_frac: {frac:.6g} ({report['failed']}/{report['attempted']})")


def run_workload(args) -> int:
    nl = import_package()
    from steady import SteadyClock

    workload = WORKLOADS[args.workload]
    report = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "environment": environment(),
    }
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT) as tmp:
        clock = SteadyClock().start()
        try:
            jobs = Jobs(nl, workload, clock, Path(tmp))
            if workload.datasets:  # warm caches and lazy imports, untimed
                small = tuple((f, s, 4) for f, s, _ in workload.datasets)
                warmup = Workload("warmup", "", small)
                Jobs(nl, warmup, clock, Path(tmp)).generate(args.seed, "warmup")
            if args.trace:
                metrics = run_traced(nl, jobs, args, report)
            else:
                metrics = run_plain(nl, jobs, args, report)
        finally:
            clock.stop()
        report["bursts"] = len(clock.bursts)
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    name = f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1, default=str) + "\n")
    print_report(workload, report, metrics)
    print(json.dumps({
        "correct": bool(report["correct"]),
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process; prints every named metric."""
    rows = []
    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode:
            print(f"workload {name} exited with {proc.returncode}")
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        ok = ok and result["correct"]
        rows.append((name, result))
    print("# summary")
    for name, result in rows:
        print(f"{name}: correct {result['correct']}, failed "
              f"{result['failed']}/{result['attempted']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="nlsatgen benchmark")
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
