"""Spans and counts around the package's layers, from outside the package.

``Tracer.install()`` replaces each traced function under every name a
package module binds it to (``pipeline.solve``, ``ruletaker.solve``,
``sampler.solve`` and ``solver.solve`` are the same function imported
four times), so calls between modules are seen too.  ``uninstall()``
puts the originals back.

With ``spans=True`` every call records a span: layer, start, end and
the index of the enclosing span (-1 at the top).  Spans are kept in
flat arrays in memory and written out by ``write()``.  With
``spans=False`` only the counts are kept, which is how a run repeats
its exact counts without the cost of timing.

A layer's self time is the length of its spans minus the part their
child spans cover.  All times come from the steady clock, so the
reference bursts it runs are never part of a span.

Only the parent process is traced: worker processes that
``generate_records(jobs>1)`` starts lose their spans, so the pool is
traced from the parent side alone, by ``trace_pool``.
"""

from __future__ import annotations

import json
import types
from array import array
from pathlib import Path

import nlsatgen
from nlsatgen import cnf, fragments, grl, pipeline, rcl, rng, ruletaker, sampler, solver

MODULES = (nlsatgen, cnf, fragments, grl, pipeline, rcl, rng, ruletaker, sampler, solver)

# (module, attribute) of every traced function; the span name is
# "<module>.<attribute>".
LAYERS = (
    (pipeline, "generate_records"),
    (pipeline, "generate_candidate"),
    (pipeline, "assign_splits"),
    (pipeline, "write_dataset"),
    (pipeline, "read_dataset"),
    (pipeline, "verify_dataset"),
    (rng, "derive_rng"),
    (sampler, "sample_clause"),
    (sampler, "estimate_psat"),
    (sampler, "calibrate_critical"),
    (fragments, "reindex_formula"),
    (fragments, "bind_vocabulary"),
    (grl, "render_grl"),
    (grl, "parse_grl"),
    (rcl, "reindex_problem"),
    (rcl, "ground_rcl"),
    (rcl, "render_rcl"),
    (rcl, "parse_rcl"),
    (ruletaker, "retrofit"),
    (ruletaker, "reindex_theory"),
    (ruletaker, "conjecture_pools"),
    (ruletaker, "refutation_stats"),
    (ruletaker, "render_ruletaker"),
    (ruletaker, "parse_ruletaker"),
    (cnf, "to_dimacs"),
    (solver, "solve"),
    (solver, "check_entailment"),
)
TABLE_LOAD = "sampler.CalibrationTable.load"
POOL_MAP = "pipeline.pool.map"


def layer_name(module, attr: str) -> str:
    return f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"


LAYER_NAMES = tuple(layer_name(m, a) for m, a in LAYERS) + (TABLE_LOAD,)


class Tracer:
    def __init__(self, clock, spans: bool = True):
        self.clock = clock
        self.spans = spans
        self.names = list(LAYER_NAMES) + [POOL_MAP]
        self.calls = dict.fromkeys(self.names, 0)
        self.decisions = 0          # over every solve call
        self.retrofit_accepted = 0  # retrofit calls that returned a theory
        self.pool_tasks = 0         # candidates sent to worker processes
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self._undo = []

    # -- installation -------------------------------------------------

    def _wrap(self, name: str, fn):
        name_id = self.names.index(name)
        calls = self.calls
        on_result = {
            "solver.solve": self._on_solve,
            "ruletaker.retrofit": self._on_retrofit,
        }.get(name)

        if not self.spans:
            def counted(*args, **kwargs):
                calls[name] += 1
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(result)
                return result
            return counted

        now = self.clock.now
        stack, starts, ends = self._stack, self.starts, self.ends
        name_ids, parents = self.name_ids, self.parents

        def traced(*args, **kwargs):
            calls[name] += 1
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = now()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _on_solve(self, result) -> None:
        self.decisions += result.stats.decisions

    def _on_retrofit(self, result) -> None:
        self.retrofit_accepted += result is not None

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        for module, attr in LAYERS:
            fn = getattr(module, attr)
            wrapper = self._wrap(layer_name(module, attr), fn)
            for mod in MODULES:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, wrapper)
        load = sampler.CalibrationTable.__dict__["load"]
        self._patch(
            sampler.CalibrationTable, "load",
            classmethod(self._wrap(TABLE_LOAD, load.__func__)),
        )
        return self

    def trace_pool(self) -> "Tracer":
        """Time the parent's waits on worker results, and nothing else."""
        real_pool = pipeline.multiprocessing.Pool
        tracer = self
        timed_map = self._wrap(POOL_MAP, lambda pool, fn, tasks: pool.map(fn, tasks))

        class TimedPool:
            def __init__(self, *args, **kwargs):
                self._pool = real_pool(*args, **kwargs)

            def __enter__(self):
                self._pool.__enter__()
                return self

            def __exit__(self, *exc):
                return self._pool.__exit__(*exc)

            def map(self, fn, tasks):
                tracer.pool_tasks += len(tasks)
                return timed_map(self._pool, fn, tasks)

        self._patch(pipeline, "multiprocessing", types.SimpleNamespace(Pool=TimedPool))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ------------------------------------------------------

    def counts(self) -> dict:
        """Every exact count, for comparing two runs of one config."""
        return {
            "calls": dict(self.calls),
            "decisions": self.decisions,
            "retrofit_accepted": self.retrofit_accepted,
            "pool_tasks": self.pool_tasks,
        }

    def self_times(self) -> dict:
        """Seconds per layer, less the time of the spans it encloses."""
        n = len(self.starts)
        child = [0.0] * n
        self_s = dict.fromkeys(self.names, 0.0)
        starts, ends, parents, name_ids = self.starts, self.ends, self.parents, self.name_ids
        # A child span always comes after its parent, so walking
        # backwards sees every child before its parent.
        for i in range(n - 1, -1, -1):
            duration = ends[i] - starts[i]
            self_s[self.names[name_ids[i]]] += duration - child[i]
            parent = parents[i]
            if parent >= 0:
                child[parent] += duration
        return self_s

    def total_s(self, name: str) -> float:
        name_id = self.names.index(name)
        return sum(
            e - s for k, s, e in zip(self.name_ids, self.starts, self.ends) if k == name_id
        )

    def write(self, stem: Path) -> None:
        """Spans as ``<stem>.spans`` (four native arrays) and ``<stem>.json``.

        The binary file holds, one array after another, the layer index
        (int32), the parent span index (int32, -1 at the top), the start
        and the end (float64 steady seconds) of every span.
        """
        stem.parent.mkdir(parents=True, exist_ok=True)
        with open(stem.with_suffix(".spans"), "wb") as fh:
            for column in (self.name_ids, self.parents, self.starts, self.ends):
                column.tofile(fh)
        meta = {
            "names": self.names,
            "spans": len(self.starts),
            "layout": ["name_id:i", "parent:i", "start:d", "end:d"],
            "itemsize": {"i": array("i").itemsize, "d": array("d").itemsize},
            "counts": self.counts(),
        }
        stem.with_suffix(".json").write_text(json.dumps(meta, indent=1) + "\n")
