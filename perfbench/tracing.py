"""Spans around the package's public functions, installed from outside the package.

A traced run wraps each function named in ``TRACED`` and rebinds every name
in the package's modules that refers to it. So a call through ``from .model
import rate`` inside ``stm`` is caught as well as a call to ``model.rate``.
Spans stay in memory (name, start, end, parent, item, failed) until the run
writes them out. A span's self time is its duration minus the time its child
spans cover; one thread makes nested calls, so children never overlap and
that cover is the sum of their durations.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time

PACKAGE = "wpcn_sched"

# Public-function boundaries, "<module>.<function>" inside the package.
TRACED = (
    "cli.run_sweep",
    "cli.run_trial",
    "cli.write_csv",
    "netgen.sample",
    "model.rate",
    "model.harvest_rate",
    "model.tau_min",
    "model.s_min",
    "model.validate",
    "mls.mlsa",
    "mls.pdo",
    "mls.fixed_order_mls",
    "stm.mrsa",
    "stm.fixed_order_stm",
    "stm.throughput_lp",
    "stm.brute_force_stm",
    "lp.solve",
)
CLOSED_FORMS = ("model.rate", "model.harvest_rate", "model.tau_min", "model.s_min")


def resolve(qualname: str):
    module, attr = qualname.rsplit(".", 1)
    return getattr(importlib.import_module(f"{PACKAGE}.{module}"), attr)


@contextlib.contextmanager
def rebound(qualname: str, make):
    """Bind ``make(f)`` wherever the package binds the function ``f`` at ``qualname``.

    Every module of the package is searched, so re-exports and ``from``
    imports are replaced too. The original bindings return on exit.
    """
    original = resolve(qualname)
    wrapper = make(original)
    sites = [(module, attr)
             for name, module in list(sys.modules.items())
             if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
             for attr, value in list(vars(module).items()) if value is original]
    for module, attr in sites:
        setattr(module, attr, wrapper)
    try:
        yield
    finally:
        for module, attr in sites:
            setattr(module, attr, original)


def _lp_failed(result) -> bool:
    return result.status.name != "OPTIMAL"


# A call also counts as failed when its result says so.
RESULT_FAILED = {"lp.solve": _lp_failed}


class Tracer:
    """Records one span per call of a traced function while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name index, start, end, parent index, item, failed]
        self.item = -1               # set by the caller at each item boundary
        self._open = [-1]

    @contextlib.contextmanager
    def installed(self):
        with contextlib.ExitStack() as stack:
            for index, qualname in enumerate(TRACED):
                stack.enter_context(rebound(
                    qualname, functools.partial(self._wrap, index, RESULT_FAILED.get(qualname))))
            yield

    def _wrap(self, index: int, result_failed, fn):
        spans, open_spans, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [index, clock(), 0.0, open_spans[-1], self.item, False]
            open_spans.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = clock()
                open_spans.pop()
            if result_failed is not None and result_failed(result):
                span[5] = True
            return result

        return traced

    def summary(self) -> dict[str, dict]:
        """Per traced function: calls, failed calls, total and self seconds."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        stats = {name: {"calls": 0, "failed": 0, "total_s": 0.0, "self_s": 0.0}
                 for name in TRACED}
        for (index, start, end, _, _, failed), child_s in zip(self.spans, covered):
            entry = stats[TRACED[index]]
            entry["calls"] += 1
            entry["failed"] += failed
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_s
        return stats

    def write(self, path) -> None:
        """Write the spans as tab-separated lines, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\titem\tfailed\n")
            for k, (index, start, end, parent, item, failed) in enumerate(self.spans):
                fh.write(f"{k}\t{TRACED[index]}\t{start - origin:.9f}\t{end - origin:.9f}"
                         f"\t{parent}\t{item}\t{int(failed)}\n")


def layer_metrics(summaries: list[dict], overheads_s: list[float]) -> dict[str, dict]:
    """Per-layer metrics for one unit of work, from the summaries of its traced runs.

    Every traced run repeats the same unit, so counts come from the first
    run and times are medians over all of them.
    """
    first = summaries[0]

    def calls(name: str) -> int:
        return first[name]["calls"]

    def seconds(name: str, key: str = "self_s") -> float:
        return statistics.median(s[name][key] for s in summaries)

    def count(value) -> dict:
        return {"value": value, "unit": "count"}

    def secs(value) -> dict:
        return {"value": value, "unit": "s"}

    trials = calls("cli.run_trial")
    return {
        "lp.solve.calls": count(calls("lp.solve")),
        "lp.solve.self_s": secs(seconds("lp.solve")),
        "lp.solve.failed": count(first["lp.solve"]["failed"]),
        "stm.fixed_order_stm.calls": count(calls("stm.fixed_order_stm")),
        "stm.fixed_order_stm.self_s": secs(seconds("stm.fixed_order_stm")),
        "stm.throughput_lp.self_s": secs(seconds("stm.throughput_lp")),
        "stm.orders_per_trial": count(calls("stm.fixed_order_stm") / trials if trials else 0.0),
        "stm.brute_force_stm.self_s": secs(seconds("stm.brute_force_stm")),
        "stm.mrsa.calls": count(calls("stm.mrsa")),
        "stm.mrsa.self_s": secs(seconds("stm.mrsa")),
        "model.rate.calls": count(calls("model.rate")),
        "model.harvest_rate.calls": count(calls("model.harvest_rate")),
        "model.tau_min.calls": count(calls("model.tau_min")),
        "model.s_min.calls": count(calls("model.s_min")),
        "model.closed_form.self_s": secs(statistics.median(
            sum(s[name]["self_s"] for name in CLOSED_FORMS) for s in summaries)),
        "model.validate.calls": count(calls("model.validate")),
        "model.validate.self_s": secs(seconds("model.validate")),
        "netgen.sample.calls": count(calls("netgen.sample")),
        "netgen.sample.self_s": secs(seconds("netgen.sample")),
        "mls.mlsa.self_s": secs(seconds("mls.mlsa")),
        "mls.pdo.self_s": secs(seconds("mls.pdo")),
        "mls.fixed_order_mls.calls": count(calls("mls.fixed_order_mls")),
        "cli.run_trial.self_s": secs(seconds("cli.run_trial")),
        "cli.run_sweep.self_s": secs(seconds("cli.run_sweep")),
        "cli.write_csv.s": secs(seconds("cli.write_csv", "total_s")),
        "trace.overhead_s": secs(statistics.median(overheads_s)),
    }
