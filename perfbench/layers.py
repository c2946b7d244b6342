"""Per-layer tracing installed from outside the package.

Each traced name is replaced, in the module its callers read it from, by a
wrapper that records one span (name, start, end, parent span, instance id)
and reads counts off the returned value.  Spans stay in memory; the worker
writes them out when it ends.  A layer's self time is its spans' duration
minus the duration of their direct child spans.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from collections import Counter

# (module callers read the name from, attribute, span name)
SPANS = (
    ("ordhorn.cli", "main", "cli.main"),
    ("ordhorn.cli", "parse_instance", "formula.parse_instance"),
    ("ordhorn.cli", "parse_relation", "formula.parse_relation"),
    ("ordhorn.cli", "normalize", "formula.normalize"),
    ("ordhorn.cli", "compile_to_mplus", "solver.compile_to_mplus"),
    ("ordhorn.cli", "solve", "solver.solve"),
    ("ordhorn.solver", "closure", "ohsat.closure"),
    ("ordhorn.cli", "brute_solve", "game.brute_solve"),
    ("ordhorn.cli", "play_against", "game.play_against"),
    ("ordhorn.cli", "saturate", "proofsystem.saturate"),
    ("ordhorn.cli", "ep_move", "proofsystem.ep_move"),
    ("ordhorn.cli", "parse_dimacs", "reductions.parse_dimacs"),
    ("ordhorn.cli", "reduction_text", "reductions.reduction_text"),
    ("ordhorn.classifier", "classify", "classifier.classify"),
    ("ordhorn.classifier", "is_preserved_by", "classifier.is_preserved_by"),
    ("ordhorn.classifier", "goh_syntactic", "classifier.goh_syntactic"),
)

# called too often to time: counted only
COUNTED = (
    ("ordhorn.classifier", "apply_op", "orders.apply_op.calls"),
    ("ordhorn.classifier", "eval_qf", "orders.eval_qf.calls"),
)


def _count_solve(counts, verdict):
    counts["solver.probes"] += verdict.oracle_calls
    counts["solver.passes"] += verdict.passes
    counts["solver.derived"] += len(verdict.derived)
    counts["solver.log_events"] += len(verdict.log)
    counts["solver.log_dups"] += sum(1 for e in verdict.log if e.duplicate)


def _count_closure(counts, result):
    parent, _, certificate, fired_edges = result
    if parent is None:
        counts["ohsat.closure.unsat"] += 1
        counts["ohsat.closure.fired"] += sum(1 for e in certificate if e[0] == "fire")
    else:
        counts["ohsat.closure.fired"] += len(fired_edges)


def _count_brute(counts, verdict):
    counts["game.nodes"] += verdict.nodes


def _count_saturate(counts, facts):
    counts["proofsystem.facts"] += facts.fact_count


COUNTERS = {
    "solver.solve": _count_solve,
    "ohsat.closure": _count_closure,
    "game.brute_solve": _count_brute,
    "proofsystem.saturate": _count_saturate,
}


class Tracer:
    """Spans and counters for one worker process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, instance id]
        self.counts = Counter()
        self.instance = -1
        self._stack = []
        self._originals = []

    def install(self):
        for module_name, attr, name in SPANS:
            self._patch(module_name, attr, self._spanned(name, COUNTERS.get(name)))
        for module_name, attr, name in COUNTED:
            self._patch(module_name, attr, self._counted(name))

    def uninstall(self):
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def _patch(self, module_name, attr, make):
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)
        self._originals.append((module, attr, fn))
        setattr(module, attr, make(fn))

    def _spanned(self, name, count):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def make(fn):
            def wrapper(*args, **kwargs):
                span = [name, clock(), 0.0, stack[-1] if stack else -1, self.instance]
                stack.append(len(spans))
                spans.append(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = clock()
                    stack.pop()
                if count is not None:
                    count(counts, result)
                return result

            return wrapper

        return make

    def _counted(self, name):
        counts = self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    def totals(self):
        """Per span name: calls, total seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls, total, self_s = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + end - start, self_s + end - start - child[i])
        return out

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# Per-layer metrics: (name, unit, better, end-to-end metrics it should move,
# workloads where it should move them).  Counts and times are per round, a
# round being one pass over the workload's generated inputs, so counts repeat
# exactly for a given seed.  Self times are as measured, not rescaled by the
# reference loop.
PER_LAYER = (
    ("ohsat.closure.calls", "count", "lower", "instances_per_s verdict_p90_ms", "solve-chain solve-sparse"),
    ("ohsat.closure.self_s", "s", "lower", "instances_per_s verdict_p90_ms", "solve-chain; verdict_p50_ms on solve-sparse; no move on classify"),
    ("ohsat.closure.mean_us", "us", "lower", "instances_per_s verdict_p90_ms", "solve-chain solve-sparse"),
    ("ohsat.closure.unsat_frac", "ratio", "higher", "instances_per_s", "solve-chain solve-sparse"),
    ("ohsat.closure.fired_mean", "count", "lower", "instances_per_s", "solve-chain solve-sparse"),
    ("ohsat.closure.share_of_solve", "ratio", "lower", "instances_per_s", "solve-chain (0.86 at the seed commit)"),
    ("solver.solve.self_s", "s", "lower", "peak_rss_mb instances_per_s", "solve-chain; verdict_p90_ms on solve-sparse"),
    ("solver.probes", "count", "lower", "instances_per_s", "solve-chain solve-sparse"),
    ("solver.passes", "count", "lower", "instances_per_s", "solve-chain solve-sparse"),
    ("solver.derived", "count", "lower", "peak_rss_mb", "solve-chain"),
    ("solver.log_events", "count", "lower", "peak_rss_mb", "solve-chain (derivation log)"),
    ("solver.log_dup_frac", "ratio", "lower", "peak_rss_mb", "solve-chain"),
    ("solver.compile_to_mplus.self_s", "s", "lower", "verdict_p50_ms", "solve-sparse oracle-small"),
    ("formula.parse_instance.self_s", "s", "lower", "verdict_p50_ms", "solve-sparse oracle-small"),
    ("formula.normalize.self_s", "s", "lower", "verdict_p50_ms", "solve-sparse oracle-small"),
    ("formula.parse_relation.self_s", "s", "lower", "verdict_p50_ms", "classify"),
    ("cli.main.calls", "count", "lower", "verdict_p50_ms setup_s", "oracle-small"),
    ("cli.self_s", "s", "lower", "verdict_p50_ms setup_s", "oracle-small"),
    ("game.brute_solve.calls", "count", "lower", "verdict_p90_ms instances_per_s", "oracle-small"),
    ("game.brute_solve.self_s", "s", "lower", "verdict_p90_ms instances_per_s", "oracle-small; no move on solve-* or classify"),
    ("game.nodes", "count", "lower", "verdict_p90_ms instances_per_s", "oracle-small"),
    ("game.nodes_per_s", "1/s", "higher", "verdict_p90_ms instances_per_s", "oracle-small"),
    ("game.play_against.self_s", "s", "lower", "verdict_p90_ms", "oracle-small"),
    ("proofsystem.saturate.self_s", "s", "lower", "verdict_p90_ms", "oracle-small"),
    ("proofsystem.facts", "count", "lower", "verdict_p90_ms", "oracle-small"),
    ("proofsystem.ep_move.calls", "count", "lower", "verdict_p90_ms", "oracle-small"),
    ("proofsystem.ep_move.self_s", "s", "lower", "verdict_p90_ms", "oracle-small"),
    ("reductions.parse_dimacs.self_s", "s", "lower", "verdict_p50_ms (expected negligible)", "oracle-small"),
    ("reductions.reduction_text.self_s", "s", "lower", "verdict_p50_ms (expected negligible)", "oracle-small"),
    ("classifier.classify.self_s", "s", "lower", "instances_per_s verdict_p90_ms", "classify; no move elsewhere"),
    ("classifier.is_preserved_by.calls", "count", "lower", "instances_per_s verdict_p90_ms", "classify"),
    ("classifier.is_preserved_by.self_s", "s", "lower", "instances_per_s verdict_p90_ms", "classify"),
    ("classifier.goh_syntactic.self_s", "s", "lower", "instances_per_s verdict_p90_ms", "classify"),
    ("orders.apply_op.calls", "count", "lower", "instances_per_s", "classify (order pairs checked)"),
    ("orders.eval_qf.calls", "count", "lower", "instances_per_s", "classify"),
    ("trace.instances_per_s", "1/s", "higher", "instances_per_s (traced run)", "all"),
    ("trace.slowdown", "ratio", "lower", "tracing overhead: untraced / traced instances_per_s", "all"),
)


def layer_metrics(totals, counts, rounds):
    """Per-layer values from span totals and counters: sums per round, and
    ratios over the whole run."""

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    def ratio(a, b):
        return a / b if b else 0.0

    sums = {
        "ohsat.closure.calls": calls("ohsat.closure"),
        "ohsat.closure.self_s": self_s("ohsat.closure"),
        "solver.solve.self_s": self_s("solver.solve"),
        "solver.probes": counts["solver.probes"],
        "solver.passes": counts["solver.passes"],
        "solver.derived": counts["solver.derived"],
        "solver.log_events": counts["solver.log_events"],
        "solver.compile_to_mplus.self_s": self_s("solver.compile_to_mplus"),
        "formula.parse_instance.self_s": self_s("formula.parse_instance"),
        "formula.normalize.self_s": self_s("formula.normalize"),
        "formula.parse_relation.self_s": self_s("formula.parse_relation"),
        "cli.main.calls": calls("cli.main"),
        "cli.self_s": self_s("cli.main"),
        "game.brute_solve.calls": calls("game.brute_solve"),
        "game.brute_solve.self_s": self_s("game.brute_solve"),
        "game.nodes": counts["game.nodes"],
        "game.play_against.self_s": self_s("game.play_against"),
        "proofsystem.saturate.self_s": self_s("proofsystem.saturate"),
        "proofsystem.facts": counts["proofsystem.facts"],
        "proofsystem.ep_move.calls": calls("proofsystem.ep_move"),
        "proofsystem.ep_move.self_s": self_s("proofsystem.ep_move"),
        "reductions.parse_dimacs.self_s": self_s("reductions.parse_dimacs"),
        "reductions.reduction_text.self_s": self_s("reductions.reduction_text"),
        "classifier.classify.self_s": self_s("classifier.classify"),
        "classifier.is_preserved_by.calls": calls("classifier.is_preserved_by"),
        "classifier.is_preserved_by.self_s": self_s("classifier.is_preserved_by"),
        "classifier.goh_syntactic.self_s": self_s("classifier.goh_syntactic"),
        "orders.apply_op.calls": counts["orders.apply_op.calls"],
        "orders.eval_qf.calls": counts["orders.eval_qf.calls"],
    }
    closure_calls = calls("ohsat.closure")
    solve_total = totals.get("solver.solve", (0, 0.0, 0.0))[1]
    ratios = {
        "ohsat.closure.mean_us": ratio(self_s("ohsat.closure"), closure_calls) * 1e6,
        "ohsat.closure.unsat_frac": ratio(counts["ohsat.closure.unsat"], closure_calls),
        "ohsat.closure.fired_mean": ratio(counts["ohsat.closure.fired"], closure_calls),
        "ohsat.closure.share_of_solve": ratio(self_s("ohsat.closure"), solve_total),
        "solver.log_dup_frac": ratio(counts["solver.log_dups"], counts["solver.log_events"]),
        "game.nodes_per_s": ratio(counts["game.nodes"], self_s("game.brute_solve")),
    }
    out = {name: value / rounds for name, value in sums.items()}
    out.update(ratios)
    return out
