"""Checks that the traced counters count what they claim, against exact,
deterministic counts, and that BENCHMARK.json names the metrics and
workloads this benchmark produces.

    python3 perfbench/check_anchors.py          # or: python3 -m pytest perfbench/check_anchors.py

Each anchor decides one instance through ``ordhorn.cli.main`` with the
benchmark's wrappers installed:

- ``solve`` on parallel_chain(10) makes 2,210 solver probes;
- ``solve`` on parallel_chain(20) makes 8,870 solver probes;
- ``derive`` on parallel_chain(8) saturates to 1,065 facts.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import ordhorn.cli as cli  # noqa: E402
from ordhorn.generators import parallel_chain  # noqa: E402

import families  # noqa: E402
from layers import PER_LAYER, Tracer  # noqa: E402
from run import WORKLOADS  # noqa: E402

END_TO_END = ("setup_s", "instances_per_s", "verdict_p50_ms", "verdict_p90_ms", "peak_rss_mb")


def _traced_cli(argv_tail, k):
    inst = parallel_chain(k)
    outdir = os.path.join(ROOT, ".perfbench_out", "anchors")
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, f"chain{k}.qcsp")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(families.instance_text(inst.names, inst.quants, inst.general_matrix()))
    tracer = Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main([argv_tail[0], path, *argv_tail[1:]])
    finally:
        tracer.uninstall()
    assert code == 0
    return tracer, out.getvalue()


def _check_probes(k, probes):
    tracer, out = _traced_cli(["solve"], k)
    assert out.strip() == "true"
    assert tracer.counts["solver.probes"] == probes
    # every probe is one closure call
    assert tracer.totals()["ohsat.closure"][0] == probes


def test_probes_parallel_chain_10():
    _check_probes(10, 2210)


def test_probes_parallel_chain_20():
    _check_probes(20, 8870)


def test_facts_saturate_parallel_chain_8():
    tracer, out = _traced_cli(["derive", "--quiet"], 8)
    assert out.strip() == "no bottom"
    assert tracer.counts["proofsystem.facts"] == 1065
    assert tracer.totals()["proofsystem.saturate"][0] == 1


def test_benchmark_json_lists_these_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert tuple(m["name"] for m in spec["end_to_end"]) == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        row[:3] for row in PER_LAYER
    ]


if __name__ == "__main__":
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            try:
                fn()
                print(f"ok   {name}")
            except AssertionError:
                failed += 1
                print(f"FAIL {name}")
    raise SystemExit(1 if failed else 0)
