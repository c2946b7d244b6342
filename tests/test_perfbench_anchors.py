"""The benchmark's anchor checks (``perfbench/check_anchors.py``), run here
too: its tracer hooks read ``Verdict.log``, ``.duplicate`` and ``.derived``,
so a change to those breaks the benchmark, and this catches it first.  One
round of each workload runs here as well, since the input families call
names that only the benchmark reads (``Cnf3.truth_table_sat``, ``Atom.text``,
``compile_to_mplus``'s normalize fallback)."""

import random

import pytest

from conftest import PERFBENCH, load_perfbench

WORKLOADS = ("solve-chain", "solve-sparse", "oracle-small", "classify")
ANCHORS = load_perfbench("check_anchors")


@pytest.mark.parametrize("name", sorted(n for n in vars(ANCHORS) if n.startswith("test_")))
def test_anchor(name):
    getattr(ANCHORS, name)()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_round_passes(workload, tmp_path):
    # one round at seed 161, built and checked as perfbench/run.py does
    import ordhorn.cli as cli

    families, worker = load_perfbench("families"), load_perfbench("worker")
    rng = random.Random(f"{workload}/161")
    ops = families.build(workload, rng, str(tmp_path), str(PERFBENCH.parent / "fixtures"))
    assert ops
    for op in ops:
        _, out, error = worker.run_op(cli, op)
        assert not (error or worker.check(op, out)), op["argvs"]
