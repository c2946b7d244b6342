"""The benchmark's anchor checks (``perfbench/check_anchors.py``), run here
too: its tracer hooks read ``Verdict.log``, ``.duplicate`` and ``.derived``,
so a change to those breaks the benchmark, and this catches it first."""

import importlib.util
import pathlib

import pytest

PATH = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "check_anchors.py"


def _load():
    spec = importlib.util.spec_from_file_location("check_anchors", PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ANCHORS = _load()


@pytest.mark.parametrize("name", sorted(n for n in vars(ANCHORS) if n.startswith("test_")))
def test_anchor(name):
    getattr(ANCHORS, name)()
