import importlib.util
import pathlib
import random
import tracemalloc

import pytest

from ordhorn.formula import Atom, OhClause, QcspInstance, parse_instance

# Example: exists x1 forall x2 exists x3 forall x4 exists x5 with the five
# constraints whose run rejects via (x1=x2 => x1>=x3) and then (x1 >= x4).
RUNNING_EXAMPLE = """\
qcsp v1
E x1
A x2
E x3
A x4
E x5
C x1 != x2 | x1 >= x5
C x3 != x2 | x3 >= x4
C x5 != x4 | x5 >= x3
C x3 >= x1
C x5 >= x1
"""


@pytest.fixture
def running_example():
    return parse_instance(RUNNING_EXAMPLE)


PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    """The benchmark's module perfbench/NAME.py, which is not a package."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def peak_bytes(fn):
    """The tracemalloc peak, in bytes, of running fn()."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def partition(level):
    """The classes of a plain closure's ``level`` list (the variables of
    each level), as sorted lists."""
    classes = {}
    for v, r in enumerate(level):
        classes.setdefault(r, set()).add(v)
    return sorted(sorted(c) for c in classes.values())


def memo_partition(memo, c_mask):
    """The classes after a SAT memo probe: its grown class ``c_mask`` and
    every other variable's base class from ``memo["cls"]``."""
    classes = {c_mask} | {c for c in memo["cls"] if not c & c_mask}
    return sorted([v for v in range(len(memo["cls"])) if c >> v & 1] for c in classes)


def make_instance(quants, clauses, names=None):
    """Build a solver-dialect instance from (pivot, partners, target) triples."""
    n = len(quants)
    names = tuple(names) if names else tuple(f"x{i + 1}" for i in range(n))
    matrix = tuple(
        OhClause(p, frozenset(ps), t) if not isinstance(p, OhClause) else p
        for (p, ps, t) in clauses
    )
    return QcspInstance(names, tuple(quants), matrix)


def make_general(quants, clauses, names=None):
    """Build a general-dialect instance from [(l, op, r), ...] clauses."""
    n = len(quants)
    names = tuple(names) if names else tuple(f"x{i + 1}" for i in range(n))
    matrix = tuple(tuple(Atom(*a) for a in clause) for clause in clauses)
    return QcspInstance(names, tuple(quants), matrix)


def random_general_instance(rng: random.Random, max_vars=5, max_clauses=4):
    """A random pivotable general-dialect instance using the full atom set.

    Order disjuncts are oriented so the clause pivot stays on the large side
    after rewriting (equality atoms appear only as whole clauses, since an
    equality disjunct next to others has no pivoted form).
    """
    n = rng.randint(1, max_vars)
    quants = [rng.choice("EA") for _ in range(n)]
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        pivot = rng.randrange(n)
        other = rng.randrange(n)
        if rng.random() < 0.15:
            clauses.append([(pivot, "=", other)])
            continue
        atoms = []
        for _ in range(rng.randint(0, 2)):
            atoms.append((pivot, "!=", rng.randrange(n)))
        if rng.random() < 0.8 or not atoms:
            form = rng.randrange(4)
            if form == 0:
                atoms.append((pivot, ">=", other))
            elif form == 1:
                atoms.append((other, "<=", pivot))
            elif form == 2:
                atoms.append((pivot, ">", other))
            else:
                atoms.append((other, "<", pivot))
        clauses.append(atoms)
    return make_general(quants, clauses)


def _if_chain_key(op, a, b, z):
    """apply_op's key for one position as an if/elif chain, one branch per op."""
    if op == "lex":
        return (a, b)
    if op == "pp":
        return (0, a, 0) if a <= z else (1, b, 0)
    if op == "dual_pp":
        return (0, b, 0) if a < z else (1, a, 0)
    if op == "ll":
        return (0, a, b) if a <= z else (1, b, a)
    return (0, b, a) if a < z else (1, a, b)  # dual_ll


def if_chain_image(op, t1, t2):
    """The dense ranks of ``apply_op(op, t1, t2)``, computed without its table."""
    keys = [_if_chain_key(op, a, b, t1.zero_rank) for a, b in zip(t1.ranks, t2.ranks)]
    order = {k: i for i, k in enumerate(sorted(set(keys)))}
    return tuple(order[k] for k in keys)
