import functools
import importlib.util
import pathlib
import random
import tracemalloc

import pytest

from ordhorn.formula import Atom, OhClause, QcspInstance, parse_instance
from ordhorn.ohsat import OhConjunction, _bits, oh_sat
from ordhorn.orders import enumerate_weak_orders, eval_clause

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


@functools.cache
def weak_orders(n):
    """Every weak order of n variables, enumerated once per n."""
    return tuple(enumerate_weak_orders(n))


def model_satisfies(conj, w):
    """Does the weak order w satisfy every clause and atom of conj?"""
    return all(eval_clause(c.atoms(), w.ranks) for c in conj.clauses) and all(
        eval_clause((a,), w.ranks) for a in conj.atoms
    )


def brute_sat(conj):
    """Independent oracle: search all weak orders for a satisfying one."""
    return any(model_satisfies(conj, w) for w in weak_orders(conj.n_vars))


def live_conjunction(cs, atoms=()):
    """The clause set ``cs`` as a conjunction: its indexed clauses (a retired
    entry is entailed by its pair's unit edge) and its unit edges as <=
    atoms, then ``atoms``."""
    clauses = tuple(
        OhClause(p, frozenset(_bits(cs.pmasks[i])), cs.targets[i] if cs.targets[i] >= 0 else None)
        for p, ids in cs.by_pivot.items()
        for i in ids
    )
    return OhConjunction(cs.n, clauses, tuple(Atom(a, "<=", b) for a, b in cs.edges) + tuple(atoms))


def check_probe(cs, x, z, j, got):
    """Check the ``probe(cs, x, z, j)`` answer ``got`` against ``oh_sat`` on
    the same question (x equal to ``cs.order[j:]`` less x and z, and x < z,
    over the live conjunction of ``cs``): the same answer and, when
    satisfiable, the same classes, the probe's grown class ``got[0]`` beside
    every other variable's base class from the memo."""
    eqs = [Atom(x, "=", v) for v in cs.order[j:] if v != x and v != z]
    res = oh_sat(live_conjunction(cs, [*eqs, Atom(x, "<", z)]))
    assert (got[0] is None) == (not res), (cs.__dict__, x, z, j)
    if res:
        c_mask, cls = got[0], cs.memo["cls"]
        probed = {c_mask} | {c for c in cls if not c & c_mask}
        classes = {}
        for v, r in enumerate(res.model.ranks):
            classes.setdefault(r, []).append(v)
        assert sorted([v for v in range(cs.n) if c >> v & 1] for c in probed) == sorted(
            classes.values()
        ), (cs.__dict__, x, z, j)


# Hand-built fact minima, by the message of the StrategyUndefinedError they
# raise, for three existentials.  P(x2, x1; {}) places x2 above x1; then
# P(x3, y; {}) for both y makes x3 dominate level 1, and each P(y, x3; {})
# asks x3 to equal y's level.
UNDEFINED_STRATEGY_FACTS = {
    "two distinct levels": {(1, 0): [0], (2, 0): [0], (2, 1): [0], (0, 2): [0], (1, 2): [0]},
    "must equal level 0 but dominate up to 1": {(1, 0): [0], (2, 0): [0], (2, 1): [0], (0, 2): [0]},
}


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
