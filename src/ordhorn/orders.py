"""Weak orders as value abstractions, and the operations pp, ll, lex and duals.

Every temporal constraint depends only on the order type of its arguments,
so rational assignments are represented by weak orders: dense integer ranks
per position, optionally with a marked rank for the constant 0.  The basic
operations of the classification are applied symbolically on these ranks;
the concrete endomorphisms e_{<0}, e_{>0} are never constructed.
Only quantifier-free formulas are evaluated here; a relation defined with
quantified auxiliary variables is decided one order type at a time by the
game search (``classifier.gadget_relation`` over ``game.brute_solve``).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterator, Optional

from .formula import HOLDS, QfFormula

# op -> (side test of t1's rank against the zero marker, (primary, secondary)
# key sources on side 0 and on side 1).  A source is operand 1 (t1), operand
# 2 (t2) or 0 (a constant); lex has no side test, so every position is on
# side 0.
OP_KEYS = {
    "pp": ("<=", ((1, 0), (2, 0))),
    "dual_pp": ("<", ((2, 0), (1, 0))),
    "ll": ("<=", ((1, 2), (2, 1))),
    "dual_ll": ("<", ((2, 1), (1, 2))),
    "lex": (None, ((1, 2), (0, 0))),
}

MAX_ENUM_ARITY = 8


class ArityTooLarge(ValueError):
    pass


def dense_ranks(values) -> tuple:
    """The order type of ``values`` as dense ranks 0, 1, ..., lowest first."""
    levels = sorted(set(values))  # short: index beats a dict on a few levels
    return tuple([levels.index(v) for v in values])


@dataclass(frozen=True)
class WeakOrder:
    """An ordered partition of positions, lowest level first.

    ``ranks[i]`` is the level of position i; ``zero_rank`` is the level of
    the zero marker on the same scale, if present.  Ranks are kept dense.
    """

    ranks: tuple
    zero_rank: Optional[int] = None

    @property
    def n(self) -> int:
        return len(self.ranks)

    def levels(self):
        """Positions per level, lowest first; the zero marker appears as 'z'."""
        vals = sorted(set(self.ranks) | ({self.zero_rank} if self.zero_rank is not None else set()))
        out = []
        for v in vals:
            lev = [i for i, r in enumerate(self.ranks) if r == v]
            if v == self.zero_rank:
                lev.append("z")
            out.append(lev)
        return out


def eval_clause(clause, ranks) -> bool:
    for atom in clause:
        if HOLDS[atom.op](ranks[atom.left], ranks[atom.right]):
            return True
    return False


def eval_qf(f: QfFormula, w: WeakOrder) -> bool:
    """Truth of a CNF under any rational assignment realizing the weak order."""
    if f.arity > w.n:
        raise ValueError(f"unassigned variable: formula arity {f.arity}, order over {w.n}")
    ranks = w.ranks
    return all(eval_clause(c, ranks) for c in f.clauses)


def _rank_tuples(n: int) -> Iterator[tuple]:
    """All dense rank tuples on n positions, each exactly once."""
    if n == 0:
        yield ()
        return
    for prefix in _rank_tuples(n - 1):
        k = (max(prefix) + 1) if prefix else 0
        for r in range(k):  # join an existing level
            yield prefix + (r,)
        for g in range(k + 1):  # open a new level at gap g
            yield tuple(r if r < g else r + 1 for r in prefix) + (g,)


def enumerate_weak_orders(n: int) -> Iterator[WeakOrder]:
    """Stream every weak order on n positions exactly once."""
    if n > MAX_ENUM_ARITY:
        raise ArityTooLarge(f"arity {n} exceeds enumeration bound {MAX_ENUM_ARITY}")
    for t in _rank_tuples(n):
        yield WeakOrder(t)


def enumerate_marked_orders(n: int) -> Iterator[WeakOrder]:
    """Stream every zero-marked weak order on n positions.

    Enumerates weak orders on n+1 positions and marks the extra one as zero,
    so the position of 0 relative to every level is part of the type.
    """
    if n + 1 > MAX_ENUM_ARITY:
        raise ArityTooLarge(f"arity {n} exceeds marked enumeration bound {MAX_ENUM_ARITY - 1}")
    for t in _rank_tuples(n + 1):
        yield WeakOrder(t[:n], t[n])


def ordered_bell(n: int) -> int:
    """Fubini numbers by the binomial recursion (independent of the enumerator)."""
    a = [1]
    for m in range(1, n + 1):
        a.append(sum(comb(m, k) * a[m - k] for k in range(1, m + 1)))
    return a[n]


def op_sides(op: str, t1: WeakOrder):
    """Side of each position under ``op``: 0 when t1's rank passes the
    operation's test against the zero marker (always, for lex), else 1."""
    test = OP_KEYS[op][0]
    if test is None:
        return [0] * t1.n
    holds, z = HOLDS[test], t1.zero_rank
    return [0 if holds(r, z) else 1 for r in t1.ranks]


def apply_op(op: str, t1: WeakOrder, t2: WeakOrder) -> WeakOrder:
    """Coordinatewise image order of a binary basic operation.

    Position i is ordered by the key (side, primary, secondary) that
    ``OP_KEYS`` states for ``op``: pp places positions with t1 <= 0 (ordered
    by t1) strictly below positions with t1 > 0 (ordered by t2); ll refines
    the blocks lexicographically; lex orders by (t1, t2).  Duals mirror the
    block split at 0.
    """
    if op not in OP_KEYS:
        raise ValueError(f"unknown operation {op!r}")
    if t1.n != t2.n:
        raise ValueError("operand orders have different lengths")
    if op != "lex" and t1.zero_rank is None:
        raise ValueError(f"{op} needs a zero marker on its first argument")
    rules = OP_KEYS[op][1]
    source = ((0,) * t1.n, t1.ranks, t2.ranks)
    keys = []
    for i, side in enumerate(op_sides(op, t1)):
        primary, secondary = rules[side]
        keys.append((side, source[primary][i], source[secondary][i]))
    return WeakOrder(dense_ranks(keys))


def relation_of(f: QfFormula):
    """The set of rank tuples whose order type satisfies the quantifier-free f."""
    return {w.ranks for w in enumerate_weak_orders(f.arity) if eval_qf(f, w)}
