"""Catalogue of named temporal relations.

Each entry maps a name usable in instance files to its defining CNF over
variables x1..xn.  The guarded / strict / separated variants form sandwich
families used by the hardness analysis.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .formula import Atom, QfFormula


@dataclass(frozen=True)
class TemporalRelation:
    arity: int
    defn: QfFormula
    name: str = ""


def _rel(name, arity, *clauses):
    qf = QfFormula(arity, tuple(tuple(Atom(*a) for a in c) for c in clauses))
    return TemporalRelation(arity, qf, name)


def _sep(op):
    # the four cross constraints x_i <op> x_{j+2} for i, j in {1, 2}
    return [[(0, op, 2)], [(0, op, 3)], [(1, op, 2)], [(1, op, 3)]]


_CATALOGUE = {}
for _r in [
    _rel("D", 3, [(0, "!=", 1), (1, "=", 2)]),
    _rel("SD", 4, [(0, "!=", 1), (2, "=", 3)]),
    _rel("NEQ2", 4, [(0, "!=", 1), (2, "!=", 3)]),
    _rel("GSN", 4, [(0, "!=", 1), (2, "!=", 3)], [(0, "<=", 1)], [(2, "<=", 3)], *_sep("<")),
    _rel("M+", 3, [(0, "!=", 1), (1, ">=", 2)]),
    _rel("M-", 3, [(0, "!=", 1), (1, "<=", 2)]),
    _rel("M<+", 3, [(0, "!=", 1), (1, ">", 2)]),
    _rel("M<-", 3, [(0, "!=", 1), (1, "<", 2)]),
    _rel("GM+", 3, [(0, "!=", 1), (1, ">=", 2)], [(0, ">=", 1)]),
    _rel("GM-", 3, [(0, "!=", 1), (1, "<=", 2)], [(0, "<=", 1)]),
    _rel("GVM<+", 3, [(0, "!=", 1), (1, ">", 2)], [(0, ">=", 1)], [(0, "!=", 2)], [(1, "!=", 2)]),
    _rel("GVM<-", 3, [(0, "!=", 1), (1, "<", 2)], [(0, "<=", 1)], [(0, "!=", 2)], [(1, "!=", 2)]),
    _rel("SM", 4, [(0, "!=", 1), (2, ">=", 3)]),
    _rel("SSM", 4, [(0, "!=", 1), (2, ">", 3)]),
    _rel("lrGSM", 4, [(0, "!=", 1), (2, ">=", 3)], [(0, ">=", 1)], *_sep("<")),
    _rel("rlGSM", 4, [(0, "!=", 1), (2, ">=", 3)], [(0, ">=", 1)], *_sep(">")),
    _rel("lrGSM<", 4, [(0, "!=", 1), (2, ">", 3)], [(0, ">=", 1)], *_sep("<"), [(2, "!=", 3)]),
    _rel("rlGSM<", 4, [(0, "!=", 1), (2, ">", 3)], [(0, ">=", 1)], *_sep(">"), [(2, "!=", 3)]),
    _rel("Z", 4, [(0, "!=", 1), (2, "!=", 3)], [(1, "<", 3)]),
]:
    _CATALOGUE[_r.name] = _r

#: Accepted spelling variants of the catalogue names.
ALIASES = {
    "Dis": "NEQ2",
    "M+<": "M<+",
    "M-<": "M<-",
    "SM<": "SSM",
}

# at most 9 digits: no argument list in a file could match a larger arity
_NAE = re.compile(r"^NAE([0-9]{1,9})$")


def arity_of(name: str) -> Optional[int]:
    """Arity of a relation name, or None if unknown; builds no clauses."""
    name = ALIASES.get(name, name)
    if name in _CATALOGUE:
        return _CATALOGUE[name].arity
    m = _NAE.match(name)
    k = int(m.group(1)) if m else 0
    return k if k >= 2 else None


def catalogue(name: str) -> TemporalRelation:
    """Resolve a relation name; raise KeyError for unknown names."""
    k = arity_of(name)
    if k is None:
        raise KeyError(f"unknown relation {name!r}")
    name = ALIASES.get(name, name)
    if name in _CATALOGUE:
        return _CATALOGUE[name]
    clause = tuple(Atom(0, "!=", i) for i in range(1, k))
    return TemporalRelation(k, QfFormula(k, (clause,)), name)


def names():
    return sorted(_CATALOGUE)
