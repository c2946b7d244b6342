"""Exact brute-force evaluation of QCSP instances by game-tree search.

Moves are order positions rather than rationals: a player picks an existing
level or a gap.  Homogeneity of (Q,<) makes this finite abstraction sound.
Memoization projects out assigned variables that no longer occur in any
unresolved clause.

A node re-checks only the open clauses that mention the variable placed last
(the root checks them all).  That is enough: a gap move shifts ranks but keeps
every order relation among the placed variables, so a clause that the new
variable does not occur in keeps the status it had one node up.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from .formula import HOLDS, QcspInstance, ResourceLimitError
from .orders import WeakOrder


class Move(NamedTuple):
    kind: str  # "eq" (play an existing level) or "gap" (play strictly between)
    index: int

    def text(self) -> str:
        return f"{self.kind}{self.index}"


@functools.cache
def legal_moves(n_levels: int) -> tuple:
    """Equalities first, then gaps bottom-up; built once per level count."""
    eqs = [Move("eq", i) for i in range(n_levels)]
    return tuple(eqs + [Move("gap", g) for g in range(n_levels + 1)])


def play(ranks: list, var: int, move: Move, n_levels: int) -> int:
    """Apply a move in place; returns the new level count."""
    if move.kind == "eq":
        if not 0 <= move.index < n_levels:
            raise ValueError("level index out of bounds")
        ranks[var] = move.index
        return n_levels
    if not 0 <= move.index <= n_levels:
        raise ValueError("gap index out of bounds")
    for i, r in enumerate(ranks):
        if r is not None and r >= move.index:
            ranks[i] = r + 1
    ranks[var] = move.index
    return n_levels + 1


@dataclass
class GameVerdict:
    value: bool
    nodes: int
    strategy: Optional[dict] = None


@dataclass
class GameOutcome:
    win: bool
    trace: Optional[list] = None
    violated: Optional[str] = None


def _clause_status(clause, ranks, next_var):
    """1 satisfied, -1 falsified, 0 open, given variables < next_var assigned."""
    all_false = True
    for atom in clause:
        if atom.left < next_var and atom.right < next_var:
            if HOLDS[atom.op](ranks[atom.left], ranks[atom.right]):
                return 1
        else:
            all_false = False
    return -1 if all_false else 0


def _watch_lists(matrix, n):
    """For each variable, the set of indices of the clauses it occurs in."""
    occurs = [{v for a in c for v in (a.left, a.right)} for c in matrix]
    return [{ci for ci, vs in enumerate(occurs) if v in vs} for v in range(n)]


def _recheck(matrix, open_ids, watched, ranks, next_var):
    """(first falsified clause or None, clauses still open), re-checking only
    the open clauses in ``watched``; the open ones keep their order."""
    still_open = []
    for ci in open_ids:
        if ci in watched:
            s = _clause_status(matrix[ci], ranks, next_var)
            if s < 0:
                return ci, None
            if s:
                continue
        still_open.append(ci)
    return None, still_open


def brute_solve(
    inst: QcspInstance,
    max_vars: int = 12,
    max_nodes: int = 100_000_000,
    emit_strategy: bool = False,
    prefix: tuple = (),
) -> GameVerdict:
    """Minimax over order types: true iff the existential player can win.

    ``prefix`` gives dense ranks to the first ``len(prefix)`` variables: play
    starts with them placed in that order type, whatever their quantifiers.
    """
    n = inst.n_vars
    if n > max_vars:
        raise ResourceLimitError(f"instance has {n} variables, limit {max_vars}")
    n_levels = len(set(prefix))
    if len(prefix) > n or set(prefix) != set(range(n_levels)):
        raise ValueError(f"prefix {tuple(prefix)} is not dense ranks for at most {n} variables")
    matrix = inst.general_matrix()
    quants = inst.quants
    clause_vars = [sorted({v for a in c for v in (a.left, a.right)}) for c in matrix]
    watch = _watch_lists(matrix, n)
    every, start = range(len(matrix)), len(prefix)
    memo = {}
    nodes = 0

    def search(next_var, ranks, n_levels, open_ids):
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            raise ResourceLimitError(f"game search exceeded {max_nodes} nodes")
        watched = watch[next_var - 1] if next_var > start else every
        falsified, still_open = _recheck(matrix, open_ids, watched, ranks, next_var)
        if falsified is not None:
            return (False, None)
        if not still_open:
            return (True, {} if emit_strategy else None)
        if next_var == n:
            return (False, None)  # some clause never got a true disjunct

        key = None
        if not emit_strategy:
            live = sorted({v for ci in still_open for v in clause_vars[ci] if v < next_var})
            dense = {r: i for i, r in enumerate(sorted({ranks[v] for v in live}))}
            key = (next_var, tuple(still_open), tuple(dense[ranks[v]] for v in live))
            if key in memo:
                return (memo[key], None)

        moves = legal_moves(n_levels)
        if quants[next_var] == "E":
            value, strat = False, None
            for mv in moves:
                ranks2 = list(ranks)
                nl2 = play(ranks2, next_var, mv, n_levels)
                sub, sub_strat = search(next_var + 1, ranks2, nl2, still_open)
                if sub:
                    value = True
                    if emit_strategy:
                        strat = {"var": inst.names[next_var], "move": mv.text(), "next": sub_strat}
                    break
        else:
            value, branches = True, {}
            for mv in moves:
                ranks2 = list(ranks)
                nl2 = play(ranks2, next_var, mv, n_levels)
                sub, sub_strat = search(next_var + 1, ranks2, nl2, still_open)
                if not sub:
                    value = False
                    break
                if emit_strategy:
                    branches[mv.text()] = sub_strat
            strat = {"var": inst.names[next_var], "branches": branches} if emit_strategy else None
        if key is not None:
            memo[key] = value
        return (value, strat if value else None)

    ranks = list(prefix) + [None] * (n - start)
    try:
        value, strat = search(start, ranks, n_levels, list(every))
    finally:
        memo.clear()  # search refers to itself, so only the collector frees it
    return GameVerdict(value, nodes, strat if (emit_strategy and value) else None)


def play_against(inst: QcspInstance, ep: Callable) -> GameOutcome:
    """Run an existential-player callback against every universal play.

    ``ep(var_index, order_over_prefix)`` must return a Move.  The exploration
    is exhaustive on universal branches; the first loss found is reported
    with its move trace and the violated clause.
    """
    n = inst.n_vars
    matrix = inst.general_matrix()
    quants = inst.quants
    names = inst.names
    watch = _watch_lists(matrix, n)
    every = range(len(matrix))
    trace = []

    def rec(next_var, ranks, n_levels, open_ids):
        watched = watch[next_var - 1] if next_var else every
        ci, still_open = _recheck(matrix, open_ids, watched, ranks, next_var)
        if ci is None and still_open and next_var == n:
            ci = still_open[0]  # some clause never got a true disjunct
        if ci is not None:
            clause_text = " | ".join(a.text(names) for a in matrix[ci])
            return GameOutcome(False, list(trace), clause_text)
        if not still_open:
            return None
        if quants[next_var] == "E":
            mv = ep(next_var, WeakOrder(tuple(ranks[:next_var])))
            ranks2 = list(ranks)
            nl2 = play(ranks2, next_var, mv, n_levels)
            trace.append((names[next_var], mv.text()))
            out = rec(next_var + 1, ranks2, nl2, still_open)
            trace.pop()
            return out
        for mv in legal_moves(n_levels):
            ranks2 = list(ranks)
            nl2 = play(ranks2, next_var, mv, n_levels)
            trace.append((names[next_var], mv.text()))
            out = rec(next_var + 1, ranks2, nl2, still_open)
            trace.pop()
            if out is not None:
                return out
        return None

    loss = rec(0, [None] * n, 0, list(every))
    return loss if loss is not None else GameOutcome(True)
