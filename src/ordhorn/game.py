"""Exact brute-force evaluation of QCSP instances by game-tree search.

Moves are order positions rather than rationals: a player picks an existing
level or a gap.  Homogeneity of (Q,<) makes this finite abstraction sound.
Memoization projects out assigned variables that no longer occur in any
unresolved clause.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from .formula import HOLDS, QcspInstance
from .orders import WeakOrder


class ResourceLimitError(RuntimeError):
    pass


class Move(NamedTuple):
    kind: str  # "eq" (play an existing level) or "gap" (play strictly between)
    index: int

    def text(self) -> str:
        return f"{self.kind}{self.index}"


def legal_moves(n_levels: int):
    """Equalities first, then gaps bottom-up."""
    return [Move("eq", i) for i in range(n_levels)] + [Move("gap", g) for g in range(n_levels + 1)]


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
    memo = {}
    nodes = 0

    def search(next_var, ranks, n_levels, open_ids):
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            raise ResourceLimitError(f"game search exceeded {max_nodes} nodes")
        still_open = []
        for ci in open_ids:
            s = _clause_status(matrix[ci], ranks, next_var)
            if s < 0:
                return (False, None)
            if s == 0:
                still_open.append(ci)
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

    ranks = list(prefix) + [None] * (n - len(prefix))
    value, strat = search(len(prefix), ranks, n_levels, list(range(len(matrix))))
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
    trace = []

    def rec(next_var, ranks, n_levels, open_ids):
        still_open = []
        for ci in open_ids:
            s = _clause_status(matrix[ci], ranks, next_var)
            if s < 0:
                clause_text = " | ".join(a.text(names) for a in matrix[ci])
                return GameOutcome(False, list(trace), clause_text)
            if s == 0:
                still_open.append(ci)
        if not still_open:
            return None
        if next_var == n:
            ci = still_open[0]
            clause_text = " | ".join(a.text(names) for a in matrix[ci])
            return GameOutcome(False, list(trace), clause_text)
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

    loss = rec(0, [None] * n, 0, list(range(len(matrix))))
    return loss if loss is not None else GameOutcome(True)
