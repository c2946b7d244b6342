"""Exact brute-force evaluation of QCSP instances by game-tree search.

Moves are order positions rather than rationals: a player picks an existing
level or a gap.  Homogeneity of (Q,<) makes this finite abstraction sound.
A position is the list of dense ranks of the placed variables, in prefix
order, so variable ``len(ranks)`` moves next.  Memoization projects out placed
variables that no longer occur in any unresolved clause.

The open clauses are one int bit mask, bit ci for clause ci.  A parent
settles each child in its move loop, on the atoms that the child's move
decided, those whose later endpoint it places.  An open clause with such an
atom true is satisfied and its bit cleared; with none true it is falsified
once that variable is its last, and stays open otherwise.  That is enough: a
gap move shifts ranks but keeps every order relation among the placed
variables, so an atom decided higher up keeps its truth value, and in an open
clause every such atom is false.  A refuted child is a loss for E and one with
no open clause a win, with no call; only a child with clauses still open
recurses, and every child counts as a node.  The root (play from a ``prefix``
included) has no move above it, so it is settled once before the search, on
every atom among the placed variables.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from .formula import HOLDS, QcspInstance, ResourceLimitError
from .orders import WeakOrder, dense_ranks


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


def play(ranks: list, move: Move, n_levels: int) -> tuple:
    """(child ranks, child level count) after variable ``len(ranks)`` makes
    ``move``; ``ranks`` is left unchanged.  An eq move appends its level; a
    gap move lifts the ranks at or above the gap, then appends the gap."""
    g = move.index
    if move.kind == "eq":
        if not 0 <= g < n_levels:
            raise ValueError("level index out of bounds")
        return ranks + [g], n_levels
    if not 0 <= g <= n_levels:
        raise ValueError("gap index out of bounds")
    child = [r + 1 if r >= g else r for r in ranks]
    child.append(g)
    return child, n_levels + 1


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


def _decided_at(matrix, n, start):
    """(decided, clause_bits) for play from ``start`` placed variables.

    ``decided[k]`` holds, in clause order, a (1 << ci, ci, atoms, final) entry
    for each clause ci with atoms, as (left, right, HOLDS[op]), that placing
    variable k - 1 decides: those whose later endpoint it is.  ``final`` is
    true iff no variable of the clause is still to play then.  The root's
    ``decided[start]`` has every clause, with its atoms among the placed
    variables.  ``clause_bits[ci]`` has bit v set iff v occurs in clause ci."""
    atoms_at = [{} for _ in range(n + 1)]
    atoms_at[start] = {ci: [] for ci in range(len(matrix))}
    clause_bits = []
    for ci, clause in enumerate(matrix):
        bits = 0
        for a in clause:
            k = max(a.left + 1, a.right + 1, start)
            atoms_at[k].setdefault(ci, []).append((a.left, a.right, HOLDS[a.op]))
            bits |= 1 << a.left | 1 << a.right
        clause_bits.append(bits)
    decided = [tuple((1 << ci, ci, tuple(atoms), not clause_bits[ci] >> k) for ci, atoms in at.items())
               for k, at in enumerate(atoms_at)]
    return decided, clause_bits


def _settle(open_mask, decided, ranks):
    """(first falsified clause or None, open mask) after evaluating the atoms
    of the ``decided`` entries of the still open clauses: a clause with one
    true is satisfied and its bit cleared, and one with none true is falsified
    iff it is final.  Entries come in clause order, so the falsified clause
    returned has the lowest index."""
    for bit, ci, atoms, final in decided:
        if open_mask & bit:
            for left, right, holds in atoms:
                if holds(ranks[left], ranks[right]):
                    open_mask ^= bit
                    break
            else:
                if final:
                    return ci, open_mask
    return None, open_mask


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
    decided, clause_bits = _decided_at(matrix, n, len(prefix))
    memo, live_vars = {}, {}

    def search(ranks, n_levels, open_mask):
        """(value, strategy) of a settled position with ``open_mask`` open."""
        nonlocal nodes
        next_var = len(ranks)
        key = None
        if not emit_strategy:
            live = live_vars.get((next_var, open_mask))
            if live is None:  # the placed variables of the open clauses
                open_bits = (b for ci, b in enumerate(clause_bits) if open_mask >> ci & 1)
                bits = functools.reduce(int.__or__, open_bits, 0)
                live = live_vars[next_var, open_mask] = tuple(v for v in range(next_var) if bits >> v & 1)
            placed = tuple([ranks[v] for v in live])
            if placed and max(placed) >= len(set(placed)):  # some level has no live variable
                placed = dense_ranks(placed)
            key = (next_var, open_mask, placed)
            if key in memo:
                return (memo[key], None)

        # E loses and A wins unless some move flips that; the first one decides
        value, branches = quants[next_var] == "A", {}
        for mv in legal_moves(n_levels):
            child, child_levels = play(ranks, mv, n_levels)
            nodes += 1
            if nodes > max_nodes:
                raise ResourceLimitError(f"game search exceeded {max_nodes} nodes")
            falsified, child_mask = _settle(open_mask, decided[next_var + 1], child)
            if falsified is not None:
                sub, sub_strat = False, None
            elif not child_mask:  # always so once every variable is placed
                sub, sub_strat = True, {} if emit_strategy else None
            else:
                sub, sub_strat = search(child, child_levels, child_mask)
            if emit_strategy and sub:
                branches[mv.text()] = sub_strat
            if sub != value:
                value = sub
                break
        if key is not None:
            memo[key] = value
        if not (value and emit_strategy):
            return (value, None)
        if quants[next_var] == "E":  # its one winning branch
            move, sub_strat = branches.popitem()
            return (True, {"var": inst.names[next_var], "move": move, "next": sub_strat})
        return (True, {"var": inst.names[next_var], "branches": branches})

    nodes, ranks = 1, list(prefix)  # the root, settled here like any child
    if nodes > max_nodes:
        raise ResourceLimitError(f"game search exceeded {max_nodes} nodes")
    falsified, open_mask = _settle((1 << len(matrix)) - 1, decided[len(prefix)], ranks)
    try:
        value, strat = ((False, None) if falsified is not None else
                        search(ranks, n_levels, open_mask) if open_mask else
                        (True, {} if emit_strategy else None))
    finally:
        memo.clear()  # search refers to itself, so only the collector frees it
        live_vars.clear()
    return GameVerdict(value, nodes, strat)


def play_against(inst: QcspInstance, ep: Callable, max_nodes: int = 100_000_000) -> GameOutcome:
    """Run an existential-player callback against every universal play.

    ``ep(var_index, order_over_prefix)`` must return a Move.  The exploration
    is exhaustive on universal branches; the first loss found is reported
    with its move trace and the violated clause.  Past ``max_nodes`` visited
    positions it raises :class:`ResourceLimitError`.
    """
    matrix = inst.general_matrix()
    quants = inst.quants
    names = inst.names
    decided = _decided_at(matrix, inst.n_vars, 0)[0]
    trace = []
    nodes = 0

    def rec(ranks, n_levels, open_mask):
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            raise ResourceLimitError(f"strategy replay exceeded {max_nodes} nodes")
        next_var = len(ranks)
        ci, open_mask = _settle(open_mask, decided[next_var], ranks)
        if ci is not None:
            clause_text = " | ".join(a.text(names) for a in matrix[ci])
            return GameOutcome(False, list(trace), clause_text)
        if not open_mask:
            return None
        if quants[next_var] == "E":
            moves = (ep(next_var, WeakOrder(tuple(ranks))),)
        else:
            moves = legal_moves(n_levels)
        for mv in moves:
            child, child_levels = play(ranks, mv, n_levels)
            trace.append((names[next_var], mv.text()))
            out = rec(child, child_levels, open_mask)
            trace.pop()
            if out is not None:
                return out
        return None

    loss = rec([], 0, (1 << len(matrix)) - 1)
    return loss if loss is not None else GameOutcome(True)
