"""Satisfiability of conjunctions of pivoted clauses and order atoms over Q.

The decision procedure is a merge/fire closure: equality atoms merge
variables into classes, a clause *fires* once all its disequality partners
sit in the pivot's class (contributing its order disjunct, or falsity), and
strongly connected components of the resulting <=-graph collapse into single
classes.  Classes are one representative list, kept exact by relabelling the
smaller class on each merge.  At the fixpoint every component is a single
class, so the last component pass is a topological order of the class graph;
numbering the classes along it gives distinct classes distinct values, which
satisfies every clause that never fired.

There is one closure engine, :func:`closure`, shared by :func:`oh_sat` and
the solver.  It indexes clauses by pivot and re-examines a clause only when
its pivot's class grows, so a clause with no partner besides its pivot
would never be examined: callers pass such clauses as plain edges (or,
without an order disjunct, refute at once), and a clause left out of the
index never fires.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formula import Atom
from .orders import WeakOrder


@dataclass(frozen=True)
class OhConjunction:
    """A finite conjunction of pivoted clauses and order atoms."""

    n_vars: int
    clauses: tuple
    atoms: tuple


@dataclass
class SatResult:
    model: WeakOrder

    def __bool__(self):
        return True


@dataclass
class UnsatResult:
    """Unsatisfiable, with the merge/fire sequence as a certificate."""

    certificate: list

    def __bool__(self):
        return False


def _normalize_atoms(atoms):
    """The atoms as (eqs, les, lts, nes) lists of pairs (a, b) for a op b."""
    buckets = {"=": [], "<=": [], "<": [], "!=": []}
    for atom in atoms:
        a = atom.lower_first()
        buckets[a.op].append((a.left, a.right))
    return buckets["="], buckets["<="], buckets["<"], buckets["!="]


def _bits(mask):
    """Positions of the set bits of mask, lowest first."""
    while mask:
        bit = mask & -mask
        yield bit.bit_length() - 1
        mask ^= bit


def _sccs(nodes, succ):
    """Iterative Tarjan from the roots ``nodes`` over successor lists indexed
    by node; returns the SCCs (each a list of nodes), each SCC after every
    SCC it reaches."""
    index = [-1] * len(succ)
    low = [0] * len(succ)
    on_stack = [False] * len(succ)
    stack, sccs = [], []
    count = 0
    for root in nodes:
        if index[root] >= 0:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] < 0:
                    work.append((w, iter(succ[w])))
                    index[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    on_stack[w] = True
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == index[v]:
                    comp = []
                    w = None
                    while w != v:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                    sccs.append(comp)
    return sccs


def closure(n, pivots, pmasks, targets, eqs, les, lts, nes, by_pivot):
    """Merge/fire closure over clauses i = (pivots[i], pmasks[i], targets[i])
    and the atoms x = y (eqs), x <= y (les), x < y (lts) and x != y (nes).

    A target of -1 means the clause has no order disjunct.  ``by_pivot``
    maps each pivot variable to its clause ids, and a round re-examines only
    the clauses whose pivot class grew, so a slot left out of ``by_pivot``
    never fires.  Every indexed clause must have a partner besides its pivot
    (partner-free clauses are passed as ``les`` edges (target, pivot)).
    Returns (rep, sccs, None, fired_edges) on success, with rep[v] the class
    representative of variable v and sccs the last round's components of
    the class graph: one [r] per class, each after every class it must not
    exceed, so the highest class comes first.  On refutation it returns
    (None, None, certificate, None), the certificate being the merge/fire
    event sequence.
    """
    rep = list(range(n))
    members = [1 << i for i in range(n)]
    events = []
    changed_mask = 0

    def union(a, b):
        nonlocal changed_mask
        ra, rb = rep[a], rep[b]
        if ra == rb:
            return
        if members[ra].bit_count() < members[rb].bit_count():
            ra, rb = rb, ra
        for v in _bits(members[rb]):
            rep[v] = ra
        members[ra] |= members[rb]
        changed_mask |= members[ra]
        events.append(("merge", rb, ra))

    for a, b in eqs:
        union(a, b)

    fired = set()
    fired_edges = []
    # each non-final round merges at least two classes
    for _ in range(n + 2):
        scan = [i for p in _bits(changed_mask) for i in by_pivot.get(p, ())]
        changed_mask = 0
        for i in scan:
            if i not in fired and pmasks[i] & ~members[rep[pivots[i]]] == 0:
                fired.add(i)
                events.append(("fire", i))
                if targets[i] < 0:
                    events.append(("empty-clause", i))
                    return None, None, events, None
                fired_edges.append((targets[i], pivots[i]))
        succ = [[] for _ in range(n)]
        for edges in (les, lts, fired_edges):
            for a, b in edges:
                succ[rep[a]].append(rep[b])
        sccs = _sccs([v for v in range(n) if rep[v] == v], succ)
        if all(len(comp) == 1 for comp in sccs):
            break
        for comp in sccs:
            for other in comp[1:]:
                union(comp[0], other)
    else:
        raise RuntimeError("closure exceeded its merge-round bound")

    for kind, pairs in (("strict-cycle", lts), ("forced-equal", nes)):
        for a, b in pairs:
            if rep[a] == rep[b]:
                events.append((kind, a, b))
                return None, None, events, None
    return rep, sccs, None, fired_edges


def oh_sat(conj: OhConjunction):
    """Decide a conjunction; SAT answers carry a witnessing weak order."""
    eqs, les, lts, nes = _normalize_atoms(conj.atoms)
    pivots, pmasks, targets = [], [], []
    by_pivot = {}
    for i, c in enumerate(conj.clauses):
        m = 0
        for p in c.partners:
            m |= 1 << p
        target = c.target if c.target is not None else -1
        if m:
            by_pivot.setdefault(c.pivot, []).append(i)
        elif target < 0:
            return UnsatResult([("fire", i), ("empty-clause", i)])
        else:
            les.append((target, c.pivot))
        pivots.append(c.pivot)
        pmasks.append(m)
        targets.append(target)
    rep, sccs, cert, _ = closure(
        conj.n_vars, pivots, pmasks, targets, eqs, les, lts, nes, by_pivot
    )
    if rep is None:
        return UnsatResult(cert)
    level = {comp[0]: len(sccs) - 1 - i for i, comp in enumerate(sccs)}
    return SatResult(WeakOrder(tuple(level[r] for r in rep)))


def entails(conj: OhConjunction, atom: Atom) -> bool:
    """True iff the conjunction entails the atom over linear orders.

    Checked as unsatisfiability of the conjunction with the negated atom,
    in one oracle call (oh_sat decides a negated equality, !=, exactly).
    """
    return not oh_sat(OhConjunction(conj.n_vars, conj.clauses, conj.atoms + (atom.negated(),)))
