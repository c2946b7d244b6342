"""Satisfiability of conjunctions of pivoted clauses and order atoms over Q.

The decision procedure is a merge/fire closure: equality atoms merge
variables into classes, a clause *fires* once all its disequality partners
sit in the pivot's class (contributing its order disjunct, or falsity), and
strongly connected components of the resulting <=-graph collapse into single
classes.  At the fixpoint every component is a single class, so the last
component pass is a topological order of the class graph; numbering the
classes along it gives distinct classes distinct values, which satisfies
every clause that never fired.

There is one closure engine, :func:`closure`, shared by :func:`oh_sat` and
the solver.  It indexes clauses by pivot and re-examines a clause only when
its pivot's class grows, so a clause with no partner besides its pivot
would never be examined: callers pass such clauses as plain edges (or,
without an order disjunct, refute at once).
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


def _tarjan_sccs(nodes, adj):
    """Iterative Tarjan; returns the list of SCCs (each a list of nodes),
    each SCC after every SCC it reaches."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = [0]
    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(adj.get(root, ())))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(adj.get(w, ()))))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(comp)
    return sccs


def closure(n, pivots, pmasks, targets, eqs, les, lts, nes, by_pivot):
    """Merge/fire closure over clauses i = (pivots[i], pmasks[i], targets[i])
    and the atoms x = y (eqs), x <= y (les), x < y (lts) and x != y (nes).

    A target of -1 means the clause has no order disjunct; -2 marks a
    retired entry, which never fires.  Every live clause must have a partner
    besides its pivot (partner-free clauses are passed as ``les`` edges
    (target, pivot) instead), and ``by_pivot`` maps each pivot variable to
    its clause ids: a round re-examines only the clauses whose pivot class
    grew.  Returns (reps, sccs, None, fired_edges) on success, with reps[v]
    the class representative of variable v and sccs the last round's
    components of the class graph: one [r] per class, each after every class
    it must not exceed, so the highest class comes first.  On refutation it
    returns (None, None, certificate, None), the certificate being the
    merge/fire event sequence.
    """
    parent = list(range(n))
    members = [1 << i for i in range(n)]
    events = []
    changed_mask = 0

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(a, b):
        nonlocal changed_mask
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        if members[ra].bit_count() < members[rb].bit_count():
            ra, rb = rb, ra
        parent[rb] = ra
        members[ra] |= members[rb]
        changed_mask |= members[ra]
        events.append(("merge", rb, ra))
        return True

    for a, b in eqs:
        union(a, b)

    fired = set()
    fired_edges = []
    rounds = 0
    while True:
        rounds += 1
        # each non-final round merges at least two classes
        if rounds > n + 2:
            raise RuntimeError("closure exceeded its merge-round bound")
        scan = []
        m = changed_mask
        while m:
            bit = m & -m
            scan.extend(by_pivot.get(bit.bit_length() - 1, ()))
            m ^= bit
        changed_mask = 0
        for i in scan:
            if i in fired or targets[i] == -2:
                continue
            r = find(pivots[i])
            if pmasks[i] & ~members[r] == 0:
                fired.add(i)
                events.append(("fire", i))
                if targets[i] < 0:
                    events.append(("empty-clause", i))
                    return None, None, events, None
                fired_edges.append((targets[i], pivots[i]))
        reps = [find(i) for i in range(n)]
        adj = {}
        for edges in (les, lts, fired_edges):
            for a, b in edges:
                adj.setdefault(reps[a], set()).add(reps[b])
        merged = False
        sccs = _tarjan_sccs(sorted(set(reps)), {k: sorted(v) for k, v in adj.items()})
        for comp in sccs:
            if len(comp) > 1:
                base = comp[0]
                for other in comp[1:]:
                    merged |= union(base, other)
        if not merged:
            break

    for a, b in lts:
        if reps[a] == reps[b]:
            events.append(("strict-cycle", a, b))
            return None, None, events, None
    for a, b in nes:
        if reps[a] == reps[b]:
            events.append(("forced-equal", a, b))
            return None, None, events, None
    return reps, sccs, None, fired_edges


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
    reps, sccs, cert, _ = closure(
        conj.n_vars, pivots, pmasks, targets, eqs, les, lts, nes, by_pivot
    )
    if reps is None:
        return UnsatResult(cert)
    level = {comp[0]: len(sccs) - 1 - i for i, comp in enumerate(sccs)}
    return SatResult(WeakOrder(tuple(level[r] for r in reps)))


def entails(conj: OhConjunction, atom: Atom) -> bool:
    """True iff the conjunction entails the atom over linear orders.

    Checked as unsatisfiability of the conjunction with the negated atom,
    in one oracle call (oh_sat decides a negated equality, !=, exactly).
    """
    return not oh_sat(OhConjunction(conj.n_vars, conj.clauses, conj.atoms + (atom.negated(),)))
