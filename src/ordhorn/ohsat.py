"""Satisfiability of conjunctions of pivoted clauses and order atoms over Q.

The decision procedure is one fixpoint over per-variable *order masks*:
``up[v]`` holds the variables forced at or above v and ``down[v]`` those
at or below it.  Every atom is an edge a <= b (an equality is two, a strict
atom is its weak edge, checked at the end); adding one ORs ``up[b]`` into
``up`` of everything in ``down[a]`` and ``down[a]`` into ``down`` of
everything in ``up[b]``, an incremental transitive closure (Italiano, TCS
1986).  The masks define the classes, ``up[v] & down[v]``: an edge whose
``b`` was already at or below ``a`` closes a cycle and makes one class of
it.  A clause *fires* once all its disequality partners sit in the pivot's
class, contributing its order disjunct as a new edge (or falsity).  At the
fixpoint a class strictly below another has fewer variables at or below
it, so numbering the classes by that count gives distinct classes distinct
values in a topological order, which satisfies every clause that never
fired.  A SAT model is any such witnessing order.

There is one closure engine, :func:`closure`, shared by :func:`oh_sat` and
the solver.  It indexes clauses by pivot and re-examines a clause only when
its pivot's class grows, so a clause with no partner besides its pivot
would never be examined: callers pass such clauses as plain edges (or,
without an order disjunct, refute at once), and a clause left out of the
index never fires.

The solver asks many probes of one clause set, each "x equal to a set U
and x < z", and answers them from a *memo* of the set's base fixpoint.
The solver owns the memo (a dict) and passes it with each probe.  An
empty memo is filled by the probe's own :func:`closure` call, which first
runs the mask fixpoint with no equalities and no strict atoms and stores
its masks: each variable's ``up``/``down``, its base class
``cls = up & down``, and ``pivots``, the mask of the variables with
indexed clauses.  U is a suffix ``order[j:]`` of one variable order (the
solver's universals in prefix order) less x and z, so the first probe
after a fill builds a sparse table of ORs (Bender and Farach-Colton,
LATIN 2000, with OR in place of min) of the packed masks
``cls | up << n | down << 2n`` over ``order``; a probe's start
``C = class(x) | classes(U)``, with ``up(C)`` and ``down(C)``, is then at
most two range queries, split at z when z lies in the range.  A probe
fires the clauses pivoted in ``C`` (the bits of ``C & pivots``) whose
partners lie in ``C`` (their targets form ``T``) and absorbs
``up(C) & down(C | T)`` until nothing changes; no other class can change,
because every fired edge points into ``C``.  The probe is unsatisfiable
iff ``up(z)`` meets ``C | T``.  The owner clears the memo whenever the
base fixpoint may move: when a unit clause is added (a new edge, or a
retired slot) and when a new or shrunk partner set lies inside its
pivot's base class (a clause that fires in the base).  A clause added
outside those cases is read live from ``pmasks``/``targets``/``by_pivot``
by later probes, and the owner ORs its pivot into ``memo["pivots"]``.
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


def _fixpoint(n, pivots, pmasks, targets, edges, by_pivot, events):
    """Close the edges (a, b), each a <= b, under transitivity and clause
    firing.  Returns the order masks (up, down) and the fired clauses'
    edges, or None once a clause without an order disjunct fires."""
    up = [1 << v for v in range(n)]
    down = up[:]
    fired = set()
    work = list(edges)
    for a, b in work:  # fired edges are appended to work as it is read
        if up[a] >> b & 1:
            continue
        up_b, down_a = up[b], down[a]
        for v in _bits(down_a):
            up[v] |= up_b
        for w in _bits(up_b):
            down[w] |= down_a
        if not up_b & down_a:
            continue
        # b <= a held already: the edge closes a cycle into one class
        events.append(("merge", a, b))
        cls = up[a] & down[a]
        for p in _bits(cls):
            for i in by_pivot.get(p, ()):
                if i not in fired and not pmasks[i] & ~cls:
                    fired.add(i)
                    events.append(("fire", i))
                    if targets[i] < 0:
                        events.append(("empty-clause", i))
                        return None
                    work.append((targets[i], p))
    return up, down, work[len(edges):]


def closure(n, pivots, pmasks, targets, eqs, les, lts, nes, by_pivot, memo=None):
    """Order-mask closure over clauses i = (pivots[i], pmasks[i], targets[i])
    and the atoms x = y (eqs), x <= y (les), x < y (lts) and x != y (nes).

    A target of -1 means the clause has no order disjunct.  ``by_pivot``
    maps each pivot variable to its clause ids, and a clause is checked
    only when its pivot's class grows, so a slot left out of ``by_pivot``
    never fires.  Every indexed clause must have a partner besides its pivot
    (partner-free clauses are passed as ``les`` edges (target, pivot)).
    Returns (rep, sccs, None, fired_edges) on success, with rep[v] the
    lowest variable of v's class and sccs one [r] per class, each after
    every class it must not exceed, so the highest class comes first.  On
    refutation it returns (None, None, certificate, None), the certificate
    being the event sequence: ("merge", a, b) for each edge a <= b that
    closed a cycle, ("fire", i) for each fired clause, then one of
    ("empty-clause", i), ("strict-cycle", a, b) or ("forced-equal", a, b).

    With a ``memo`` (see the module docstring) the call is a probe: ``lts``
    is the one atom x < z, ``nes`` is empty, and ``eqs`` is a pair
    (order, j) equating x with every variable of ``order[j:]`` except x
    and z.  Every probe of one memo passes the same ``order`` list.  An
    empty memo is first filled from this clause set.  A probe returns
    (c_mask, None, None, fired) on success: the bit mask of x's grown
    class and the ids of the clauses that fire in it; on refutation the
    certificate lists those clauses' ("fire", i) events, then an
    "empty-clause" or "strict-cycle" event.
    """
    if memo is not None:
        if not memo:
            events = []
            masks = _fixpoint(n, pivots, pmasks, targets, les, by_pivot, events)
            if masks is None:
                return None, None, events, None  # every probe of this clause set is refuted
            up, down, _ = masks
            memo.update(cls=[u & d for u, d in zip(up, down)], up=up, down=down,
                        pivots=sum(1 << p for p, ids in by_pivot.items() if ids))
        return _probe(memo, pmasks, targets, eqs, lts, nes, by_pivot)
    events = []
    edges = [e for a, b in eqs for e in ((a, b), (b, a))]
    masks = _fixpoint(n, pivots, pmasks, targets, [*edges, *les, *lts], by_pivot, events)
    if masks is None:
        return None, None, events, None
    up, down, fired_edges = masks
    cls = [u & d for u, d in zip(up, down)]
    for kind, pairs in (("strict-cycle", lts), ("forced-equal", nes)):
        for a, b in pairs:
            if cls[a] >> b & 1:
                events.append((kind, a, b))
                return None, None, events, None
    rep = [(c & -c).bit_length() - 1 for c in cls]
    # a class strictly below another has fewer variables at or below it
    sccs = [[r] for r in sorted(set(rep), key=lambda r: (-down[r].bit_count(), r))]
    return rep, sccs, None, fired_edges


def _range_table(order, cls, up, down):
    """Sparse table of ORs over ``order``: entry i of row k packs
    ``cls | up << n | down << 2n`` ORed over ``order[i : i + 2**k]``."""
    n = len(cls)
    table = [[cls[v] | up[v] << n | down[v] << 2 * n for v in order]]
    width = 1
    while 2 * width <= len(order):
        table.append([a | b for a, b in zip(table[-1], table[-1][width:])])
        width *= 2
    return table


def _range_or(table, lo, hi):
    """The packed OR over ``order[lo:hi]``, from two overlapping entries."""
    if lo >= hi:
        return 0
    k = (hi - lo).bit_length() - 1
    row = table[k]
    return row[lo] | row[hi - (1 << k)]


def _probe(memo, pmasks, targets, eqs, lts, nes, by_pivot):
    """Answer x = order[j:] (less x and z), x < z from the base fixpoint
    in ``memo``."""
    if len(lts) != 1 or nes:
        raise ValueError("a memo probe takes one strict atom and no disequalities")
    ((x, z),) = lts
    order, j = eqs
    cls, up, down, piv = memo["cls"], memo["up"], memo["down"], memo["pivots"]
    if memo.get("order") is not order:  # the first probe since the fill
        memo.update(order=order, table=_range_table(order, cls, up, down),
                    at={v: i for i, v in enumerate(order)})
    table = memo["table"]
    iz = memo["at"].get(z, -1)
    if iz >= j:  # z splits the range
        packed = _range_or(table, j, iz) | _range_or(table, iz + 1, len(order))
    else:
        packed = _range_or(table, j, len(order))
    n = len(cls)
    full = (1 << n) - 1
    # the masks of C (x's grown class), up(C) and down(C | T)
    c_mask = cls[x] | packed & full
    upc = up[x] | packed >> n & full
    downc = down[x] | packed >> 2 * n
    pending = [i for w in _bits(c_mask & piv) for i in by_pivot[w]]  # unfired, pivoted in C
    fired = []
    while True:
        outside = ~c_mask
        firing = [i for i in pending if not pmasks[i] & outside]
        fired += firing
        for i in firing:
            t = targets[i]
            if t < 0:
                return None, None, [("fire", f) for f in fired] + [("empty-clause", i)], None
            downc |= down[t]
        if downc >> z & 1:
            return None, None, [("fire", f) for f in fired] + [("strict-cycle", x, z)], None
        # the classes above C and below C | T join it
        new = upc & downc & outside
        if not new:
            return c_mask, None, None, fired
        pending = [i for i in pending if pmasks[i] & outside]
        c_mask |= new
        for v in _bits(new):
            upc |= up[v]
            downc |= down[v]
        pending += [i for w in _bits(new & piv) for i in by_pivot[w]]


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
