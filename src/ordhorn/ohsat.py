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

There is one closure engine behind two entry points.  It indexes clauses
by pivot and re-examines a clause only when its pivot's class grows, so a
clause with no partner besides its pivot would never be examined: callers
pass such clauses as plain edges (or, without an order disjunct, refute at
once), and a clause left out of the index never fires.

:func:`closure` decides one conjunction of clauses and atoms, returning
each variable's level in a model or a refutation certificate; :func:`oh_sat`
is built on it.

A :class:`ClauseSet` holds the clause set the solver grows: the arrays and
``by_pivot`` of :func:`closure`, the unit clauses as ``<=`` edges, a mask
of the pivots of its clauses, one variable order (the solver's
universals in prefix order) and a *memo* of the set's base fixpoint, the
mask fixpoint of its clauses and edges alone.  :func:`probe` answers the
solver's question "x equal to a set U and x < z", U being a suffix
``order[j:]`` less x and z.  A probe that finds the memo empty fills it in
one step: each variable's ``up``/``down`` and base class
``cls = up & down``, and a sparse table of ORs (Bender and Farach-Colton,
LATIN 2000, with OR in place of min) of the packed masks
``cls | up << n | down << 2n`` over ``order``.  A probe's start
``C = class(x) | classes(U)``, with ``up(C)`` and ``down(C)``, is then at
most two range queries, split at z when z lies in the range.  A probe
fires the clauses pivoted in ``C`` whose partners lie in ``C`` (their
targets form ``T``) and absorbs ``up(C) & down(C | T)`` until nothing
changes; no other class can change, because every fired edge points into
``C``.  The probe is unsatisfiable iff ``up(z)`` meets ``C | T``, that is
iff z enters ``down(C | T)``.

When z lies outside ``order[j:]``, z enters only that stop test, so the
grown class is the same for every such z.  A probe of that kind that
reaches its fixpoint stores it as ``memo["grown"][x, j] = (C, down(C | T),
fired)``, and later probes of (x, j) with z outside the range answer from
it: unsatisfiable iff z lies in the stored ``down(C | T)``, which only grows
as the fixpoint runs.  Probes with z inside the range and refuted probes
are not stored.

:meth:`ClauseSet.add` keeps the memo valid.  It clears the memo whenever
the base fixpoint may move: on a unit clause (a new edge, or a retired
slot) and on a new or shrunk partner set inside its pivot's base class (a
clause that fires in the base).  Any other clause is read live from the
arrays, so ``add`` only empties ``memo["grown"]``, where it may fire.
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


def _fixpoint(n, pmasks, targets, edges, by_pivot, events):
    """Close the edges (a, b), each a <= b, under transitivity and clause
    firing.  Returns the order masks (up, down), or None once a clause
    without an order disjunct fires."""
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
    return up, down


def closure(n, pmasks, targets, eqs, les, lts, nes, by_pivot):
    """Order-mask closure over the clauses i (partner mask ``pmasks[i]``,
    target ``targets[i]``) indexed in ``by_pivot`` and the atoms x = y
    (eqs), x <= y (les), x < y (lts) and x != y (nes).

    A target of -1 means the clause has no order disjunct.  ``by_pivot``
    maps each pivot variable to its clause ids, and a clause is checked
    only when its pivot's class grows, so a slot left out of ``by_pivot``
    never fires.  Every indexed clause must have a partner besides its pivot
    (partner-free clauses are passed as ``les`` edges (target, pivot)).
    Returns (level, None) on success, level[v] being v's level in a model:
    variables share a level iff they share a class, and distinct classes
    get distinct levels 0, 1, ... in a topological order.  On refutation it
    returns (None, certificate), the event sequence: ("merge", a, b) for
    each edge a <= b that closed a cycle, ("fire", i) for each fired clause,
    then one of ("empty-clause", i), ("strict-cycle", a, b) or
    ("forced-equal", a, b).
    """
    events = []
    edges = [e for a, b in eqs for e in ((a, b), (b, a))]
    masks = _fixpoint(n, pmasks, targets, [*edges, *les, *lts], by_pivot, events)
    if masks is None:
        return None, events
    up, down = masks
    cls = [u & d for u, d in zip(up, down)]
    for kind, pairs in (("strict-cycle", lts), ("forced-equal", nes)):
        for a, b in pairs:
            if cls[a] >> b & 1:
                events.append((kind, a, b))
                return None, events
    rep = [(c & -c).bit_length() - 1 for c in cls]
    # a class strictly below another has fewer variables at or below it
    ranked = sorted(set(rep), key=lambda r: (down[r].bit_count(), -r))
    level = {r: i for i, r in enumerate(ranked)}
    return [level[r] for r in rep], None


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


class ClauseSet:
    """A clause set grown by :meth:`add`, with its order and memo.  The derived
    clauses of a (pivot, target) pair share one slot, holding the smallest
    partner set (it entails larger ones) until a unit on the pair retires it."""

    def __init__(self, n, order):
        self.n, self.order = n, order
        self.at = {v: i for i, v in enumerate(order)}
        self.pmasks, self.targets, self.by_pivot, self.slots = [], [], {}, {}
        self.edges, self.units = [], set()  # each unit as (target, pivot) and (pivot, target)
        self.pivots = 0  # the mask of the pivots that have had an indexed clause
        self.memo = {}

    def add(self, p, m, t, derived=False):
        """Add the clause with pivot p, partner mask m and target t (-1: none)."""
        memo = self.memo
        if not m:
            memo.clear()
            self.edges.append((t, p))
            self.units.add((p, t))
            slot = self.slots.pop((p, t), None)
            if slot is not None:  # entailed by the unit from now on
                self.by_pivot[p].remove(slot)
            return
        if derived and (p, t) in self.units:
            return  # the unit already subsumes it
        slot = self.slots.get((p, t))
        if memo:
            if m & ~memo["cls"][p]:
                memo["grown"].clear()  # the clause may fire in a stored class
            else:
                memo.clear()  # the clause fires in the base fixpoint
        if slot is not None:
            if m & ~self.pmasks[slot]:
                raise RuntimeError("derived partner sets must shrink")
            self.pmasks[slot] = m
            return
        self.pivots |= 1 << p
        self.by_pivot.setdefault(p, []).append(len(self.pmasks))
        if derived:
            self.slots[p, t] = len(self.pmasks)
        self.pmasks.append(m)
        self.targets.append(t)


def probe(cs, x, z, j):
    """Decide x = ``cs.order[j:]`` (less x and z) and x < z over the clause
    set ``cs``, from its base-fixpoint memo (see the module docstring),
    filling an empty memo first.

    Returns (c_mask, None, None, fired) on success: the bit mask of x's
    grown class and the ids of the clauses that fire in it.  On refutation
    it returns (None, None, certificate, None).  The certificate lists the
    fired clauses' ("fire", i) events, then an "empty-clause" or
    "strict-cycle" event; when the base fixpoint itself is refuted, the memo
    stays empty and the certificate is that fixpoint's.  A probe answered
    from ``memo["grown"]`` lists every clause fired up to the stored
    fixpoint, which may be more than a probe stopped as soon as z entered
    would list.  The ``fired`` list is shared with the memo, so callers
    must not mutate it.
    """
    n, order, memo = cs.n, cs.order, cs.memo
    pmasks, targets, by_pivot = cs.pmasks, cs.targets, cs.by_pivot
    if not memo:
        events = []
        masks = _fixpoint(n, pmasks, targets, cs.edges, by_pivot, events)
        if masks is None:
            return None, None, events, None  # every probe of this clause set is refuted
        up, down = masks
        cls = [u & d for u, d in zip(up, down)]
        memo.update(cls=cls, up=up, down=down, table=_range_table(order, cls, up, down), grown={})
    cls, up, down, table, piv = memo["cls"], memo["up"], memo["down"], memo["table"], cs.pivots
    iz = cs.at.get(z, -1)
    if iz >= j:  # z splits the range
        packed = _range_or(table, j, iz) | _range_or(table, iz + 1, len(order))
    else:
        # z enters only the stop test, so every such z shares one SAT fixpoint
        hit = memo["grown"].get((x, j))
        if hit:
            c_mask, downc, fired = hit
            if downc >> z & 1:
                return None, None, [("fire", f) for f in fired] + [("strict-cycle", x, z)], None
            return c_mask, None, None, fired
        packed = _range_or(table, j, len(order))
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
            if iz < j:
                memo["grown"][x, j] = c_mask, downc, fired
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
    pmasks, targets = [], []
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
        pmasks.append(m)
        targets.append(target)
    level, cert = closure(conj.n_vars, pmasks, targets, eqs, les, lts, nes, by_pivot)
    if level is None:
        return UnsatResult(cert)
    return SatResult(WeakOrder(tuple(level)))


def entails(conj: OhConjunction, atom: Atom) -> bool:
    """True iff the conjunction entails the atom over linear orders.

    Checked as unsatisfiability of the conjunction with the negated atom,
    in one oracle call (oh_sat decides a negated equality, !=, exactly).
    """
    return not oh_sat(OhConjunction(conj.n_vars, conj.clauses, conj.atoms + (atom.negated(),)))
