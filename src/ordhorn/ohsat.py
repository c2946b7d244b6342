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

There is one closure engine behind two entry points, :func:`oh_sat` for a
conjunction and :func:`probe` for the solver, and one clause index feeds
both: a :class:`ClauseSet`, built only by :meth:`ClauseSet.add`.  It
indexes each clause (partner mask ``pmasks[i]``, target ``targets[i]``,
-1 for none) under its pivot in ``by_pivot``, and the engine re-examines a
clause only when its pivot's class grows.  So a partner-free clause is kept
as a plain ``<=`` edge (``add`` rejects one without an order disjunct,
which callers refute at once), and a clause left out of ``by_pivot`` never
fires.

The solver grows one :class:`ClauseSet`, which also keeps a mask of the
pivots of its clauses, one variable order (the solver's universals in
prefix order) and a *memo* of the set's base fixpoint, the mask fixpoint of
its clauses and edges alone.  :func:`probe` answers the solver's question
"x equal to a set U and x < z", U being a suffix ``order[j:]`` less x and
z.  A probe that finds the memo empty fills it in one step: each variable's
``up``/``down`` and base class ``cls = up & down``, ``packs[i]`` packing
``cls | up << n | down << 2n`` of ``order[i]``, and the suffix ORs
``suffix[j]`` of ``packs[j:]``.  A probe's start ``C = class(x) | classes(U)``,
with ``up(C)`` and ``down(C)``, joins x's masks to ``suffix[j]``, or, when z
is ``order[iz]`` with iz >= j, to ``suffix[iz + 1]`` ORed with
``packs[j:iz]``.  A probe fires the clauses pivoted in ``C`` whose partners
lie in ``C`` (their targets form ``T``) and absorbs ``up(C) & down(C | T)``
until nothing changes; no other class can change, because every fired edge
points into ``C``.  The probe is unsatisfiable iff ``up(z)`` meets
``C | T``, that is iff z enters ``down(C | T)``.

When z lies outside ``order[j:]``, z enters only that stop test, so the
grown class is the same for every such z.  A probe of that kind that
reaches its fixpoint stores it as ``memo["grown"][x, j] = (C, down(C | T),
fired)``, and later probes of (x, j) with z outside the range answer from
it: unsatisfiable iff z lies in the stored ``down(C | T)``, which only grows
as the fixpoint runs.  Probes with z inside the range and refuted probes
are not stored.

:meth:`ClauseSet.add` keeps the memo valid.  It clears the memo whenever
the base fixpoint may move: on a unit clause whose edge t <= p is new, and
on a new or shrunk partner set inside its pivot's base class (a clause that
fires in the base).  A unit whose edge the base already implies keeps the
memo, ``memo["grown"]`` included: the slot it retires could only add that
same edge.  Any other clause is read live from the arrays, so ``add`` only
empties ``memo["grown"]``, where it may fire.
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


def _fixpoint(cs, edges, events):
    """Close the edges (a, b), each a <= b, under transitivity and the firing
    of the clauses indexed in ``cs``.  Returns the order masks (up, down), or
    None once a clause without an order disjunct fires."""
    pmasks, targets, by_pivot = cs.pmasks, cs.targets, cs.by_pivot
    up = [1 << v for v in range(cs.n)]
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


class ClauseSet:
    """A clause set grown by :meth:`add`, with its order and memo.  The derived
    clauses of a (pivot, target) pair share one slot, holding the smallest
    partner set (it entails larger ones) until a unit on the pair retires it."""

    def __init__(self, n, order):
        self.n, self.order = n, order
        self.at = {v: i for i, v in enumerate(order)}
        self.pmasks, self.targets, self.by_pivot, self.slots = [], [], {}, {}
        self.edges = {}  # each unit t <= p as the key (t, p), in insertion order
        self.pivots = 0  # the mask of the pivots that have had an indexed clause
        self.memo = {}

    def add(self, p, m, t, derived=False):
        """Add the clause with pivot p, partner mask m and target t (-1: none);
        ValueError for a clause with neither partners nor a target."""
        memo = self.memo
        if not m:
            if t < 0:
                raise ValueError("a clause without partners needs an order disjunct")
            if memo and not memo["up"][t] >> p & 1:
                memo.clear()  # a new edge t <= p may move the base fixpoint
            self.edges[t, p] = None
            slot = self.slots.pop((p, t), None)
            if slot is not None:  # entailed by the unit from now on
                self.by_pivot[p].remove(slot)
            return
        if derived and (t, p) in self.edges:
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
    would list, and may name a slot that an implied unit retired since.
    The ``fired`` list is shared with the memo, so callers must not mutate
    it.  Slot 1 stays None: the benchmark's probe counter unpacks four values.
    """
    memo = cs.memo
    if not memo:
        n, order = cs.n, cs.order
        events = []
        masks = _fixpoint(cs, cs.edges, events)
        if masks is None:
            return None, None, events, None  # every probe of this clause set is refuted
        up, down = masks
        cls = [u & d for u, d in zip(up, down)]
        # not a comprehension, which would turn cls, up, down and n into slower closure cells
        packs, suffix = [0] * len(order), [0] * (len(order) + 1)
        for i, v in reversed([*enumerate(order)]):
            packs[i] = cls[v] | up[v] << n | down[v] << 2 * n
            suffix[i] = suffix[i + 1] | packs[i]
        memo.update(cls=cls, up=up, down=down, packs=packs, suffix=suffix, grown={})
    iz = cs.at.get(z, -1)
    # z outside order[j:] enters only the stop test, so every such z shares one SAT fixpoint
    hit = iz < j and memo["grown"].get((x, j))
    if hit:
        c_mask, downc, fired = hit
        if downc >> z & 1:
            return None, None, [("fire", f) for f in fired] + [("strict-cycle", x, z)], None
        return c_mask, None, None, fired
    n, pmasks, targets, by_pivot, piv = cs.n, cs.pmasks, cs.targets, cs.by_pivot, cs.pivots
    cls, up, down, suffix = memo["cls"], memo["up"], memo["down"], memo["suffix"]
    if iz >= j:  # z splits the suffix: OR the entries before it one by one
        packed = suffix[iz + 1]
        for e in memo["packs"][j:iz]:
            packed |= e
    else:
        packed = suffix[j]
    full = (1 << n) - 1
    # the masks of C (x's grown class), up(C) and down(C | T)
    c_mask = cls[x] | packed & full
    upc = up[x] | packed >> n & full
    downc = down[x] | packed >> 2 * n
    pending = []  # unfired, pivoted in C
    w = c_mask & piv
    while w:
        low = w & -w
        pending += by_pivot[low.bit_length() - 1]
        w ^= low
    fired = []
    while True:
        outside = ~c_mask
        firing, kept = [], []  # one pass; both keep pending's order
        for i in pending:
            if pmasks[i] & outside:
                kept.append(i)
            else:
                firing.append(i)
        pending = kept
        if firing:
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
        c_mask |= new
        while new:
            low = new & -new
            v = low.bit_length() - 1
            upc |= up[v]
            downc |= down[v]
            if low & piv:
                pending += by_pivot[v]
            new ^= low


def oh_sat(conj: OhConjunction):
    """Decide a conjunction by the mask fixpoint over its clauses and atoms.

    A SAT answer's model puts v at its level: variables share a level iff
    they share a class, and distinct classes get distinct levels 0, 1, ...
    in a topological order.  An UNSAT answer's certificate is the event
    sequence: ("merge", a, b) for each edge a <= b that closed a cycle,
    ("fire", i) for each fired clause i of ``conj.clauses``, then one of
    ("empty-clause", i), ("strict-cycle", a, b) or ("forced-equal", a, b).
    """
    eqs, les, lts, nes = _normalize_atoms(conj.atoms)
    cs = ClauseSet(conj.n_vars, ())
    for a, b in les:
        cs.add(b, 0, a)  # the edge a <= b
    for i, c in enumerate(conj.clauses):
        if c.is_false():
            return UnsatResult([("fire", i), ("empty-clause", i)])
        cs.add(c.pivot, sum(1 << p for p in c.partners), -1 if c.target is None else c.target)
    events = []
    eq_edges = [e for a, b in eqs for e in ((a, b), (b, a))]
    masks = _fixpoint(cs, [*eq_edges, *cs.edges, *lts], events)
    if masks is not None:
        up, down = masks
        cls = [u & d for u, d in zip(up, down)]
        pairs = [("strict-cycle", a, b) for a, b in lts] + [("forced-equal", a, b) for a, b in nes]
        clash = next((e for e in pairs if cls[e[1]] >> e[2] & 1), None)
        if clash is None:
            rep = [(c & -c).bit_length() - 1 for c in cls]
            # a class strictly below another has fewer variables at or below it
            ranked = sorted(set(rep), key=lambda r: (down[r].bit_count(), -r))
            level = {r: i for i, r in enumerate(ranked)}
            return SatResult(WeakOrder(tuple(level[r] for r in rep)))
        events.append(clash)
    ids = [i for i, c in enumerate(conj.clauses) if c.partners]  # cs's clause ids in conj.clauses
    # the two-field events, fire and empty-clause, name a clause id
    return UnsatResult([(e[0], ids[e[1]]) if len(e) == 2 else e for e in events])


def entails(conj: OhConjunction, atom: Atom) -> bool:
    """True iff the conjunction entails the atom over linear orders.

    Checked as unsatisfiability of the conjunction with the negated atom,
    in one oracle call (oh_sat decides a negated equality, !=, exactly).
    """
    return not oh_sat(OhConjunction(conj.n_vars, conj.clauses, conj.atoms + (atom.negated(),)))
