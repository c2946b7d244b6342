"""The polynomial-time decision procedure for quantified M+ constraints,
plus the compilation of pivoted instances down to pure M+ triples.

The solver iterates to a fixpoint over an evolving clause set: for every
ordered variable pair (x, z) and every upward set of universal variables it
asks the OH-SAT oracle whether forcing x equal to that set and x < z is
still satisfiable; if not, a derived clause is added.  A unit clause x >= z
with x before z and z universal rejects the instance.

The fixpoint is order-independent, so the scan exploits two monotonicity
facts without changing the result: satisfiability is monotone as the
equality set shrinks (binary search over the upward sets per pair), and
unsatisfiability persists as the clause set grows (known-unsatisfiable
prefixes are not re-probed across passes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .formula import OhClause, QcspInstance, normalize
from .ohsat import _bits, closure


class DialectError(ValueError):
    """Matrix clause outside the pure M+ dialect (compile first)."""


@dataclass(frozen=True)
class DerivationEvent:
    pass_no: int
    x: int
    z: int
    u: int
    clause: OhClause
    duplicate: bool


@dataclass
class Verdict:
    value: bool
    log: list
    rejecting_clause: Optional[OhClause]
    rejecting_pair: Optional[tuple]
    oracle_calls: int
    passes: int
    clause_keys: frozenset
    names: tuple

    @property
    def derived(self) -> list:
        """Clauses of the non-duplicate log events, in derivation order."""
        return [e.clause for e in self.log if not e.duplicate]

    def to_json_dict(self):
        return {
            "verdict": self.value,
            "derived": [c.text(self.names) for c in self.derived],
            "rejecting_clause": (
                self.rejecting_clause.text(self.names) if self.rejecting_clause else None
            ),
            "oracle_calls": self.oracle_calls,
        }


def up_set(inst: QcspInstance, u: int) -> set:
    """Universal variables at or after u in prefix order."""
    return {y for y in range(u, inst.n_vars) if inst.quants[y] == "A"}


def _upset_masks(quants):
    """Bitmask of the universal variables at or after each prefix position,
    with a trailing empty mask at position n."""
    n = len(quants)
    out = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        out[i] = out[i + 1] | ((1 << i) if quants[i] == "A" else 0)
    return out


def _cut_mask(quants, ups, x, z):
    """Bitmask of :func:`cut_set`, given ``ups = _upset_masks(quants)``."""
    t = -1
    if quants[x] == "E":
        t = x
    if quants[z] == "E" and z > t:
        t = z
    return ups[t + 1] & ~(1 << z)


def cut_set(inst: QcspInstance, x: int, z: int) -> set:
    """Universal variables strictly after every existential among {x, z},
    excluding z itself."""
    return set(_bits(_cut_mask(inst.quants, _upset_masks(inst.quants), x, z)))


def _check_dialect(matrix):
    for c in matrix:
        if not isinstance(c, OhClause):
            raise DialectError("matrix is not in the solver dialect; run normalize first")
        if c.is_false():
            raise DialectError("matrix contains a falsity clause; compile it first")
        if len(c.partners) > 1:
            raise DialectError("matrix clause has several partners; compile it first")
        if c.target is None:
            raise DialectError("matrix clause lacks an order disjunct; compile it first")


def solve(inst: QcspInstance) -> Verdict:
    """Decide a pure-M+ instance (triples and units) by clause derivation."""
    _check_dialect(inst.matrix)
    n = inst.n_vars
    quants = inst.quants
    ups = _upset_masks(quants)
    # distinct upward sets with the first prefix position attaining each
    G = []
    for u in range(n):
        if not G or ups[u] != G[-1][1]:
            G.append((u, ups[u]))

    clauses = {}
    # the oracle sees unit clauses as unconditional edges and, per
    # (pivot, target) pair, only the smallest derived partner set (larger
    # ones are entailed by it); `clauses` still records every clause
    pivots, pmasks, targets = [], [], []
    by_pivot = {}
    edge_list = []
    pair_slot = {}

    def add_clause(c: OhClause, derived_pair=False) -> bool:
        k = c.key()
        if k in clauses:
            return False
        clauses[k] = c
        m = 0
        for p in c.partners:
            m |= 1 << p
        if c.is_unit():
            edge_list.append((c.target, c.pivot))
            slot = pair_slot.get((c.pivot, c.target))
            if slot is not None:  # entailed by the unit from now on
                by_pivot[c.pivot].remove(slot)
            pair_slot[(c.pivot, c.target)] = None
            return True
        slot = pair_slot.get((c.pivot, c.target)) if derived_pair else None
        if derived_pair and (c.pivot, c.target) in pair_slot:
            if slot is None:
                return True  # a unit for this pair already subsumes it
            if m & ~pmasks[slot]:
                raise RuntimeError("derived partner sets must shrink")
            pmasks[slot] = m
            return True
        idx = len(pivots)
        pivots.append(c.pivot)
        pmasks.append(m)
        targets.append(c.target)
        by_pivot.setdefault(c.pivot, []).append(idx)
        if derived_pair:
            pair_slot[(c.pivot, c.target)] = idx
        return True

    for c in inst.matrix:
        add_clause(c)

    n_derived = 0
    log = []
    oracle_calls = 0
    known = {}

    def rejects(x, z) -> bool:
        return x < z and quants[z] == "A" and ((x, (), z) in clauses or (z, (), x) in clauses)

    def probe(x, z, mask) -> bool:
        """True iff phi with x equated to the masked set and x < z is UNSAT."""
        nonlocal oracle_calls
        oracle_calls += 1
        eqs = [(x, v) for v in _bits(mask & ~(1 << x) & ~(1 << z))]
        reps, _, _, _ = closure(
            n, pivots, pmasks, targets, eqs, edge_list, [(x, z)], [], by_pivot
        )
        return reps is None

    def false_verdict(x, z):
        unit = clauses.get((x, (), z)) or clauses.get((z, (), x))
        return Verdict(
            False, log, unit, (x, z), oracle_calls, pass_no,
            frozenset(clauses), inst.names,
        )

    pass_no = 0
    changed = True
    while changed:
        changed = False
        pass_no += 1
        for x in range(n):
            for z in range(n):
                if x == z:
                    continue
                if rejects(x, z):
                    return false_verdict(x, z)
                lo = known.get((x, z), 0)
                last = len(G) - 1
                while lo <= last:
                    if not probe(x, z, G[lo][1]):
                        break  # satisfiable here, hence at every later position
                    # find the first satisfiable upward set after lo
                    if lo == last or probe(x, z, G[last][1]):
                        s = last + 1
                    else:
                        a, b = lo, last  # a unsatisfiable, b satisfiable
                        while b - a > 1:
                            mid = (a + b) // 2
                            if probe(x, z, G[mid][1]):
                                a = mid
                            else:
                                b = mid
                        s = b
                    cm = _cut_mask(quants, ups, x, z)
                    for i in range(lo, s):
                        u, mask = G[i]
                        partners = frozenset(_bits(mask & ~(1 << x) & ~(1 << z) & ~cm))
                        c = OhClause(x, partners, z)
                        fresh = add_clause(c, derived_pair=True)
                        log.append(DerivationEvent(pass_no, x, z, u, c, not fresh))
                        if fresh:
                            n_derived += 1
                            changed = True
                            if n_derived > n * n * (n + 1):
                                raise RuntimeError("derived-clause bound violated")
                            if c.is_unit() and rejects(x, z):
                                return false_verdict(x, z)
                    lo = s
                known[(x, z)] = lo
    return Verdict(
        True, log, None, None, oracle_calls, pass_no, frozenset(clauses), inst.names
    )


def _fresh(names_taken, base):
    name = base
    k = 0
    while name in names_taken:
        k += 1
        name = f"{base}_{k}"
    names_taken.add(name)
    return name


def compile_to_mplus(inst: QcspInstance) -> QcspInstance:
    """Rewrite pivoted clauses into pure M+ triples and units.

    A clause with k >= 2 partners unfolds into a chain through fresh
    existential variables appended at the end of the prefix; a clause without
    an order disjunct first universally quantifies a fresh target.  Fresh
    blocks of distinct clauses are variable-disjoint, in clause order.
    """
    if not inst.is_oh_dialect():
        inst = normalize(inst)
    names = list(inst.names)
    quants = list(inst.quants)
    taken = set(names)
    out = []

    def emit_chain(pivot, partners, target, tag):
        if len(partners) <= 1:
            out.append(OhClause(pivot, frozenset(partners), target))
            return
        hs = []
        for i in range(2, len(partners) + 1):
            h = _fresh(taken, f"_h{tag}_{i}")
            names.append(h)
            quants.append("E")
            hs.append(len(names) - 1)
        prev = pivot
        for i, y in enumerate(partners[:-1]):
            h = hs[i]
            out.append(OhClause(prev, frozenset([y]), h))
            out.append(OhClause(h, frozenset(), pivot))
            prev = h
        out.append(OhClause(prev, frozenset([partners[-1]]), target))

    for j, c in enumerate(inst.matrix):
        if not isinstance(c, OhClause):
            raise DialectError("normalize the instance before compiling")
        partners = sorted(c.partners)
        if c.target is not None:
            emit_chain(c.pivot, partners, c.target, j)
        else:
            z1 = _fresh(taken, f"_z{j}")
            names.append(z1)
            quants.append("A")
            emit_chain(c.pivot, partners, len(names) - 1, j)
    dedup = {}
    for c in out:
        dedup.setdefault(c.key(), c)
    return QcspInstance(tuple(names), tuple(quants), tuple(dedup.values()))
