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

Each probe is one :func:`~ordhorn.ohsat.probe` call on the solver's
:class:`~ordhorn.ohsat.ClauseSet`, with its upward set passed as a start
index into the universals in prefix order.  The solver imports ``probe``
as ``closure`` because the benchmark in ``perfbench/`` traces the probe
under that name.

The derivation log is the one record of derived clauses; events hold
(pivot, partner mask, target) and build their ``OhClause`` on read.  Each
pair derives a prefix of the nested upward sets, so an event repeats a
clause iff its mask is its predecessor's or the clause is an input: its
``duplicate`` flag.  ``Verdict.clause_keys`` is built on first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .formula import OhClause, QcspInstance, ResourceLimitError, normalize
from .ohsat import ClauseSet, _bits
from .ohsat import probe as closure  # the benchmark traces ordhorn.solver.closure


class DialectError(ValueError):
    """Matrix clause outside the pure M+ dialect (compile first)."""


@dataclass(frozen=True, slots=True)
class DerivationEvent:
    """One derivation of the clause x != p for p in ``partners`` (a bit
    mask) | x >= z, at upward-set start u; ``clause`` builds it on read."""

    pass_no: int
    x: int
    z: int
    u: int
    partners: int
    duplicate: bool

    @property
    def clause(self) -> OhClause:
        return OhClause(self.x, frozenset(_bits(self.partners)), self.z)


@dataclass
class Verdict:
    value: bool
    log: list
    rejecting_clause: Optional[OhClause]
    rejecting_pair: Optional[tuple]
    oracle_calls: int
    passes: int
    matrix: tuple
    names: tuple

    @property
    def derived(self) -> list:
        """Clauses of the non-duplicate log events, in derivation order."""
        return [e.clause for e in self.log if not e.duplicate]

    @cached_property
    def clause_keys(self) -> frozenset:
        """Keys of the input and derived clauses, built on first read."""
        return frozenset(c.key() for c in (*self.matrix, *self.derived))

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


def solve(inst: QcspInstance, max_probes: int = 100_000_000) -> Verdict:
    """Decide a pure-M+ instance (triples and units) by clause derivation;
    :class:`ResourceLimitError` past ``max_probes`` oracle probes."""
    _check_dialect(inst.matrix)
    n = inst.n_vars
    quants = inst.quants
    ups = _upset_masks(quants)
    # distinct upward sets with the first prefix position attaining each
    G = [(u, ups[u]) for u in range(n) if u == 0 or ups[u] != ups[u - 1]]
    # G[g] is the suffix univ[starts[g]:] of the universals in prefix order
    univ = [v for v in range(n) if quants[v] == "A"]
    starts = [len(univ) - mask.bit_count() for _, mask in G]

    clauses = ClauseSet(n, univ)
    units = clauses.units
    # the distinct matrix clauses as (pivot, partner mask, target), in order
    inputs = dict.fromkeys((c.pivot, sum(1 << q for q in c.partners), c.target) for c in inst.matrix)
    for clause in inputs:
        clauses.add(*clause)

    n_derived = 0
    log = []
    oracle_calls = 0
    known = {}

    def rejects(x, z) -> bool:
        return x < z and quants[z] == "A" and ((x, z) in units or (z, x) in units)

    def probe(x, z, g) -> bool:
        """True iff phi with x equated to the upward set G[g] and x < z is UNSAT."""
        nonlocal oracle_calls
        oracle_calls += 1
        if oracle_calls > max_probes:
            raise ResourceLimitError(f"solve exceeded {max_probes} probes")
        return closure(clauses, x, z, starts[g])[0] is None

    def verdict(pair=None):
        """True, or false with the unit clause that rejects the pair."""
        unit = None
        if pair is not None:
            x, z = pair if pair in units else pair[::-1]
            unit = OhClause(x, frozenset(), z)
        return Verdict(pair is None, log, unit, pair, oracle_calls, pass_no, inst.matrix, inst.names)

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
                    return verdict((x, z))
                lo = known.get((x, z), 0)
                last = len(G) - 1
                while lo <= last:
                    if not probe(x, z, lo):
                        break  # satisfiable here, hence at every later position
                    # find the first satisfiable upward set after lo
                    if lo == last or probe(x, z, last):
                        s = last + 1
                    else:
                        a, b = lo, last  # a unsatisfiable, b satisfiable
                        while b - a > 1:
                            mid = (a + b) // 2
                            if probe(x, z, mid):
                                a = mid
                            else:
                                b = mid
                        s = b
                    drop = (1 << x) | (1 << z) | _cut_mask(quants, ups, x, z)
                    prev = G[lo - 1][1] & ~drop if lo else None
                    for i in range(lo, s):
                        u, mask = G[i]
                        m = mask & ~drop
                        # nested masks: m is a repeat iff it is its predecessor or an input
                        fresh = m != prev and (x, m, z) not in inputs
                        prev = m
                        log.append(DerivationEvent(pass_no, x, z, u, m, not fresh))
                        if fresh:
                            clauses.add(x, m, z, derived=True)
                            n_derived += 1
                            changed = True
                            if n_derived > n * n * (n + 1):
                                raise RuntimeError("derived-clause bound violated")
                            if not m and rejects(x, z):
                                return verdict((x, z))
                    lo = s
                known[(x, z)] = lo
    return verdict()


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
    return QcspInstance(tuple(names), tuple(quants), tuple(dict.fromkeys(out)))
