"""The polynomial-time decision procedure for quantified M+ constraints,
plus the compilation of pivoted instances down to pure M+ triples through
``formula._mplus_chain``, the one chain construction.

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
:class:`~ordhorn.ohsat.ClauseSet`.  Upward set g is the suffix ``univ[g:]``
of the universals ``univ`` in prefix order, so g is the probe's start index.
The solver imports ``probe`` as ``closure`` because the benchmark in
``perfbench/`` traces the probe under that name.

The derivation log is one run ``(pass, x, z, lo, s)`` per binary search:
pair (x, z) derives the prefix ``G[lo:s]`` of the nested upward sets.
``_derivations`` states once which of them repeat a clause, so ``solve``
adds a run's last fresh mask, the smallest, and ``Verdict.log`` builds one
NamedTuple event per upward set on first read, as ``clause_keys`` is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

from .formula import OhClause, QcspInstance, ResourceLimitError, _mplus_chain, normalize
from .ohsat import ClauseSet, _bits
from .ohsat import probe as closure  # the benchmark traces ordhorn.solver.closure


class DialectError(ValueError):
    """Matrix clause outside the pure M+ dialect (compile first)."""


class DerivationEvent(NamedTuple):
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
    runs: list
    rejecting_clause: Optional[OhClause]
    rejecting_pair: Optional[tuple]
    oracle_calls: int
    passes: int
    matrix: tuple
    quants: tuple
    names: tuple

    @cached_property
    def log(self) -> list:
        """One :class:`DerivationEvent` per upward set of each run, built on first read."""
        run = _derivations(self.quants, self.matrix)[2]
        return [DerivationEvent(p, x, z, u, m, not fresh)
                for p, x, z, lo, s in self.runs for u, m, fresh in run(x, z, lo, s)]

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
    return set(_bits(_upset_masks(inst.quants)[u]))


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


def _derivations(quants, matrix):
    """The upward sets G, the distinct matrix clauses as (pivot, partner mask, target),
    and ``run(x, z, lo, s)``, yielding (u, m, fresh) where (x, z) derives x != m | x >= z."""
    ups = _upset_masks(quants)
    # (first position, mask) of each distinct upward set: G[g] is the suffix univ[g:]
    G = [(u, ups[u]) for u in range(len(quants)) if u == 0 or ups[u] != ups[u - 1]]
    inputs = dict.fromkeys((c.pivot, sum(1 << q for q in c.partners), c.target) for c in matrix)

    def run(x, z, lo, s):
        drop = (1 << x) | (1 << z) | _cut_mask(quants, ups, x, z)
        prev = G[lo - 1][1] & ~drop if lo else None
        for u, mask in G[lo:s]:
            m = mask & ~drop
            # nested masks: m is a repeat iff it is its predecessor or an input
            yield u, m, m != prev and (x, m, z) not in inputs
            prev = m

    return G, inputs, run


def solve(inst: QcspInstance, max_probes: int = 100_000_000) -> Verdict:
    """Decide a pure-M+ instance (triples and units) by clause derivation;
    :class:`ResourceLimitError` past ``max_probes`` oracle probes."""
    _check_dialect(inst.matrix)
    n = inst.n_vars
    quants = inst.quants
    G, inputs, run = _derivations(quants, inst.matrix)

    clauses = ClauseSet(n, inst.universals())
    edges = clauses.edges
    for clause in inputs:
        clauses.add(*clause)

    n_derived = 0
    runs = []
    oracle_calls = 0
    known = {}

    def rejects(x, z) -> bool:
        return x < z and quants[z] == "A" and ((x, z) in edges or (z, x) in edges)

    def probe(x, z, g) -> bool:
        """True iff phi with x equated to the upward set G[g] and x < z is UNSAT."""
        nonlocal oracle_calls
        oracle_calls += 1
        if oracle_calls > max_probes:
            raise ResourceLimitError(f"solve exceeded {max_probes} probes")
        return closure(clauses, x, z, g)[0] is None

    def verdict(pair=None):
        """True, or false with the unit clause that rejects the pair."""
        unit = None
        if pair is not None:
            x, z = pair if pair[::-1] in edges else pair[::-1]
            unit = OhClause(x, frozenset(), z)
        return Verdict(pair is None, runs, unit, pair, oracle_calls, pass_no, inst.matrix, quants, inst.names)

    pass_no, before = 0, None
    while n_derived != before:  # a pass that derives nothing ends the fixpoint
        before = n_derived
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
                    fresh = [(i, m) for i, (_, m, new) in enumerate(run(x, z, lo, s), lo) if new]
                    if fresh:
                        i, m = fresh[-1]  # the smallest partner set, all a slot keeps
                        clauses.add(x, m, z, derived=True)
                        n_derived += len(fresh)
                        if n_derived > n * n * (n + 1):
                            raise RuntimeError("derived-clause bound violated")
                        if not m and rejects(x, z):
                            runs.append((pass_no, x, z, lo, i + 1))  # the run ends at the unit
                            return verdict((x, z))
                    runs.append((pass_no, x, z, lo, s))
                    lo = s
                known[(x, z)] = lo
    return verdict()


def compile_to_mplus(inst: QcspInstance) -> QcspInstance:
    """Rewrite pivoted clauses into pure M+ triples and units.

    A clause with k >= 1 partners unfolds into the triples of
    ``_mplus_chain`` through k - 1 fresh existential variables appended at
    the end of the prefix; a clause without an order disjunct first
    universally quantifies a fresh target.  Fresh blocks of distinct clauses
    are variable-disjoint, in clause order.
    """
    if not inst.is_oh_dialect():
        inst = normalize(inst)
    names = list(inst.names)
    quants = list(inst.quants)
    taken = set(names)
    out = []

    def fresh(base, q):
        """Append a q-quantified variable named base, or base_1, base_2, ...
        past a name already taken; return its index."""
        name, k = base, 0
        while name in taken:
            k += 1
            name = f"{base}_{k}"
        taken.add(name)
        names.append(name)
        quants.append(q)
        return len(names) - 1

    for j, c in enumerate(inst.matrix):
        target = fresh(f"_z{j}", "A") if c.target is None else c.target
        if not c.partners:
            out.append(OhClause(c.pivot, frozenset(), target))
            continue
        hs = [fresh(f"_h{j}_{i}", "E") for i in range(2, len(c.partners) + 1)]
        for a, b, z in _mplus_chain(c.pivot, sorted(c.partners), target, hs):
            out.append(OhClause(a, frozenset([b]), z))
    return QcspInstance(tuple(names), tuple(quants), tuple(dict.fromkeys(out)))
