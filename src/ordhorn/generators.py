"""Instance families for tests, calibration, and the self-test command."""

from __future__ import annotations

import itertools
import random
from typing import Iterator, List

from .formula import Atom, OhClause, QcspInstance


def parallel_chain(n: int) -> QcspInstance:
    """A chain of n segments whose edges carry two parallel universal labels.

    Within the proof system, the endpoint pair accumulates one minimal fact
    per label choice (2^n of them); the clause-deriving solver handles the
    same instance polynomially.
    """
    names = ["c0"]
    quants = ["E"]
    for i in range(1, n + 1):
        names += [f"y{i}_0", f"y{i}_1", f"c{i}"]
        quants += ["A", "A", "E"]
    inst_names = tuple(names)
    ix = {nm: i for i, nm in enumerate(inst_names)}
    clauses = []
    for i in range(1, n + 1):
        src, dst = ix[f"c{i - 1}"], ix[f"c{i}"]
        clauses.append(OhClause(src, frozenset([ix[f"y{i}_0"]]), dst))
        clauses.append(OhClause(src, frozenset([ix[f"y{i}_1"]]), dst))
        clauses.append(OhClause(dst, frozenset(), src))
    return QcspInstance(inst_names, tuple(quants), tuple(clauses))


def mplus_clause_universe(n: int) -> List[OhClause]:
    """All non-trivial unit and single-partner clauses on n variables."""
    out = []
    for x in range(n):
        for z in range(n):
            if z != x:
                out.append(OhClause(x, frozenset(), z))
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if y != x and z != x and z != y:
                    out.append(OhClause(x, frozenset([y]), z))
    return out


def random_mplus_instance(rng: random.Random, max_vars: int = 7, max_clauses: int = 6) -> QcspInstance:
    """A random pure-M+ instance (units and triples, no tautologies)."""
    n = rng.randint(1, max_vars)
    names = tuple(f"x{i + 1}" for i in range(n))
    quants = tuple(rng.choice("EA") for _ in range(n))
    universe = mplus_clause_universe(n)
    clauses = []
    seen = set()
    if universe:
        for _ in range(rng.randint(1, max_clauses)):
            c = rng.choice(universe)
            if c.key() not in seen:
                seen.add(c.key())
                clauses.append(c)
    return QcspInstance(names, quants, tuple(clauses))


def _block_permutations(quants):
    """Permutations of prefix positions that only shuffle adjacent equal
    quantifiers (these preserve both the structure and the verdict)."""
    blocks = []
    start = 0
    for i in range(1, len(quants) + 1):
        if i == len(quants) or quants[i] != quants[start]:
            blocks.append(list(range(start, i)))
            start = i
    perms_per_block = [list(itertools.permutations(b)) for b in blocks]
    for combo in itertools.product(*perms_per_block):
        perm = {}
        for block, image in zip(blocks, combo):
            for src, dst in zip(block, image):
                perm[src] = dst
        yield perm


def _canonical_key(quants, clause_keys):
    best = None
    for perm in _block_permutations(quants):
        renamed = sorted(
            (perm[piv], tuple(sorted(perm[p] for p in partners)), perm[tgt])
            for piv, partners, tgt in clause_keys
        )
        key = tuple(renamed)
        if best is None or key < best:
            best = key
    return best


def exhaustive_mplus_instances(max_vars: int = 4, max_clauses: int = 3) -> Iterator[QcspInstance]:
    """Every pure-M+ instance up to renaming within quantifier blocks.

    Covers all prefixes on 1..max_vars variables and all clause sets of size
    at most max_clauses drawn from the non-trivial clause universe.
    """
    for n in range(1, max_vars + 1):
        names = tuple(f"x{i + 1}" for i in range(n))
        universe = mplus_clause_universe(n)
        for quants in itertools.product("EA", repeat=n):
            seen = set()
            for k in range(0, max_clauses + 1):
                for combo in itertools.combinations(universe, k):
                    key = _canonical_key(quants, [c.key() for c in combo])
                    if key in seen:
                        continue
                    seen.add(key)
                    yield QcspInstance(names, quants, tuple(combo))


def random_oh_conjunction(rng: random.Random, n: int, max_clauses: int = 4, max_atoms: int = 4):
    """A random conjunction of pivoted clauses and order atoms, for
    cross-checking the satisfiability oracle."""
    clauses = []
    for _ in range(rng.randint(0, max_clauses)):
        pivot = rng.randrange(n)
        others = [v for v in range(n) if v != pivot]
        rng.shuffle(others)
        partners = frozenset(others[: rng.randint(0, min(3, len(others)))])
        target = rng.choice([None] + [v for v in range(n) if v != pivot])
        if not partners and target is None:
            continue
        clauses.append(OhClause(pivot, partners, target))
    atoms = []
    for _ in range(rng.randint(0, max_atoms)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b:
            continue
        atoms.append(Atom(a, rng.choice(["=", "!=", "<=", "<"]), b))
    return clauses, atoms
