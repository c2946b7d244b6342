"""Least-fixpoint saturation of the six-rule inference system, and the
existential-player strategy built on its facts.

Facts have the shape P(x, z; A) with A a set of universal variables, read as
"once the universal player equates A with x, the value of x must dominate
z".  Per pair (x, z) only the inclusion-minimal A-sets are stored: every
rule conclusion is monotone in its premise sets, and both refutation and the
strategy conditions only get easier for smaller A, so pruning is lossless.
Saturation can still be exponential by design; a fact cap guards it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .formula import QcspInstance
from .game import Move
from .solver import Verdict, _bits, _check_dialect, _cut_mask, _upset_masks


class StrategyUndefinedError(RuntimeError):
    """The strategy has no admissible position; falsifies its well-definedness."""


@dataclass(frozen=True)
class Fact:
    x: int
    z: int
    a_set: frozenset


@dataclass
class FactBase:
    n: int
    names: tuple
    minimal: dict  # (x, z) -> list of universal-variable bitmasks, an antichain
    status: str  # "complete" | "bottom" | "cap"
    fact_count: int
    bottom_fact: Optional[tuple] = None

    def __bool__(self):
        return self.status == "complete"

    def facts(self):
        for (x, z), masks in sorted(self.minimal.items()):
            for m in sorted(masks):
                yield Fact(x, z, frozenset(_bits(m)))

    def has(self, x, z, members) -> bool:
        m = 0
        for v in members:
            m |= 1 << v
        return m in self.minimal.get((x, z), ())

    def has_empty(self, x, z) -> bool:
        return 0 in self.minimal.get((x, z), ())

    def minimal_count(self, x, z) -> int:
        return len(self.minimal.get((x, z), ()))

    def dump(self) -> str:
        lines = []
        for f in self.facts():
            inner = ",".join(self.names[v] for v in sorted(f.a_set))
            lines.append(f"P {self.names[f.x]} {self.names[f.z]} {{{inner}}}")
        return "\n".join(lines) + ("\n" if lines else "")


def _orientations(matrix):
    """Pivot/partner orientations (u, v, z) of the matrix conjuncts."""
    _check_dialect(matrix)
    out = []
    for c in matrix:
        p = c.pivot
        q = next(iter(c.partners)) if c.partners else p
        out.append((p, q, c.target))
        if p != q:
            out.append((q, p, c.target))
    return out


def saturate(inst: QcspInstance, cap: int = 10**6) -> FactBase:
    """Least fixpoint of the inference rules, or bottom / cap exceedance."""
    n = inst.n_vars
    quants = inst.quants
    univ = [q == "A" for q in quants]
    ups = _upset_masks(quants)
    orientations = _orientations(inst.matrix)
    prog_u = {}
    prog_v = {}
    for u, v, z in orientations:
        prog_u.setdefault(u, []).append((v, z))
        prog_v.setdefault(v, []).append((u, z))

    minimal = {}
    by_first = {}  # x -> list of (z, mask)
    by_second = {}  # z -> list of (x, mask)
    empty_out = {}  # x -> list of z with P(x, z; {})
    queue = deque()
    count = 0
    base = FactBase(n, inst.names, minimal, "complete", 0)

    def insert(x, z, mask):
        """Simplify, prune by the antichain, store, and check refutation.
        Returns "bottom" when refutation fires, else None."""
        nonlocal count
        mask &= ~_cut_mask(quants, ups, x, z)
        if mask & ~ups[0]:
            raise RuntimeError("fact carries a non-universal variable")
        bucket = minimal.setdefault((x, z), [])
        for m in bucket:
            if m & mask == m:
                return None  # subsumed by a stored smaller set
        removed = [m for m in bucket if m & mask == mask]
        if removed:
            bucket[:] = [m for m in bucket if m & mask != mask]
            count -= len(removed)
        bucket.append(mask)
        count += 1
        if count > cap:
            return "cap"
        by_first.setdefault(x, []).append((z, mask))
        by_second.setdefault(z, []).append((x, mask))
        if mask == 0:
            empty_out.setdefault(x, []).append(z)
            if (x < z and univ[z]) or (z < x and univ[x]):
                base.bottom_fact = (x, z)
                return "bottom"
        queue.append((x, z, mask))
        return None

    def stored(x, z, mask) -> bool:
        return mask in minimal.get((x, z), ())

    def conclude_alt(w1, w2, zc, a, b):
        """AltTrans conclusions for both choices of the surviving variable."""
        outcomes = []
        if w2 == w1 or univ[w2]:
            extra = 0 if w2 == w1 else 1 << w2
            outcomes.append((w1, zc, a | b | extra))
        if w1 != w2 and univ[w1]:
            outcomes.append((w2, zc, a | b | (1 << w1)))
        for x, z, m in outcomes:
            r = insert(x, z, m)
            if r:
                return r
        return None

    def conclude_prog(ws, a, b, zc):
        """Progress conclusions for every admissible choice among ws."""
        nonu = {w for w in ws if not univ[w]}
        if len(nonu) > 1:
            return None
        choices = set(ws) if not nonu else nonu
        for wi in choices:
            m = a | b
            for w in ws:
                if w != wi:
                    m |= 1 << w
            r = insert(wi, zc, m)
            if r:
                return r
        return None

    def prog_join(u, v, zc, fixed=None):
        """Join the four Progress premises around the conjunct (u, v, zc).

        ``fixed`` optionally pins one role to the newly derived fact; the
        remaining roles range over the stored indexes.
        """
        l1 = by_second.get(u, ())
        l2 = empty_out.get(u, ())
        l3 = by_second.get(v, ())
        l4 = empty_out.get(v, ())
        if fixed:
            role, value = fixed
            if role == 1:
                l1 = [value]
            elif role == 2:
                l2 = [value]
            elif role == 3:
                l3 = [value]
            else:
                l4 = [value]
        for w1, a in l1:
            n1 = () if univ[w1] else (w1,)
            for w2 in l2:
                if not univ[w2] and w2 != w1:
                    if n1:
                        continue
                    n2 = (w2,)
                else:
                    n2 = n1
                for w3, b in l3:
                    if not univ[w3] and w3 != w1 and w3 != w2:
                        if n2:
                            continue
                        n3 = (w3,)
                    else:
                        n3 = n2
                    for w4 in l4:
                        if not univ[w4] and w4 != w1 and w4 != w2 and w4 != w3:
                            if n3:
                                continue
                        r = conclude_prog((w1, w2, w3, w4), a, b, zc)
                        if r:
                            return r
        return None

    # Init
    for x in range(n):
        r = insert(x, x, 0)
        if r:
            base.status = "bottom" if r == "bottom" else "cap"
            base.fact_count = count
            return base

    while queue:
        x, z, mask = queue.popleft()
        if not stored(x, z, mask):
            continue  # removed by a smaller set in the meantime
        r = None
        # Trans, fact as first premise
        for z2 in list(empty_out.get(z, ())):
            r = insert(x, z2, mask)
            if r:
                break
        # Trans, fact as second premise
        if not r and mask == 0:
            for w, b in list(by_second.get(x, ())):
                r = insert(w, z, b)
                if r:
                    break
        # AltTrans, fact as P(w1, y; A)
        if not r:
            for w2 in list(empty_out.get(z, ())):
                for zc, b in list(by_first.get(z, ())):
                    r = conclude_alt(x, w2, zc, mask, b)
                    if r:
                        break
                if r:
                    break
        # AltTrans, fact as P(y, w2; {})
        if not r and mask == 0:
            for w1, a in list(by_second.get(x, ())):
                for zc, b in list(by_first.get(x, ())):
                    r = conclude_alt(w1, z, zc, a, b)
                    if r:
                        break
                if r:
                    break
        # AltTrans, fact as P(y, z; B)
        if not r:
            for w1, a in list(by_second.get(x, ())):
                for w2 in list(empty_out.get(x, ())):
                    r = conclude_alt(w1, w2, z, a, mask)
                    if r:
                        break
                if r:
                    break
        # Progress, fact in each of the four premise roles
        if not r:
            for v, zc in prog_u.get(z, ()):
                r = prog_join(z, v, zc, fixed=(1, (x, mask)))
                if r:
                    break
        if not r and mask == 0:
            for v, zc in prog_u.get(x, ()):
                r = prog_join(x, v, zc, fixed=(2, z))
                if r:
                    break
        if not r:
            for u, zc in prog_v.get(z, ()):
                r = prog_join(u, z, zc, fixed=(3, (x, mask)))
                if r:
                    break
        if not r and mask == 0:
            for u, zc in prog_v.get(x, ()):
                r = prog_join(u, x, zc, fixed=(4, z))
                if r:
                    break
        if r:
            base.status = "bottom" if r == "bottom" else "cap"
            base.fact_count = count
            return base

    base.status = "complete"
    base.fact_count = count
    return base


def ep_move(inst: QcspInstance, facts: FactBase, partial, x: int) -> Move:
    """The existential player's position for x, given the saturated facts.

    The value must dominate exactly the levels reachable through a fact
    P(x, y; {}) with y already assigned, and equal a level exactly when the
    equality condition of the strategy holds there.
    """
    ranks = partial.ranks if hasattr(partial, "ranks") else tuple(partial)
    if len(ranks) != x:
        raise ValueError("all variables before x must be assigned")
    y0_levels = set()
    m = None
    for y in range(x):
        if facts.has_empty(x, y):
            y0_levels.add(ranks[y])
            m = ranks[y] if m is None else max(m, ranks[y])
    eq_levels = set()
    for (y2, xx), masks in facts.minimal.items():
        if xx != x or y2 >= x:
            continue
        lev = ranks[y2]
        if lev not in y0_levels:
            continue
        for mask in masks:
            ok = True
            for a in _bits(mask):
                if not (y2 < a < x) or ranks[a] != lev:
                    ok = False
                    break
            if ok:
                eq_levels.add(lev)
                break
    if len(eq_levels) > 1:
        raise StrategyUndefinedError(
            f"variable {inst.names[x]} would need to equal two distinct levels {sorted(eq_levels)}"
        )
    if eq_levels:
        lev = next(iter(eq_levels))
        if lev != m:
            raise StrategyUndefinedError(
                f"variable {inst.names[x]} must equal level {lev} but dominate up to {m}"
            )
        return Move("eq", lev)
    return Move("gap", 0 if m is None else m + 1)


def check_cover(inst: QcspInstance, facts: FactBase, verdict: Verdict) -> bool:
    """Every fact P(x, z; A) with z outside A has its induced clause in the
    solver's final clause set."""
    return not uncovered_facts(inst, facts, verdict)


def uncovered_facts(inst: QcspInstance, facts: FactBase, verdict: Verdict):
    ups = _upset_masks(inst.quants)
    out = []
    for (x, z), masks in facts.minimal.items():
        if x == z:
            continue  # the induced clause x >= x is tautological
        cm = _cut_mask(inst.quants, ups, x, z)
        for mask in masks:
            if mask & (1 << z):
                continue
            up_a = ups[min(_bits(mask))] if mask else 0
            partners = up_a & ~(1 << x) & ~(1 << z) & ~cm
            key = (x, tuple(sorted(_bits(partners))), z)
            if key not in verdict.clause_keys:
                out.append(Fact(x, z, frozenset(_bits(mask))))
    return out
