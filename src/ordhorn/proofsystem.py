"""Least-fixpoint saturation of the six-rule inference system, and the
existential-player strategy built on its facts.

Facts have the shape P(x, z; A) with A a set of universal variables, read as
"once the universal player equates A with x, the value of x must dominate
z".  Per pair (x, z) only the inclusion-minimal A-sets are stored: every
rule conclusion is monotone in its premise sets, and both refutation and the
strategy conditions only get easier for smaller A, so pruning is lossless.
Saturation can still be exponential by design; a fact cap guards it.

Join discipline: a fact is queued when stored, and joins the premise index
when dequeued if still stored; that dequeue is the index's one writer.  The
fact is joined in every premise role it can fill, so each premise combination
is joined once, when its last premise is dequeued.  Insertion follows
generation order, which fixes what refutation or the cap leaves stored.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .formula import OhClause, QcspInstance
from .game import Move
from .ohsat import _bits
from .orders import WeakOrder
from .solver import Verdict, _check_dialect, _cut_mask, _upset_masks


class StrategyUndefinedError(RuntimeError):
    """The strategy has no admissible position; falsifies its well-definedness."""


@dataclass(frozen=True)
class Fact:
    x: int
    z: int
    a_set: frozenset


@dataclass
class FactBase:
    names: tuple
    minimal: dict  # (x, z) -> list of universal-variable bitmasks, an antichain
    status: str  # "complete" | "bottom" | "cap"
    fact_count: int
    bottom_fact: Optional[tuple] = None

    def facts(self):
        for (x, z), masks in sorted(self.minimal.items()):
            for m in sorted(masks):
                yield Fact(x, z, frozenset(_bits(m)))

    def has(self, x, z, members) -> bool:
        m = 0
        for v in members:
            m |= 1 << v
        return m in self.minimal.get((x, z), ())

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
    prog_u, prog_v = {}, {}  # conjunct (u, v, z) indexed by u and by v
    for u, v, z in _orientations(inst.matrix):
        prog_u.setdefault(u, []).append((v, z))
        prog_v.setdefault(v, []).append((u, z))

    minimal = {}
    by_first = {}  # x -> list of (z, mask)
    by_second = {}  # z -> list of (x, mask)
    empty_out = {}  # x -> list of z with P(x, z; {})
    queue = deque()
    count = 0
    base = FactBase(inst.names, minimal, "complete", 0)

    def insert(x, z, mask):
        """Simplify, prune by the antichain, store, queue and check refutation,
        but never index.  Returns "bottom" or "cap" to stop saturation, else None."""
        nonlocal count
        mask &= ~_cut_mask(quants, ups, x, z)
        if mask & ~ups[0]:
            raise RuntimeError("fact carries a non-universal variable")
        bucket = minimal.setdefault((x, z), [])
        for m in bucket:
            if m & mask == m:
                return None  # subsumed by a stored smaller set
        kept = [m for m in bucket if m & mask != mask] + [mask]
        count += len(kept) - len(bucket)
        bucket[:] = kept
        if count > cap:
            return "cap"
        if mask == 0 and ((x < z and univ[z]) or (z < x and univ[x])):
            base.bottom_fact = (x, z)
            return "bottom"
        queue.append((x, z, mask))
        return None

    def alt(w1, w2, zc, a, b):
        """AltTrans conclusions for both choices of the surviving variable."""
        if w2 == w1 or univ[w2]:
            yield w1, zc, a | b | (0 if w2 == w1 else 1 << w2)
        if w1 != w2 and univ[w1]:
            yield w2, zc, a | b | (1 << w1)

    def prog(zc, l1, l2, l3, l4):
        """Progress conclusions of a conjunct (u, v, zc) from its premise
        lists P(w1, u; A), P(u, w2; {}), P(w3, v; B) and P(v, w4; {}).

        A combination is joined only if its non-universal w's are one variable,
        which is then the only one that may survive; otherwise any w may.
        ``e`` holds that variable so far, or -1: a non-universal w that equals
        an earlier w equals ``e``, so each level tests ``w != e`` alone.
        """
        for w1, a in l1:
            e1 = -1 if univ[w1] else w1
            for w2 in l2:
                if not univ[w2] and w2 != e1:
                    if e1 >= 0:
                        continue
                    e2 = w2
                else:
                    e2 = e1
                for w3, b in l3:
                    if not univ[w3] and w3 != e2:
                        if e2 >= 0:
                            continue
                        e3 = w3
                    else:
                        e3 = e2
                    for w4 in l4:
                        if not univ[w4] and w4 != e3:
                            if e3 >= 0:
                                continue
                            e4 = w4
                        else:
                            e4 = e3
                        ws = (1 << w1) | (1 << w2) | (1 << w3) | (1 << w4)
                        for wi in (e4,) if e4 >= 0 else set((w1, w2, w3, w4)):
                            yield wi, zc, a | b | (ws & ~(1 << wi))

    def conclusions(x, z, mask):
        """Every conclusion with the fact P(x, z; mask) in one premise role."""
        # Trans, fact as first and as second premise
        for z2 in empty_out.get(z, ()):
            yield x, z2, mask
        if mask == 0:
            for w, b in by_second.get(x, ()):
                yield w, z, b
        # AltTrans, fact as P(w1, y; A), as P(y, w2; {}) and as P(y, z; B)
        for w2 in empty_out.get(z, ()):
            for zc, b in by_first.get(z, ()):
                yield from alt(x, w2, zc, mask, b)
        if mask == 0:
            for w1, a in by_second.get(x, ()):
                for zc, b in by_first.get(x, ()):
                    yield from alt(w1, z, zc, a, b)
        for w1, a in by_second.get(x, ()):
            for w2 in empty_out.get(x, ()):
                yield from alt(w1, w2, z, a, mask)
        # Progress, fact in each of the four premise roles
        fact = [(x, mask)]
        for v, zc in prog_u.get(z, ()):
            yield from prog(zc, fact, empty_out.get(z, ()), by_second.get(v, ()), empty_out.get(v, ()))
        if mask == 0:
            for v, zc in prog_u.get(x, ()):
                yield from prog(zc, by_second.get(x, ()), [z], by_second.get(v, ()), empty_out.get(v, ()))
        for u, zc in prog_v.get(z, ()):
            yield from prog(zc, by_second.get(u, ()), empty_out.get(u, ()), fact, empty_out.get(z, ()))
        if mask == 0:
            for u, zc in prog_v.get(x, ()):
                yield from prog(zc, by_second.get(u, ()), empty_out.get(u, ()), by_second.get(x, ()), [z])

    def derivations():
        """Init, then the conclusions of each dequeued fact still stored."""
        for x in range(n):
            yield x, x, 0
        while queue:
            x, z, mask = queue.popleft()
            if mask in minimal[x, z]:  # else removed by a smaller set meanwhile
                by_first.setdefault(x, []).append((z, mask))
                by_second.setdefault(z, []).append((x, mask))
                if mask == 0:
                    empty_out.setdefault(x, []).append(z)
                yield from conclusions(x, z, mask)

    for x, z, mask in derivations():
        stop = insert(x, z, mask)
        if stop:
            base.status = stop
            break
    base.fact_count = count
    return base


def ep_move(inst: QcspInstance, facts: FactBase, partial: WeakOrder, x: int) -> Move:
    """The existential player's position for x, given the saturated facts.

    The value must dominate exactly the levels reachable through a fact
    P(x, y; {}) with y already assigned, and equal a level exactly when the
    equality condition of the strategy holds there.
    """
    ranks = partial.ranks
    if len(ranks) != x:
        raise ValueError("all variables before x must be assigned")
    y0_levels = {ranks[y] for y in range(x) if facts.has(x, y, ())}
    m = max(y0_levels, default=None)
    eq_levels = set()
    for y in range(x):
        lev = ranks[y]
        if lev in y0_levels:
            # equality needs some A-set placed strictly between y and x at y's level
            between = sum(1 << a for a in range(y + 1, x) if ranks[a] == lev)
            if any(mask & ~between == 0 for mask in facts.minimal.get((y, x), ())):
                eq_levels.add(lev)
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
            if OhClause(x, frozenset(_bits(partners)), z).key() not in verdict.clause_keys:
                out.append(Fact(x, z, frozenset(_bits(mask))))
    return out
