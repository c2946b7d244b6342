"""Structural analysis of temporal relations: preservation by the basic
operations, Ord-Horn and guarded-Ord-Horn syntax, formula surgery, and the
resulting complexity verdict.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from functools import cached_property, reduce
from operator import or_
from typing import Optional

from .formula import Atom, OhClause, QcspInstance, QfFormula, ResourceLimitError, flip_order
from .formula import _ge_ne_product, _mplus_chain, _subst, _tautology
from .game import brute_solve
from .orders import (
    OP_KEYS,
    ArityTooLarge,
    WeakOrder,
    apply_op,
    dense_ranks,
    enumerate_marked_orders,
    enumerate_weak_orders,
    eval_qf,
    op_sides,
    relation_of,
)
from .relations import TemporalRelation, catalogue

MAX_SEMANTIC_ARITY = 6

#: Most companion sets one goh_syntactic parse may try (exit 4 past it): the
#: subset search doubles with each companion a guard can take.
MAX_GOH_SPLITS = 10_000

VERDICT_P = "P"
VERDICT_HARD = "coNP-hard-unless-GOH-definable"


class HypothesisError(ValueError):
    """A gadget input violates its sandwich hypothesis."""


class NoValidIndexError(RuntimeError):
    """No single order disjunct preserves the relation; for Ord-Horn
    inputs one must always exist, so raising this fails the suite."""


@dataclass
class _Check:
    """Whether a check on a relation holds, and a witness when it does not."""

    holds: bool
    witness: Optional[tuple] = None

    def __bool__(self):
        return self.holds


def _guard_arity(r: TemporalRelation):
    if r.arity > MAX_SEMANTIC_ARITY:
        raise ArityTooLarge(
            f"arity {r.arity} exceeds the semantic-check bound {MAX_SEMANTIC_ARITY}"
        )


def _reads(op: str, t1: WeakOrder):
    """What ``apply_op(op, t1, t2)`` reads, by the key rules of ``OP_KEYS``.

    Returns t1's signature (its sides and its order on the positions where
    t1 is a key source) and the blocks of positions inside which t2's order
    is read: a whole side where t2 is primary, each t1-level of a side where
    t2 is secondary.  A block of one position has one order, so it is left
    out.
    """
    rules = OP_KEYS[op][1]
    sides = op_sides(op, t1)
    signature = (tuple(sides), dense_ranks([r for r, s in zip(t1.ranks, sides) if 1 in rules[s]]))
    blocks = []
    for side, (primary, secondary) in enumerate(rules):
        on_side = [i for i, s in enumerate(sides) if s == side]
        if primary == 2:
            blocks.append(tuple(on_side))
        elif secondary == 2:
            levels = {}
            for i in on_side:
                levels.setdefault(t1.ranks[i], []).append(i)
            blocks.extend(tuple(level) for level in levels.values())
    return signature, tuple(b for b in blocks if len(b) > 1)


def is_preserved_by(r: TemporalRelation, op: str) -> _Check:
    """Polymorphism check over order-type pairs, one image per signature.

    The first argument ranges over zero-marked weak orders because pp and ll
    branch on the sign of their first argument.  The image of (t1, t2) reads
    only t1's signature and t2's order inside the blocks that t1 fixes (see
    ``_reads``), so pairs that agree on both have the same image.  The scan
    walks t1 in enumeration order, skips a t1 whose signature was already
    checked, and pairs it with the first t2 of each block pattern only.  The
    witness returned is the lexicographically first violating pair in
    enumeration order: an earlier t1 with the same signature would have
    violated first, and the first violating t2 is the first of its pattern.
    It is the pair (t1, t2) of weak orders.
    """
    _guard_arity(r)
    f = r.defn
    first_orders = enumerate_weak_orders if op == "lex" else enumerate_marked_orders
    firsts = (w for w in first_orders(r.arity) if eval_qf(f, w))  # lazy: stop at a witness
    seconds = [w for w in enumerate_weak_orders(r.arity) if eval_qf(f, w)]
    members = {w.ranks for w in seconds}
    checked = set()
    representatives = {}  # blocks -> first t2 of each block pattern
    for t1 in firsts:
        signature, blocks = _reads(op, t1)
        if signature in checked:
            continue
        checked.add(signature)
        if blocks not in representatives:
            first = {}
            for t2 in seconds:
                first.setdefault(tuple(dense_ranks([t2.ranks[i] for i in b]) for b in blocks), t2)
            representatives[blocks] = list(first.values())
        for t2 in representatives[blocks]:
            if apply_op(op, t1, t2).ranks not in members:
                return _Check(False, (t1, t2))
    return _Check(True)


# ---------------------------------------------------------------------------
# clause hulls
#
# A relation is defined by clauses of a family iff every order type outside
# it falsifies some clause of the family that holds on all of it.  For the
# two families below the weakest clause that an order type t falsifies is
# fixed by t alone, so each test is one pass over the order types outside R.
# Order types are held as bitsets of ordered position pairs, bit a*n + b.


def _pair_masks(ranks) -> tuple:
    """(eq, lt, gt): the pairs (a, b) with ranks[a] equal to, below and above ranks[b]."""
    n = len(ranks)
    eq = lt = gt = 0
    for a, ra in enumerate(ranks):
        for b, rb in enumerate(ranks):
            bit = 1 << (a * n + b)
            if ra == rb:
                eq |= bit
            elif ra < rb:
                lt |= bit
            else:
                gt |= bit
    return eq, lt, gt


def _order_types(r: TemporalRelation):
    """The pair masks of every order type on r's positions: (in r, outside r)."""
    members, outside = [], []
    for w in enumerate_weak_orders(r.arity):
        (members if eval_qf(r.defn, w) else outside).append(_pair_masks(w.ranks))
    return members, outside


def _oh_hull(members, outside) -> bool:
    """No order type outside R survives every valid Ord-Horn clause."""
    lt_by_eq = {}  # eq mask -> OR of the lt masks of the members with that eq mask
    for eq, lt, _ in members:
        lt_by_eq[eq] = lt_by_eq.get(eq, 0) | lt
    hull = {}  # E(t) -> U(E(t)), or None when no member makes every pair of E(t) equal
    for eq, lt, _ in outside:
        if eq not in hull:
            fits = [u for e, u in lt_by_eq.items() if eq & ~e == 0]
            hull[eq] = reduce(or_, fits) if fits else None
        if hull[eq] is not None and lt & ~hull[eq] == 0:
            return False
    return True


def _pp_hull(members, outside, n: int, up: int) -> bool:
    """No order type outside R survives every valid pp clause; ``up`` picks
    the lt masks (pp) or the gt masks (dual pp) as "above the pivot"."""
    rows = [((1 << n) - 1) << (x * n) for x in range(n)]
    seen = [{(m[0] & row, m[up] & row) for m in members} for row in rows]
    covered = {}  # (pivot, Y, Z) -> some member puts Y level with and Z above the pivot
    for t in outside:
        for x, row in enumerate(rows):
            y, z = t[0] & row, t[up] & row
            if (x, y, z) not in covered:
                covered[x, y, z] = any(y & ~e == 0 and z & ~u == 0 for e, u in seen[x])
            if not covered[x, y, z]:
                break  # t falsifies the valid clause with pivot x
        else:
            return False
    return True


def hull_flags(r: TemporalRelation) -> tuple:
    """(Ord-Horn, preserved by pp, preserved by dual pp), decided by the
    clause hulls of ``is_oh`` and ``classify`` over one enumeration of r."""
    _guard_arity(r)
    members, outside = _order_types(r)
    return (
        _oh_hull(members, outside),
        _pp_hull(members, outside, r.arity, 1),
        _pp_hull(members, outside, r.arity, 2),
    )


def is_oh(r: TemporalRelation) -> bool:
    """Ord-Horn membership (equivalently: preserved by ll and dual ll) by the
    Ord-Horn clause hull.

    An Ord-Horn clause is a disjunction of disequalities and at most one
    ``a <= b``.  The weakest one falsified by an order type t has the
    disequalities of every pair that t makes equal (E) and, optionally, one
    ``b <= a`` with t_a < t_b.  With M the members r of R where E is equal,
    t is excluded iff M is empty or some pair a, b with t_a < t_b has no r in
    M with r_a < r_b.  So R is Ord-Horn iff no t outside R has M nonempty
    and lt(t) within U(E), the union of lt(r) over M; U is computed once per
    equality pattern.
    """
    _guard_arity(r)
    return _oh_hull(*_order_types(r))


def _oriented(clause):
    """Rewrite <= to >= (and < to >) so pivots sit on the left; other ops kept."""
    return [a.swapped() if a.op in ("<", "<=") else a for a in clause]


def ppsynt_shape(f: QfFormula) -> bool:
    """Syntactic test for the {!=, >=} clause shape with a common pivot."""
    for clause in f.clauses:
        atoms = _oriented(clause)
        if any(a.op not in ("!=", ">=") for a in atoms):
            return False
        # the pivot is the one >= left, or any position without a >= atom
        candidates = {a.left for a in atoms if a.op == ">="}
        if len(candidates) > 1:
            return False
        candidates = candidates or set(range(f.arity))
        if not candidates.intersection(*({a.left, a.right} for a in atoms if a.op == "!=")):
            return False
    return True


def oh_shape(f: QfFormula) -> bool:
    """Syntactic Ord-Horn shape: after rewriting into {!=, >=} clauses, each
    clause that is not a tautology carries at most one order disjunct."""
    for clause in f.clauses:
        for lits in _ge_ne_product(clause):
            ge = {(a, b) for kind, a, b in lits if kind == "ge"}
            if len(ge) > 1 and not _tautology(lits):
                return False
    return True


# ---------------------------------------------------------------------------
# guarded Ord-Horn recognition


_GOH_KINDS = {"<=": "le", "<": "lt", "!=": "ne"}


def _goh_normal(clause):
    """Distinct atoms as ("le"|"lt"|"ne", a, b), sorted, with a < b in each
    disequality; None when the clause leaves the {<=, <, !=} fragment."""
    out = set()
    for atom in clause:
        a = atom.lower_first()
        if a.op not in _GOH_KINDS:
            return None
        if a.op == "!=" and a.left > a.right:
            a = a.swapped()
        out.add((_GOH_KINDS[a.op], a.left, a.right))
    return tuple(sorted(out))


def _goh_base(clause) -> bool:
    kinds = [k for k, _, _ in clause]
    if all(k == "ne" for k in kinds):
        return True
    if len(clause) == 1 and kinds[0] == "le":
        return True
    lts = [(a, b) for k, a, b in clause if k == "lt"]
    if len(lts) == 1 and kinds.count("le") == 0:
        x, y = lts[0]
        return all(x in (a, b) or y in (a, b) for k, a, b in clause if k == "ne")
    return False


def goh_syntactic(f: QfFormula) -> bool:
    """Sound-only recognizer for the guarded Ord-Horn grammar.

    Backtracks over groupings: a pure-<= clause may guard companions that
    each contain its disequality counterparts, whose residues must again
    parse.  A failed parse does not prove non-definability.
    """
    clauses = []
    for c in f.clauses:
        norm = _goh_normal(c)
        if norm is None:
            return False
        clauses.append(norm)
    tried = itertools.count(1)

    def splits(group):
        """(residues, outside) for each pure-<= guard in ``group`` and each
        nonempty set of companions holding its disequality counterparts."""
        for gi, guard in enumerate(group):
            if not guard or any(k != "le" for k, _, _ in guard):
                continue
            needed = {("ne", min(a, b), max(a, b)) for _, a, b in guard}
            rest = group[:gi] + group[gi + 1 :]
            candidates = [i for i, c in enumerate(rest) if needed <= set(c)]
            for size in range(1, len(candidates) + 1):
                for combo in itertools.combinations(candidates, size):
                    if next(tried) > MAX_GOH_SPLITS:
                        raise ResourceLimitError(f"guarded Ord-Horn parse exceeded {MAX_GOH_SPLITS} splits")
                    residues = tuple(tuple(lit for lit in rest[i] if lit not in needed) for i in combo)
                    # an empty residue would certify falsity, not truth
                    if all(residues):
                        yield residues, tuple(c for i, c in enumerate(rest) if i not in combo)

    memo = {}

    def parse(group) -> bool:
        if not group:
            return True
        key = tuple(sorted(group))
        if key not in memo:
            memo[key] = False  # cycle guard
            memo[key] = all(_goh_base(c) for c in group) or any(
                parse(residues) and parse(outside) for residues, outside in splits(group)
            )
        return memo[key]

    return parse(tuple(clauses))


# ---------------------------------------------------------------------------
# formula surgery


def elim_min(f: QfFormula) -> QfFormula:
    """Shrink every multi-target order block to a single disjunct.

    For each clause whose >=-disjuncts share a pivot, the first index whose
    lone survival preserves the relation is kept; Ord-Horn inputs always
    admit one.
    """
    reference = relation_of(f)
    blocks = []  # (other disjuncts, distinct order disjuncts) per clause
    for c in f.clauses:
        oriented = _oriented(c)
        targets = tuple(dict.fromkeys(a for a in oriented if a.op == ">="))
        blocks.append((tuple(a for a in oriented if a.op != ">="), targets))
    out = [rest + targets for rest, targets in blocks]
    for ci, (rest, targets) in enumerate(blocks):
        if len(targets) <= 1:
            continue
        if len({a.left for a in targets}) > 1:
            raise ValueError("order disjuncts in one clause have different pivots")
        for cand in targets:
            out[ci] = rest + (cand,)
            if relation_of(QfFormula(f.arity, tuple(out))) == reference:
                break
        else:
            raise NoValidIndexError("no single order disjunct preserves the relation")
    result = QfFormula(f.arity, tuple(out))
    if relation_of(result) != reference:
        raise RuntimeError("elimination changed the relation")
    return result


@dataclass(frozen=True)
class QuantifiedFormula:
    """A formula with a trailing quantifier block over auxiliary variables.

    Free variables are 0..free_arity-1; bound ones follow in prefix order
    with quantifiers from ``block`` ('E' or 'A').
    """

    free_arity: int
    block: tuple
    formula: QfFormula


def pp_def_mplus(k: int) -> QuantifiedFormula:
    """The recursive pp-definition of the (k+2)-ary relation
    (x != y1 v ... v x != yk v x >= z) from M+ triples."""
    if not 1 <= k <= 5:
        raise ValueError("k must be in 1..5")
    ys = list(range(1, k + 1))
    hs = list(range(k + 2, 2 * k + 1))  # h_2 .. h_k
    mplus = catalogue("M+").defn.clauses
    clauses = []
    for a, b, c in _mplus_chain(0, ys, k + 1, hs):
        clauses += _subst(mplus, {0: a, 1: b, 2: c})
    return QuantifiedFormula(k + 2, tuple("E" for _ in hs), QfFormula(k + 2 + len(hs), tuple(clauses)))


def mu_relation(k: int):
    """The target relation of pp_def_mplus as a set of rank tuples."""
    clause = OhClause(0, frozenset(range(1, k + 1)), k + 1).atoms()
    return relation_of(QfFormula(k + 2, (clause,)))


def gadget_relation(q: QuantifiedFormula):
    """Relation of a quantified formula over its free positions.

    One game-oracle call per order type of the free positions: ``brute_solve``
    starts with the free variables placed at that type and plays the
    quantifier block.  This is sound because the defined relation is a union
    of complete order types, so one realizing tuple settles the whole type.
    """
    names = tuple(f"v{i}" for i in range(q.formula.arity))
    inst = QcspInstance(names, ("E",) * q.free_arity + q.block, q.formula.clauses)
    types = enumerate_weak_orders(q.free_arity)
    return {w.ranks for w in types if brute_solve(inst, prefix=w.ranks).value}


# ---------------------------------------------------------------------------
# sandwiches and the gadget constructions


def verify_sandwich(r: TemporalRelation, lower: TemporalRelation, upper: TemporalRelation) -> _Check:
    """Containment lower <= r <= upper by weak-order enumeration; the witness
    is ("lower" or "upper", ranks) for the first order type that breaks it."""
    if not (r.arity == lower.arity == upper.arity):
        raise ValueError("sandwich arities differ")
    _guard_arity(r)
    for w in enumerate_weak_orders(r.arity):
        if eval_qf(lower.defn, w) and not eval_qf(r.defn, w):
            return _Check(False, ("lower", w.ranks))
        if eval_qf(r.defn, w) and not eval_qf(upper.defn, w):
            return _Check(False, ("upper", w.ranks))
    return _Check(True)


# The toolbox's sandwich hypotheses: name -> (lower bounds, upper bound).  A
# separated M-relation is neither within SSM nor within SD, and needs no test
# for it: lrGSM and rlGSM each hold a tuple outside SSM and one outside SD.
_HYPOTHESES = {
    "separated M-relation": (("lrGSM", "rlGSM"), "SM"),
    "dual M-relation": (("GM-",), "M-"),
    "separated strict M-relation": (("lrGSM<", "rlGSM<"), "SSM"),
    "dual strict M-relation": (("GVM<-",), "M<-"),
    "separated disjunction of disequalities": (("GSN",), "NEQ2"),
}


def _check_hypothesis(r, name):
    """Raise HypothesisError unless r has the upper bound's arity and
    lower <= r <= upper for some lower bound."""
    lowers, upper = _HYPOTHESES[name]
    upper = catalogue(upper)
    if r.arity != upper.arity or not any(verify_sandwich(r, catalogue(lo), upper) for lo in lowers):
        raise HypothesisError(f"input is not a {name}")


def short_tool_gadget(item: int, inputs=(), which: str = "le") -> QuantifiedFormula:
    """The gadget formulas of the hardness toolbox.

    Item 1 builds <=, != or < from M+ alone (select with ``which``); items
    2-5 climb from sandwich relations to the four-ary order-disequality
    relation, checking each hypothesis before constructing.
    """
    mplus = catalogue("M+").defn.clauses
    if item == 1:
        le = _subst(mplus, {0: 1, 1: 1, 2: 0})  # x <= y
        ne = _subst(mplus, {0: 0, 1: 1, 2: 2})  # forall z: M+(x, y, z)
        if which == "le":
            return QuantifiedFormula(2, (), QfFormula(2, tuple(le)))
        if which not in ("ne", "lt"):
            raise ValueError("item 1 selects one of 'le', 'ne', 'lt'")
        return QuantifiedFormula(2, ("A",), QfFormula(3, tuple(ne if which == "ne" else ne + le)))
    if item == 2:
        (r,) = inputs
        if r.arity == 4:
            _check_hypothesis(r, "separated M-relation")
            extra = (Atom(2, "!=", 3),)
        elif r.arity == 3:
            _check_hypothesis(r, "dual M-relation")
            extra = (Atom(1, "!=", 2),)
        else:
            raise HypothesisError("item 2 expects a ternary or quaternary relation")
        return QuantifiedFormula(r.arity, (), QfFormula(r.arity, r.defn.clauses + (extra,)))
    if item == 3:
        (r,) = inputs
        _check_hypothesis(r, "separated strict M-relation")
        a, b = 4, 5
        clauses = _subst(r.defn.clauses, {0: 1, 1: 0, 2: a, 3: b})
        clauses += _subst(r.defn.clauses, {0: 3, 1: 2, 2: b, 3: a})
        return QuantifiedFormula(4, ("E", "E"), QfFormula(6, tuple(clauses)))
    if item == 4:
        (r,) = inputs
        _check_hypothesis(r, "dual strict M-relation")
        x1, y1, x2, y2, h = 0, 1, 2, 3, 4
        clauses = _subst(mplus, {0: x1, 1: y1, 2: h})
        clauses += _subst(r.defn.clauses, {0: x2, 1: y2, 2: h})
        clauses.append((Atom(x1, "<=", x2),))
        return QuantifiedFormula(4, ("E",), QfFormula(5, tuple(clauses)))
    if item == 5:
        (r,) = inputs
        _check_hypothesis(r, "separated disjunction of disequalities")
        # free variables ordered as the target relation (y1 != x1 v y2 != x2) ^ (x1 < x2)
        y1, x1, y2, x2, v1, v2 = 0, 1, 2, 3, 4, 5
        clauses = _subst(r.defn.clauses, {0: x1, 1: v1, 2: x2, 3: v2})
        # guards shrink the separated disjunction to its guarded variant
        clauses.append((Atom(x1, "<=", v1),))
        clauses.append((Atom(x2, "<=", v2),))
        for lo in (x1, v1):
            for hi in (x2, v2):
                clauses.append((Atom(lo, "<", hi),))
        clauses += _subst(mplus, {0: y1, 1: x1, 2: v1})
        clauses += _subst(mplus, {0: y2, 1: x2, 2: v2})
        return QuantifiedFormula(4, ("E", "E"), QfFormula(6, tuple(clauses)))
    raise ValueError("item must be 1..5")


# ---------------------------------------------------------------------------
# the combined report


@dataclass
class ClassReport:
    oh_semantic: bool
    oh_syntactic: bool
    pp_preserved: bool
    dual_pp_preserved: bool
    ppsynt_shape: bool
    goh_syntactic: bool
    verdict: str
    hull_failures: list  # (witness key, relation, op) per failed pp or dual-pp hull

    @cached_property
    def witnesses(self) -> dict:
        """Witness key -> first violating pair, scanned on first read."""
        return {key: _witness(r, op) for key, r, op in self.hull_failures}

    def flags(self) -> dict:
        """The six flags and the verdict, which need no scan."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "hull_failures"}

    def to_json_dict(self):
        *flags, verdict = self.flags().items()
        witnesses = {
            key: {"t1": _levels(t1), "t2": _levels(t2)} for key, (t1, t2) in self.witnesses.items()
        }
        return dict([*flags, ("witnesses", witnesses), verdict])


def _levels(w: WeakOrder):
    return [[str(p) for p in lev] for lev in w.levels()]


def _witness(r: TemporalRelation, op: str):
    """The signature scan's first violating pair, which a failed hull
    promises; run for each hull failure when ``witnesses`` is first read."""
    res = is_preserved_by(r, op)
    if res:
        raise RuntimeError(f"the {op} clause hull and the signature scan disagree on {r.name}")
    return res.witness


def classify(rels) -> ClassReport:
    """Flags and the tractability verdict for a finite set of relations.

    Each relation's order types are enumerated once, and the three semantic
    flags come from clause hulls over them (see ``hull_flags``):

    - Ord-Horn: the hull of ``is_oh``.
    - pp: a relation is preserved by pp iff it is a conjunction of clauses
      x != y1 | ... | x != yk | x >= z1 | ... | x >= zm (Bodirsky and Kára,
      J. ACM 57(2), 2010).  The weakest such clause that an order type t
      falsifies with pivot x takes every y with t_y = t_x and every z with
      t_z > t_x.  So t is excluded iff some pivot x has no r in R with r_y =
      r_x for all those y and r_z > r_x for all those z.
    - dual pp: the same test on mirrored ranks (r_z < r_x for t_z < t_x).

    ``classify`` itself runs no scan.  It records each pp or dual-pp hull
    failure, and the first read of the report's ``witnesses`` scans those
    relations with ``is_preserved_by`` for their violating pairs.

    The hard verdict is conditional: GOH-definability has no decision
    procedure here, so a failed parse never certifies hardness on its own.
    """
    failures = []
    rows = []  # per relation: oh, oh shape, pp, dual pp, ppsynt shape, goh
    for idx, r in enumerate(rels):
        oh, pp, dual_pp = hull_flags(r)
        if not pp:
            failures.append((f"pp[{idx}]", r, "pp"))
        if not dual_pp:
            failures.append((f"dual_pp[{idx}]", r, "dual_pp"))
        rows.append((oh, oh_shape(r.defn), pp, dual_pp, ppsynt_shape(r.defn), goh_syntactic(r.defn)))
    oh_sem, oh_syn, pp_all, dual_all, shape_all, goh_all = (all(row[i] for row in rows) for i in range(6))
    verdict = VERDICT_P if (pp_all or dual_all or goh_all) else VERDICT_HARD
    return ClassReport(oh_sem, oh_syn, pp_all, dual_all, shape_all, goh_all, verdict, failures)


def reverse(r: TemporalRelation) -> TemporalRelation:
    """Flip every order atom; pp-preservation turns into dual-pp-preservation."""
    return TemporalRelation(
        r.arity, QfFormula(r.arity, flip_order(r.defn.clauses)), r.name + "_rev"
    )
