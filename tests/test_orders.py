"""Weak orders, enumeration, evaluation, and the symbolic operations."""

import itertools
import random

import pytest

from ordhorn.classifier import QuantifiedFormula, gadget_relation
from ordhorn.formula import Atom, QfFormula
from ordhorn.orders import (
    MAX_ENUM_ARITY,
    ArityTooLarge,
    WeakOrder,
    apply_op,
    dense_ranks,
    enumerate_marked_orders,
    enumerate_weak_orders,
    eval_qf,
    ordered_bell,
    relation_of,
)
from ordhorn.relations import catalogue

from conftest import if_chain_image

MPLUS = catalogue("M+").defn


def test_enumeration_counts():
    assert len(list(enumerate_weak_orders(1))) == 1
    assert {w.ranks for w in enumerate_weak_orders(2)} == {(0, 1), (0, 0), (1, 0)}
    assert len(list(enumerate_weak_orders(4))) == 75


def test_enumeration_matches_fubini_recursion():
    for n in range(7):
        assert len(list(enumerate_weak_orders(n))) == ordered_bell(n)


def test_enumeration_unique():
    seen = list(enumerate_weak_orders(5))
    assert len({w.ranks for w in seen}) == len(seen)


def test_enumeration_guard():
    with pytest.raises(ArityTooLarge):
        list(enumerate_weak_orders(9))


def test_eval_basic():
    ge = QfFormula(2, ((Atom(0, ">=", 1),),))
    assert eval_qf(ge, WeakOrder((0, 0)))
    assert eval_qf(MPLUS, WeakOrder((1, 1, 0)))  # x = y > z
    assert not eval_qf(MPLUS, WeakOrder((0, 0, 1)))  # x = y < z


def test_eval_unassigned_variable():
    with pytest.raises(ValueError):
        eval_qf(MPLUS, WeakOrder((0, 1)))


def test_eval_invariant_under_realization():
    rng = random.Random(11)
    rel = catalogue("GSN").defn
    for w in enumerate_weak_orders(4):
        expected = eval_qf(rel, w)
        for _ in range(3):
            # a random strictly increasing map of levels into the rationals
            cuts = sorted(rng.sample(range(1000), len(w.levels())))
            values = [cuts[r] for r in w.ranks]
            again = WeakOrder(dense_ranks(values))
            assert eval_qf(rel, again) == expected


# --- apply_op -----------------------------------------------------------------


def test_pp_all_nonpositive_is_first_projection():
    # zero above every position: the output order equals the input order
    t1 = WeakOrder((0, 1, 0), zero_rank=2)
    t2 = WeakOrder((2, 1, 0))
    assert apply_op("pp", t1, t2).ranks == (0, 1, 0)


def test_pp_split_example():
    # x1 = x2 = 0 < x3 = x4 against values (1, 2, 0, 5)
    t1 = WeakOrder((0, 0, 1, 1), zero_rank=0)
    t2 = WeakOrder((1, 2, 0, 3))
    assert apply_op("pp", t1, t2).ranks == (0, 0, 1, 2)


def test_pp_blocks_never_cross():
    rng = random.Random(3)
    marked = list(enumerate_marked_orders(4))
    plain = list(enumerate_weak_orders(4))
    for _ in range(300):
        t1 = rng.choice(marked)
        t2 = rng.choice(plain)
        out = apply_op("pp", t1, t2)
        for i in range(4):
            for j in range(4):
                if t1.ranks[i] <= t1.zero_rank < t1.ranks[j]:
                    assert out.ranks[i] < out.ranks[j]


def test_lex_injective():
    rng = random.Random(4)
    plain = list(enumerate_weak_orders(4))
    for _ in range(300):
        t1, t2 = rng.choice(plain), rng.choice(plain)
        out = apply_op("lex", t1, t2)
        for i in range(4):
            for j in range(4):
                if (t1.ranks[i], t2.ranks[i]) != (t1.ranks[j], t2.ranks[j]):
                    assert out.ranks[i] != out.ranks[j]


def test_apply_op_matches_if_chain_keys():
    ops = ("pp", "dual_pp", "ll", "dual_ll", "lex")
    for n in range(4):
        plain = list(enumerate_weak_orders(n))
        pairs = [(t1, t2) for t1 in enumerate_marked_orders(n) for t2 in plain]
        for op in ops:
            for t1, t2 in pairs:
                assert apply_op(op, t1, t2).ranks == if_chain_image(op, t1, t2), (op, t1, t2)
        for t1, t2 in itertools.product(plain, repeat=2):
            assert apply_op("lex", t1, t2).ranks == if_chain_image("lex", t1, t2), (t1, t2)


def test_apply_op_requires_zero():
    with pytest.raises(ValueError):
        apply_op("pp", WeakOrder((0, 1)), WeakOrder((0, 1)))
    with pytest.raises(ValueError):
        apply_op("nope", WeakOrder((0,), zero_rank=0), WeakOrder((0,)))


def test_apply_op_rejects_operands_of_different_lengths():
    with pytest.raises(ValueError, match="different lengths"):
        apply_op("lex", WeakOrder((0, 1)), WeakOrder((0,)))


def test_marked_enumeration_stops_one_below_the_arity_bound():
    # the zero marker takes one of the MAX_ENUM_ARITY positions
    with pytest.raises(ArityTooLarge, match="marked enumeration bound"):
        next(enumerate_marked_orders(MAX_ENUM_ARITY))


def _oh_single_clause_formulas(arity, max_pairs):
    """All single-clause Ord-Horn formulas over the given arity: a set of
    disequality pairs plus an optional order disjunct."""
    pairs = list(itertools.combinations(range(arity), 2))
    ges = [None] + [(a, b) for a in range(arity) for b in range(arity) if a != b]
    for k in range(0, max_pairs + 1):
        for chosen in itertools.combinations(pairs, k):
            for ge in ges:
                atoms = [Atom(a, "!=", b) for a, b in chosen]
                if ge is not None:
                    atoms.append(Atom(ge[0], ">=", ge[1]))
                if atoms:
                    yield QfFormula(arity, (tuple(atoms),))


def _preserved(f, op):
    arity = f.arity
    if op == "lex":
        firsts = [w for w in enumerate_weak_orders(arity) if eval_qf(f, w)]
    else:
        firsts = [w for w in enumerate_marked_orders(arity) if eval_qf(f, w)]
    seconds = [w for w in enumerate_weak_orders(arity) if eval_qf(f, w)]
    return all(eval_qf(f, apply_op(op, a, b)) for a in firsts for b in seconds)


def test_oh_clauses_preserved_by_ll_exhaustive_arity3():
    for f in _oh_single_clause_formulas(3, 3):
        assert _preserved(f, "ll"), f
        assert _preserved(f, "dual_ll"), f


def test_oh_clauses_preserved_by_ll_sampled_arity4():
    rng = random.Random(8)
    formulas = list(_oh_single_clause_formulas(4, 2))
    for f in rng.sample(formulas, 40):
        assert _preserved(f, "ll"), f
        assert _preserved(f, "dual_ll"), f


def test_relation_of_projection():
    # exists h: (h >= x) and (h >= y) is trivially total
    f = QfFormula(3, ((Atom(2, ">=", 0),), (Atom(2, ">=", 1),)))
    q = QuantifiedFormula(2, ("E",), f)
    assert gadget_relation(q) == {w.ranks for w in enumerate_weak_orders(2)}
