"""Saturation of the inference system, the strategy, and clause coverage."""

import dataclasses
import itertools
import random

import pytest

from ordhorn.formula import normalize, print_instance
from ordhorn.game import Move, brute_solve, play_against
from ordhorn.generators import parallel_chain, random_mplus_instance
from ordhorn.proofsystem import (
    FactBase,
    StrategyUndefinedError,
    check_cover,
    ep_move,
    saturate,
    uncovered_facts,
)
from ordhorn.solver import compile_to_mplus, cut_set, solve

from conftest import UNDEFINED_STRATEGY_FACTS, make_instance


def naive_saturate(inst, max_facts=100_000):
    """Reference fixpoint: all rules, all A-sets, no subsumption pruning.

    Returns (facts, bottom) where facts is a set of (x, z, frozenset) and
    bottom says whether refutation is derivable.
    """
    n = inst.n_vars
    univ = [q == "A" for q in inst.quants]
    cuts = {(x, z): frozenset(cut_set(inst, x, z)) for x in range(n) for z in range(n)}
    conj = []
    for c in inst.matrix:
        q = next(iter(c.partners)) if c.partners else c.pivot
        conj.append((c.pivot, q, c.target))
        if c.pivot != q:
            conj.append((q, c.pivot, c.target))
    facts = {(x, x, frozenset()) for x in range(n)}
    changed = True
    while changed:
        changed = False
        new = set()
        by_into = {}
        by_from = {}
        empty_from = {}
        for x, z, a in facts:
            by_into.setdefault(z, []).append((x, a))
            by_from.setdefault(x, []).append((z, a))
            if not a:
                empty_from.setdefault(x, []).append(z)
        # Simplify
        for x, z, a in facts:
            new.add((x, z, a - cuts[(x, z)]))
        # Trans
        for x, z, a in facts:
            for z2 in empty_from.get(z, ()):
                new.add((x, z2, a))
        # AltTrans
        for y in range(n):
            for w1, a in by_into.get(y, ()):
                for w2 in empty_from.get(y, ()):
                    for zc, b in by_from.get(y, ()):
                        for wi, other in ((w1, w2), (w2, w1)):
                            extra = set() if other == wi else {other}
                            if all(univ[v] for v in extra):
                                new.add((wi, zc, frozenset(a | b | extra)))
        # Progress
        for u, v, zc in conj:
            for w1, a in by_into.get(u, ()):
                for w2 in empty_from.get(u, ()):
                    for w3, b in by_into.get(v, ()):
                        for w4 in empty_from.get(v, ()):
                            ws = (w1, w2, w3, w4)
                            for wi in set(ws):
                                extra = set(ws) - {wi}
                                if all(univ[w] for w in extra):
                                    new.add((wi, zc, frozenset(a | b | extra)))
        if not new <= facts:
            facts |= new
            changed = True
        if len(facts) > max_facts:
            raise RuntimeError("naive saturation blew up")
    bottom = any(
        not a and ((x < z and univ[z]) or (z < x and univ[x])) for x, z, a in facts
    )
    return facts, bottom


def minimal_antichains(facts):
    per_pair = {}
    for x, z, a in facts:
        per_pair.setdefault((x, z), []).append(a)
    out = {}
    for pair, sets in per_pair.items():
        mins = [a for a in sets if not any(b < a for b in sets)]
        out[pair] = {frozenset(m) for m in mins}
    return out


@pytest.fixture
def running_compiled(running_example):
    return compile_to_mplus(normalize(running_example))


def test_init_only(running_example):
    inst = make_instance("E", [])
    facts = saturate(inst)
    assert facts.status == "complete"
    assert facts.fact_count == 1
    assert facts.has(0, 0, [])


def test_running_example_bottom(running_compiled):
    facts = saturate(running_compiled)
    assert facts.status == "bottom"
    assert facts.has(0, 2, [1])  # P(x1, x3; {x2})
    assert facts.has(0, 3, [])  # P(x1, x4; {})
    assert facts.bottom_fact == (0, 3)


def test_chain_fact_counts():
    for n in (2, 3, 4):
        inst = parallel_chain(n)
        facts = saturate(inst)
        assert facts.status == "complete"
        assert len(facts.minimal[0, inst.n_vars - 1]) == 2**n
        # the four incomparable endpoint sets at n = 2 are the label choices
        if n == 2:
            for i, j in itertools.product((0, 1), repeat=2):
                assert facts.has(0, 6, [inst.names.index(f"y1_{i}"), inst.names.index(f"y2_{j}")])


def test_cap_exceeded():
    facts = saturate(parallel_chain(4), cap=10)
    assert facts.status == "cap"


def test_dialect_guard():
    from ordhorn.solver import DialectError

    with pytest.raises(DialectError):
        saturate(make_instance("EEE", [(0, [1, 2], None)]))


def test_fact_dump_format(running_compiled):
    facts = saturate(running_compiled)
    lines = facts.dump().splitlines()
    assert "P x1 x3 {x2}" in lines
    assert "P x1 x4 {}" in lines
    assert lines == sorted(lines)


def test_saturate_matches_naive_reference():
    rng = random.Random(3131)
    agree = 0
    for _ in range(120):
        inst = random_mplus_instance(rng, max_vars=4, max_clauses=3)
        reference, ref_bottom = naive_saturate(inst)
        got = saturate(inst, cap=10**5)
        assert got.status in ("complete", "bottom")
        assert (got.status == "bottom") == ref_bottom, print_instance(inst)
        if ref_bottom:
            # the reported bottom fact is derivable and meets refutation
            x, z = got.bottom_fact
            assert (x, z, frozenset()) in reference, print_instance(inst)
            assert (x < z and inst.quants[z] == "A") or (z < x and inst.quants[x] == "A")
        else:
            ref_min = minimal_antichains(reference)
            got_min = {
                pair: {frozenset(f.a_set) for f in got.facts() if (f.x, f.z) == pair}
                for pair in ref_min
            }
            assert got_min == ref_min, print_instance(inst)
            agree += 1
    assert agree > 30


def test_saturate_output_pinned():
    """One SHA-256 over what ``saturate`` stores and in which order: status,
    fact count, bottom fact, the minimal sets in insertion order, and the
    dump.  The join order decides which facts are stored when bottom or the
    cap stops saturation, so a change to any Progress premise level shows."""
    import hashlib

    from ordhorn.generators import exhaustive_mplus_instances

    rng = random.Random(4040)
    randoms = [random_mplus_instance(rng, max_vars=7, max_clauses=8) for _ in range(500)]
    runs = [(inst, 10**5) for inst in exhaustive_mplus_instances(3, 3)]
    runs += [(inst, cap) for cap in (10**5, 7) for inst in randoms]
    h = hashlib.sha256()
    statuses = {"complete": 0, "bottom": 0, "cap": 0}
    for inst, cap in runs:
        got = saturate(inst, cap=cap)
        statuses[got.status] += 1
        record = (got.status, got.fact_count, got.bottom_fact, list(got.minimal.items()), got.dump())
        h.update(repr(record).encode())
    assert statuses == {"complete": 991, "bottom": 1208, "cap": 137}
    assert h.hexdigest() == "30b17307818699b6562bda496e0e4de5aac5304cbd44f892f87e7305dfd9eefa"


def test_saturate_fixpoint_pinned():
    """One SHA-256 over what the least fixpoint fixes, whatever the join
    order: each uncapped run's status and, for a complete run, its fact count
    and sorted minimal antichains.  The family is the output pin's at cap
    10**5, plus parallel_chain(1..7)."""
    import hashlib

    from ordhorn.generators import exhaustive_mplus_instances

    rng = random.Random(4040)
    randoms = [random_mplus_instance(rng, max_vars=7, max_clauses=8) for _ in range(500)]
    runs = [*exhaustive_mplus_instances(3, 3), *randoms, *(parallel_chain(k) for k in range(1, 8))]
    h = hashlib.sha256()
    statuses = {"complete": 0, "bottom": 0}
    for inst in runs:
        got = saturate(inst, cap=10**5)
        statuses[got.status] += 1
        record = (got.status,)
        if got.status == "complete":
            record += (got.fact_count, sorted((pair, sorted(masks)) for pair, masks in got.minimal.items()))
        h.update(repr(record).encode())
    assert statuses == {"complete": 822, "bottom": 1021}
    assert h.hexdigest() == "dcc363c9461e08d1c9bdaa93d3822feb651ca7ed6cb04d208c33af9698cfa750"


def test_bottom_implies_solver_false():
    rng = random.Random(3232)
    hits = 0
    for _ in range(150):
        inst = random_mplus_instance(rng, max_vars=5, max_clauses=5)
        facts = saturate(inst, cap=10**5)
        if facts.status == "bottom":
            hits += 1
            assert solve(inst).value is False
    assert hits > 10


def test_no_bottom_implies_true():
    rng = random.Random(3333)
    hits = 0
    for _ in range(150):
        inst = random_mplus_instance(rng, max_vars=5, max_clauses=4)
        facts = saturate(inst, cap=10**5)
        if facts.status == "complete":
            hits += 1
            assert brute_solve(inst).value is True
    assert hits > 10


# --- the strategy -------------------------------------------------------------


def test_ep_move_first_variable_empty_gap():
    inst = make_instance("E", [])
    facts = saturate(inst)
    from ordhorn.orders import WeakOrder

    assert ep_move(inst, facts, WeakOrder(()), 0) == Move("gap", 0)


def test_ep_move_places_above_dominated():
    # exists x exists z with M+(z, z, x): z must finish weakly above x,
    # and the strategy picks the gap strictly above
    inst = make_instance("EE", [(1, [], 0)])
    facts = saturate(inst)
    assert facts.status == "complete"
    assert facts.has(1, 0, [])
    from ordhorn.orders import WeakOrder

    assert ep_move(inst, facts, WeakOrder((0,)), 1) == Move("gap", 1)


def test_ep_move_places_below_unrelated():
    # forall y exists x with M+(x, y, y): no fact P(x, .; {}) exists, so x
    # goes strictly below y, which also satisfies the constraint
    inst = make_instance("AE", [(1, [0], 0)])
    facts = saturate(inst)
    assert facts.status == "complete"
    from ordhorn.orders import WeakOrder

    assert ep_move(inst, facts, WeakOrder((0,)), 1) == Move("gap", 0)


def test_ep_move_rejects_incomplete_prefix():
    # the order must cover exactly the variables before x, also under -O
    inst = make_instance("AE", [(1, [0], 0)])
    facts = saturate(inst)
    from ordhorn.orders import WeakOrder

    for partial in (WeakOrder(()), WeakOrder((0, 1))):
        with pytest.raises(ValueError, match="before x must be assigned"):
            ep_move(inst, facts, partial, 1)


@pytest.mark.parametrize("message", sorted(UNDEFINED_STRATEGY_FACTS))
def test_ep_move_raises_when_the_strategy_is_undefined(message):
    from ordhorn.orders import WeakOrder

    inst = make_instance("EEE", [])
    facts = FactBase(inst.names, UNDEFINED_STRATEGY_FACTS[message], "complete", 0)
    with pytest.raises(StrategyUndefinedError, match=message):
        ep_move(inst, facts, WeakOrder((0, 1)), 2)


def test_strategy_wins_running_tournaments():
    rng = random.Random(3434)
    wins = 0
    for _ in range(120):
        inst = random_mplus_instance(rng, max_vars=5, max_clauses=4)
        facts = saturate(inst, cap=10**5)
        if facts.status != "complete":
            continue
        out = play_against(inst, lambda var, order: ep_move(inst, facts, order, var))
        assert out.win, print_instance(inst)
        wins += 1
    assert wins > 30


def test_strategy_wins_on_chains():
    for n in (2, 3):
        inst = parallel_chain(n)
        facts = saturate(inst)
        out = play_against(inst, lambda var, order: ep_move(inst, facts, order, var))
        assert out.win


# --- coverage of solver clauses ------------------------------------------------


def test_check_cover_running_chain():
    inst = parallel_chain(3)
    facts = saturate(inst)
    verdict = solve(inst)
    assert check_cover(inst, facts, verdict)


def test_check_cover_fails_without_the_derived_clauses():
    inst = parallel_chain(3)
    facts = saturate(inst)
    verdict = solve(inst)
    assert verdict.derived
    assert not check_cover(inst, facts, dataclasses.replace(verdict, log=[]))


def test_check_cover_random():
    rng = random.Random(3535)
    hits = 0
    for _ in range(80):
        inst = random_mplus_instance(rng, max_vars=5, max_clauses=4)
        facts = saturate(inst, cap=10**5)
        if facts.status != "complete":
            continue
        verdict = solve(inst)
        missing = uncovered_facts(inst, facts, verdict)
        assert not missing, (print_instance(inst), missing)
        hits += 1
    assert hits > 25


def test_bottom_fact_clause_present_in_rejecting_run(running_compiled):
    # the refuting fact P(x1, x4; {}) induces exactly the unit the solver
    # rejected on
    facts = saturate(running_compiled)
    verdict = solve(running_compiled)
    assert facts.bottom_fact == (0, 3)
    assert (0, (), 3) in verdict.clause_keys
