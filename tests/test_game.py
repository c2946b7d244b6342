"""The brute-force game oracle and the adversary harness."""

import gc
import hashlib
import itertools
import json
import pathlib
import random

import pytest

import ordhorn.game as game
from ordhorn.cli import EXIT_RESOURCE, main
from ordhorn.formula import Atom, QcspInstance, normalize, parse_instance
from ordhorn.game import Move, ResourceLimitError, brute_solve, play_against
from ordhorn.generators import random_mplus_instance
from ordhorn.orders import enumerate_weak_orders
from ordhorn.reductions import Cnf3, reduce_3cnf_complement

from conftest import make_general, make_instance, random_general_instance


def test_density_and_unboundedness():
    assert brute_solve(make_general("AE", [[(1, ">", 0)]])).value is True
    assert brute_solve(make_general("EA", [[(1, ">", 0)]])).value is False


def test_no_maximum_in_q():
    # exists x forall y: y >= x fails; forall y exists x: x >= y holds
    inst = normalize(parse_instance("qcsp v1\nE x\nA y\nC M+ y y x\n"))
    assert brute_solve(inst).value is False
    inst2 = make_instance("AE", [(1, [], 0)])
    assert brute_solve(inst2).value is True


def test_running_example_false(running_example):
    assert brute_solve(running_example).value is False


def test_equality_matters():
    # forall x exists y: (y = x) is winnable, (y != x) likewise; both at once is not
    assert brute_solve(make_general("AE", [[(1, "=", 0)]])).value is True
    assert brute_solve(make_general("AE", [[(1, "!=", 0)]])).value is True
    assert brute_solve(make_general("AE", [[(1, "=", 0)], [(1, "!=", 0)]])).value is False


def test_max_vars_guard():
    inst = make_general("E" * 13, [])
    with pytest.raises(ResourceLimitError):
        brute_solve(inst)


def test_max_nodes_guard(running_example):
    with pytest.raises(ResourceLimitError):
        brute_solve(running_example, max_nodes=3)


def test_monotone_adding_clause_never_turns_true():
    rng = random.Random(21)
    for _ in range(200):
        inst = random_mplus_instance(rng, max_vars=5, max_clauses=4)
        base = brute_solve(inst).value
        extra = random_mplus_instance(rng, max_vars=inst.n_vars, max_clauses=1)
        if extra.n_vars != inst.n_vars or not extra.matrix:
            continue
        bigger = inst.__class__(inst.names, inst.quants, inst.matrix + extra.matrix)
        after = brute_solve(bigger).value
        assert not (base is False and after is True)


def _reversed_instance(inst):
    flip = {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "=": "=", "!=": "!="}
    matrix = tuple(
        tuple(Atom(a.left, flip[a.op], a.right) for a in c) for c in inst.general_matrix()
    )
    return inst.__class__(inst.names, inst.quants, matrix)


def test_duality_preserves_verdict():
    rng = random.Random(22)
    for _ in range(150):
        inst = random_general_instance(rng, max_vars=5, max_clauses=3)
        assert brute_solve(inst).value == brute_solve(_reversed_instance(inst)).value


def test_move_order_does_not_change_verdicts(monkeypatch):
    rng = random.Random(23)
    instances = [random_general_instance(rng, max_vars=5, max_clauses=3) for _ in range(60)]
    baseline = [brute_solve(i).value for i in instances]
    original = game.legal_moves
    monkeypatch.setattr(game, "legal_moves", lambda k: list(reversed(original(k))))
    assert [brute_solve(i).value for i in instances] == baseline


def test_memoization_projects_dead_variables():
    # many dead universals: node count must stay far below the raw tree size
    inst = make_general("E" + "A" * 8 + "E", [[(9, ">=", 0)]])
    verdict = brute_solve(inst)
    assert verdict.value is True
    assert verdict.nodes < 2000


def test_emit_strategy_structure():
    inst = make_general("AE", [[(1, ">", 0)]])
    verdict = brute_solve(inst, emit_strategy=True)
    assert verdict.value is True
    tree = verdict.strategy
    assert tree["var"] == "x1"
    assert set(tree["branches"]) == {"gap0"}
    assert tree["branches"]["gap0"]["var"] == "x2"


def test_play_against_trivial_win():
    inst = make_general("EA", [[(0, ">=", 0)]])
    out = play_against(inst, lambda var, order: Move("gap", 0))
    assert out.win


def test_play_against_false_instance_always_loses(running_example):
    # on a false instance every callback loses; here: always play a fresh top gap
    out = play_against(running_example, lambda var, order: Move("gap", len(order.levels())))
    assert not out.win
    assert out.violated
    assert out.trace


def test_empty_clause_loses_at_the_root():
    # no variable's placement re-checks a clause that mentions none
    inst = make_general("EA", [[]])
    assert (brute_solve(inst).value, brute_solve(inst).nodes) == (False, 1)
    out = play_against(inst, lambda var, order: Move("gap", 0))
    assert (out.win, out.trace, out.violated) == (False, [], "")


def test_play_against_propagates_callback_errors(running_example):
    class Boom(RuntimeError):
        pass

    def ep(var, order):
        raise Boom()

    with pytest.raises(Boom):
        play_against(running_example, ep)


@pytest.mark.parametrize(
    "move, message",
    [(Move("eq", 0), "level index out of bounds"), (Move("gap", 2), "gap index out of bounds")],
)
def test_play_against_checks_moves_through_play(move, message):
    # the callback moves first, so no level exists yet: eq0 and gap2 are out of bounds
    inst = make_general("EA", [[(0, ">=", 0)]])
    with pytest.raises(ValueError, match=f"^{message}$"):
        play_against(inst, lambda var, order: move)


def test_play_returns_the_child_and_leaves_the_parent():
    # x1..x4 placed on three levels; x5 moves
    ranks = [1, 0, 2, 1]
    children = {
        Move("eq", 0): ([1, 0, 2, 1, 0], 3),
        Move("eq", 1): ([1, 0, 2, 1, 1], 3),
        Move("eq", 2): ([1, 0, 2, 1, 2], 3),
        Move("gap", 0): ([2, 1, 3, 2, 0], 4),
        Move("gap", 1): ([2, 0, 3, 2, 1], 4),
        Move("gap", 2): ([1, 0, 3, 1, 2], 4),
        Move("gap", 3): ([1, 0, 2, 1, 3], 4),
    }
    assert list(children) == list(game.legal_moves(3))
    for move, child in children.items():
        assert game.play(ranks, move, 3) == child, move
        assert ranks == [1, 0, 2, 1]
    assert game.play([], Move("gap", 0), 0) == ([0], 1)
    for move, message in [
        (Move("eq", 3), "level index out of bounds"),
        (Move("eq", -1), "level index out of bounds"),
        (Move("gap", 4), "gap index out of bounds"),
        (Move("gap", -1), "gap index out of bounds"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            game.play(ranks, move, 3)
    assert ranks == [1, 0, 2, 1]


def test_brute_agrees_with_itself_on_oh_vs_general(running_example):
    oh = normalize(running_example)
    assert brute_solve(running_example).value == brute_solve(oh).value


def test_leaf_evaluation_invariant_under_realization():
    # replaying full-prefix leaves with rational assignments realizing the
    # same weak order never changes the matrix outcome
    from ordhorn.orders import dense_ranks, enumerate_weak_orders, eval_clause

    rng = random.Random(24)
    for _ in range(30):
        inst = random_general_instance(rng, max_vars=4, max_clauses=3)
        matrix = inst.general_matrix()
        for w in enumerate_weak_orders(inst.n_vars):
            by_type = all(eval_clause(c, w.ranks) for c in matrix)
            for _ in range(3):
                cuts = sorted(rng.sample(range(10_000), len(w.levels())))
                values = tuple(cuts[r] for r in w.ranks)
                again = dense_ranks(values)
                assert all(eval_clause(c, again) for c in matrix) == by_type


def _pinned(inst, ranks):
    """Reference for a placed prefix: the first len(ranks) variables become
    existential and C(k,2) unit clauses pin their order type."""
    k = len(ranks)
    pins = []
    for i, j in itertools.combinations(range(k), 2):
        op = "=" if ranks[i] == ranks[j] else ("<" if ranks[i] < ranks[j] else ">")
        pins.append((Atom(i, op, j),))
    quants = ("E",) * k + inst.quants[k:]
    return inst.__class__(inst.names, quants, tuple(pins) + inst.general_matrix())


def test_prefix_matches_pinned_order_type():
    rng = random.Random(24)
    checked = 0
    for _ in range(150):
        if rng.random() < 0.5:
            inst = random_general_instance(rng, max_vars=7, max_clauses=4)
        else:
            inst = random_mplus_instance(rng, max_vars=7, max_clauses=4)
        k = rng.randint(0, min(inst.n_vars, 4))
        types = list(enumerate_weak_orders(k))
        for w in rng.sample(types, min(len(types), 4)):
            expected = brute_solve(_pinned(inst, w.ranks)).value
            assert brute_solve(inst, prefix=w.ranks).value == expected, (w.ranks, inst)
            checked += 1
    assert checked > 300


def test_prefix_must_be_dense_and_fit():
    inst = make_general("EE", [[(1, ">", 0)]])
    assert brute_solve(inst, prefix=(1, 0)).value is False
    assert brute_solve(inst, prefix=(0, 1)).value is True
    for bad in ((0, 2), (1,), (1, 1), (0, 0, 0)):
        with pytest.raises(ValueError):
            brute_solve(inst, prefix=bad)


FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

# (value, nodes) of brute_solve, recorded before a node re-checked only the
# clauses of the variable placed last: the node count moves if the memo key,
# the move order or the counting changes.
FIXTURE_PINS = {
    "chain2.qcsp": (True, 38),
    "forall-exists-gt.qcsp": (True, 5),
    "no-maximum.qcsp": (False, 4),
    "reject-cascade.qcsp": (False, 18),
}
RANDOM_PINS = [
    ((), True, 20), ((), False, 2), ((0, 0, 1), True, 2), ((), False, 11), ((), False, 5),
    ((0,), False, 28), ((), True, 11), ((), False, 5), ((0, 0), False, 11), ((), True, 9),
    ((), False, 2), ((0,), False, 4), ((), True, 4), ((), True, 6), ((0, 1, 1), False, 1),
    ((), False, 7), ((), False, 8), ((0, 1), True, 7), ((), False, 2), ((), True, 11),
    ((0,), False, 1), ((), True, 22), ((), False, 6), ((0,), False, 14), ((), True, 44),
    ((), False, 23), ((1, 0), True, 6), ((), False, 13), ((), False, 10), ((0,), True, 43),
]
_X6 = {"eq0": {}, "eq1": {}, "gap0": {}, "gap1": {}, "gap2": {}}
_X6_WIDE = {"eq0": {}, "eq1": {}, "eq2": {}, "gap0": {}, "gap1": {}, "gap2": {}, "gap3": {}}
STRATEGY_PINS = {
    9: {"var": "x1", "move": "gap0", "next": {"var": "x2", "branches": {
        "eq0": {"var": "x3", "move": "eq0", "next": {}},
        "gap0": {"var": "x3", "move": "eq0", "next": {}},
        "gap1": {"var": "x3", "move": "eq1", "next": {}}}}},
    19: {"var": "x1", "branches": {"gap0": {"var": "x2", "branches": {
        "eq0": {"var": "x3", "move": "gap0", "next": {}},
        "gap0": {"var": "x3", "move": "gap0", "next": {}},
        "gap1": {"var": "x3", "move": "eq0", "next": {}}}}}},
    29: {"var": "x2", "move": "gap1", "next": {"var": "x3", "move": "eq1", "next": {
        "var": "x4", "move": "eq0", "next": {"var": "x5", "branches": {
            "eq0": {"var": "x6", "branches": _X6},
            "eq1": {"var": "x6", "branches": _X6},
            "gap0": {"var": "x6", "branches": _X6_WIDE},
            "gap1": {"var": "x6", "branches": _X6_WIDE},
            "gap2": {"var": "x6", "branches": _X6_WIDE}}}}}},
}
# play_against with "always open a new top level", on the first 12 instances
LOSS_PINS = [
    (True, None, None),
    (False, [("x1", "gap0")], "x1 != x1 | x1 != x1 | x1 < x1"),
    (True, None, None),
    (False, [("x1", "gap0"), ("x2", "eq0"), ("x3", "eq0"), ("x4", "gap1"), ("x5", "eq0"),
             ("x6", "eq1")], "x5 != x5 | x5 != x2 | x6 <= x5"),
    (False, [("x1", "gap0"), ("x2", "gap1")], "x2 > x2"),
    (False, [("x1", "gap0"), ("x2", "eq0"), ("x3", "gap1"), ("x4", "gap2"), ("x5", "gap3")],
     "x5 < x2"),
    (True, None, None),
    (False, [("x1", "gap0"), ("x2", "gap1")], "x1 != x1 | x1 != x1 | x1 >= x2"),
    (False, [("x1", "gap0"), ("x2", "gap1"), ("x3", "gap2"), ("x4", "eq0"), ("x5", "gap3"),
             ("x6", "eq0")], "x4 != x6 | x4 != x1 | x1 < x4"),
    (True, None, None),
    (False, [("x1", "gap0")], "x1 < x1"),
    (False, [("x1", "gap0"), ("x2", "eq0"), ("x3", "eq0"), ("x4", "eq0")], "x4 != x4 | x4 != x3"),
]


def _pinned_instances():
    """30 seeded instances; every third starts from a placed prefix."""
    rng = random.Random(1313)
    out = []
    for i in range(30):
        inst = random_general_instance(rng, max_vars=8, max_clauses=6)
        prefix = ()
        if i % 3 == 2:
            k = rng.randint(1, min(inst.n_vars, 3))
            prefix = rng.choice(list(enumerate_weak_orders(k))).ranks
        out.append((inst, prefix))
    return out


def test_oracle_output_is_pinned():
    for name, pin in FIXTURE_PINS.items():
        verdict = brute_solve(parse_instance((FIXTURES / name).read_text()))
        assert (verdict.value, verdict.nodes) == pin, name
    instances = _pinned_instances()
    got = []
    for inst, prefix in instances:
        verdict = brute_solve(inst, prefix=prefix)
        got.append((prefix, verdict.value, verdict.nodes))
    assert got == RANDOM_PINS
    for i, tree in STRATEGY_PINS.items():
        inst, prefix = instances[i]
        assert brute_solve(inst, prefix=prefix, emit_strategy=True).strategy == tree, i

    def new_top_level(var, order):
        return Move("gap", len(order.levels()))

    outcomes = [play_against(inst, new_top_level) for inst, _ in instances[:12]]
    assert [(o.win, o.trace, o.violated) for o in outcomes] == LOSS_PINS


def test_node_limit_trips_at_the_pinned_count(capsys):
    # every position counts as a node, children settled without a call of
    # their own included, so a budget of exactly the pinned count suffices
    # and one less raises
    cases = [(parse_instance((FIXTURES / name).read_text()), ()) for name in FIXTURE_PINS]
    for inst, prefix in cases + _pinned_instances():
        verdict = brute_solve(inst, prefix=prefix)
        assert brute_solve(inst, prefix=prefix, max_nodes=verdict.nodes) == verdict
        with pytest.raises(ResourceLimitError):
            brute_solve(inst, prefix=prefix, max_nodes=verdict.nodes - 1)
    assert main(["brute", str(FIXTURES / "chain2.qcsp"), "--max-nodes", "0"]) == EXIT_RESOURCE
    assert "exceeded 0 nodes" in capsys.readouterr().err


def _live_cache_entries():
    """(closures, entries): the game search closures still alive, and the
    entries of every dict they hold, the memo and any cache beside it."""
    closures = total = 0
    for obj in gc.get_objects():
        if getattr(obj, "__qualname__", None) == "brute_solve.<locals>.search":
            closures += 1
            total += sum(len(c.cell_contents) for c in obj.__closure__ if isinstance(c.cell_contents, dict))
    return closures, total


def test_memo_is_freed_on_every_exit():
    # search refers to itself, so with the collector off its closure, memo
    # and live-variable cache included, outlives the call; what they held
    # must not
    inst = make_general("A" * 5 + "E", [[(5, ">", i)] for i in range(5)])
    gc.collect()
    gc.disable()
    try:
        verdict = brute_solve(inst)
        assert verdict.nodes > 5000
        assert _live_cache_entries() == (1, 0)
        with pytest.raises(ResourceLimitError):
            brute_solve(inst, max_nodes=verdict.nodes // 2)
        assert _live_cache_entries() == (2, 0)
    finally:
        gc.enable()


def test_clause_order_does_not_change_the_search():
    # the open clauses are a set, so permuting the matrix moves no node and no
    # replayed move; this guards the clause <-> bit mapping and the memo key's
    # canonical form, which the value and node pins alone do not
    rng = random.Random(29)

    def top_gap(var, order):
        return Move("gap", len(order.levels()))

    instances = [random_general_instance(rng, max_vars=7, max_clauses=7) for _ in range(300)]
    instances += [random_mplus_instance(rng, max_vars=8, max_clauses=7) for _ in range(150)]
    for inst in instances:
        verdict, out = brute_solve(inst), play_against(inst, top_gap)
        for _ in range(3):
            matrix = list(inst.matrix)
            rng.shuffle(matrix)
            permuted = QcspInstance(inst.names, inst.quants, tuple(matrix))
            again, out2 = brute_solve(permuted), play_against(permuted, top_gap)
            assert (again.value, again.nodes) == (verdict.value, verdict.nodes), inst
            assert (out2.win, out2.trace) == (out.win, out.trace), inst


# (value, nodes) of brute_solve on complement-of-SAT gadgets of 2-variable
# 3-CNFs, recorded before a node evaluated only the atoms its move decided.
# The six unsatisfiable ones are orderings of the four 2-clauses, the searches
# that set the oracle benchmark's tail; the last two are satisfiable.
GADGET_PINS = [
    (((1, 1, 2), (1, -2, -2), (2, -1, -1), (-1, -1, -2)), True, 16193),
    (((1, 2, 2), (-2, 1, 1), (-1, -1, -2), (-1, 2, 2)), True, 16197),
    (((2, 1, 1), (-1, -1, 2), (1, -2, -2), (-2, -1, -1)), True, 17162),
    (((1, 1, 2), (-1, -2, -2), (-2, 1, 1), (-1, -1, 2)), True, 22769),
    (((1, 2, 2), (-2, -1, -1), (-1, -1, 2), (1, -2, -2)), True, 22761),
    (((-2, 1, 1), (-1, -1, -2), (1, 2, 2), (2, -1, -1)), True, 17170),
    (((1, 1, 2), (-1, -2, -2)), False, 210),
    (((-1, -2, -2), (2, 1, 1), (-1, -1, 2)), False, 1097),
]
# the first gadget's strategy tree: its node count and the SHA-256 of its
# JSON with sorted keys (the tree itself is about 500 kB)
GADGET_STRATEGY_PIN = (49483, "4bed0330b2990e857eaba924b2b62df79f35d704fed7b9a2e865a6679b1a2440")


def test_gadget_searches_are_pinned():
    for clauses, value, nodes in GADGET_PINS:
        verdict = brute_solve(reduce_3cnf_complement(Cnf3(2, clauses)))
        assert (verdict.value, verdict.nodes) == (value, nodes), clauses
    inst = reduce_3cnf_complement(Cnf3(2, GADGET_PINS[0][0]))
    verdict = brute_solve(inst, emit_strategy=True)
    text = json.dumps(verdict.strategy, sort_keys=True)
    assert (verdict.nodes, hashlib.sha256(text.encode()).hexdigest()) == GADGET_STRATEGY_PIN
