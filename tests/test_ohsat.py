"""The OH satisfiability oracle against weak-order brute force."""

import itertools
import random

from ordhorn.formula import Atom, OhClause
from ordhorn.generators import random_oh_conjunction
from ordhorn.ohsat import OhConjunction, entails, oh_sat
from ordhorn.orders import WeakOrder, enumerate_weak_orders, eval_clause

from conftest import RUNNING_EXAMPLE
from ordhorn.formula import parse_instance, normalize


def brute_sat(conj):
    """Independent oracle: search all weak orders for a satisfying one."""
    for w in enumerate_weak_orders(conj.n_vars):
        if model_satisfies(conj, w):
            return True
    return False


def model_satisfies(conj, w):
    return all(eval_clause(c.atoms(), w.ranks) for c in conj.clauses) and all(
        eval_clause((a,), w.ranks) for a in conj.atoms
    )


def running_conjunction(extra_atoms):
    oh = normalize(parse_instance(RUNNING_EXAMPLE))
    return OhConjunction(5, oh.matrix, tuple(extra_atoms))


def test_forced_equality_contradicts_disequality():
    conj = OhConjunction(
        2, (), (Atom(0, "<=", 1), Atom(1, "<=", 0), Atom(0, "!=", 1))
    )
    assert not oh_sat(conj)


def test_running_example_probe_sat():
    conj = running_conjunction([Atom(0, "=", 1), Atom(0, "<", 3)])
    res = oh_sat(conj)
    assert res
    assert model_satisfies(conj, res.model)


def test_running_example_probe_unsat():
    # the refuting test equates x1 with the whole upward set {x2, x4}
    conj = running_conjunction([Atom(0, "=", 1), Atom(0, "=", 3), Atom(0, "<", 2)])
    res = oh_sat(conj)
    assert not res
    assert res.certificate  # the merge/fire trail explains the refutation
    # with x1 = x2 alone the formula is still satisfiable
    assert oh_sat(running_conjunction([Atom(0, "=", 1), Atom(0, "<", 2)]))


def test_bottom_clause_unsat():
    conj = OhConjunction(1, (OhClause(0, frozenset(), None),), ())
    assert not oh_sat(conj)


def test_entails_transitivity():
    conj = OhConjunction(3, (), (Atom(0, "<=", 1), Atom(1, "<=", 2)))
    assert entails(conj, Atom(0, "<=", 2))
    assert not entails(conj, Atom(2, "<=", 0))
    assert not entails(OhConjunction(2, (), ()), Atom(0, "<=", 1))


def test_entails_mplus_firing():
    # M+(x, y, z) with x = y entails x >= z
    conj = OhConjunction(
        3, (OhClause(0, frozenset([1]), 2),), (Atom(0, "=", 1),)
    )
    assert entails(conj, Atom(0, ">=", 2))
    assert entails(conj, Atom(1, ">=", 2))
    assert not entails(conj, Atom(2, ">=", 0))


def test_entails_equality_splits():
    conj = OhConjunction(2, (), (Atom(0, "<=", 1), Atom(1, "<=", 0)))
    assert entails(conj, Atom(0, "=", 1))
    assert not entails(conj, Atom(0, "!=", 1))


def _exhaustive_small_conjunctions():
    """All conjunctions of at most two components over three variables."""
    clause_pool = []
    for pivot in range(3):
        others = [v for v in range(3) if v != pivot]
        for k in range(3):
            for partners in itertools.combinations(others, k):
                for target in [None] + others:
                    if not partners and target is None:
                        continue
                    clause_pool.append(OhClause(pivot, frozenset(partners), target))
    atom_pool = [
        Atom(a, op, b)
        for a in range(3)
        for b in range(3)
        if a != b
        for op in ("=", "!=", "<=", "<")
    ]
    components = [("c", c) for c in clause_pool] + [("a", a) for a in atom_pool]
    for k in range(1, 3):
        for combo in itertools.combinations(components, k):
            clauses = tuple(c for kind, c in combo if kind == "c")
            atoms = tuple(a for kind, a in combo if kind == "a")
            yield OhConjunction(3, clauses, atoms)


def test_completeness_exhaustive_small():
    checked = 0
    for conj in _exhaustive_small_conjunctions():
        res = oh_sat(conj)
        assert bool(res) == brute_sat(conj), conj
        if res:
            assert model_satisfies(conj, res.model), conj
        checked += 1
    assert checked == 1653  # 57 components, singletons plus unordered pairs


def test_completeness_random():
    rng = random.Random(31)
    for _ in range(2000):
        n = rng.randint(2, 5)
        clauses, atoms = random_oh_conjunction(rng, n)
        conj = OhConjunction(n, tuple(clauses), tuple(atoms))
        res = oh_sat(conj)
        assert bool(res) == brute_sat(conj), conj
        if res:
            assert model_satisfies(conj, res.model), conj


def test_monotone_under_strengthening():
    rng = random.Random(32)
    for _ in range(500):
        n = rng.randint(2, 5)
        clauses, atoms = random_oh_conjunction(rng, n)
        conj = OhConjunction(n, tuple(clauses), tuple(atoms))
        if not oh_sat(conj):
            extra_clauses, extra_atoms = random_oh_conjunction(rng, n, 1, 1)
            bigger = OhConjunction(
                n, tuple(clauses) + tuple(extra_clauses), tuple(atoms) + tuple(extra_atoms)
            )
            assert not oh_sat(bigger)


def test_model_uses_distinct_levels_per_class():
    # unforced variables end up on pairwise distinct levels
    conj = OhConjunction(3, (OhClause(0, frozenset([1]), 2),), ())
    res = oh_sat(conj)
    assert res
    assert len(set(res.model.ranks)) == 3


def test_sccs_match_mutual_reachability():
    """closure on seeded random graphs with duplicate edges and self-loops,
    given as ``les`` edges with no clauses: the classes are mutual
    reachability, and sccs lists each class after every class above it."""
    from ordhorn.ohsat import closure

    rng = random.Random(1972)
    for _ in range(2000):
        n = rng.randint(1, 12)
        edges = []
        for _ in range(rng.randint(0, 3 * n)):
            a, b = rng.randrange(n), rng.randrange(n)
            edges.extend([(a, b)] * rng.choice((1, 1, 2)))
        for _ in range(rng.randint(0, 2)):
            v = rng.randrange(n)
            edges.append((v, v))
        succ = [[] for _ in range(n)]
        for a, b in edges:
            succ[a].append(b)
        reach = []
        for v in range(n):
            seen, todo = {v}, [v]
            while todo:
                for w in succ[todo.pop()]:
                    if w not in seen:
                        seen.add(w)
                        todo.append(w)
            reach.append(seen)
        rep, sccs, _, _ = closure(n, [], [], [], [], edges, [], [], {})
        assert sorted(r for (r,) in sccs) == sorted(set(rep))
        comp_of = {r: i for i, (r,) in enumerate(sccs)}
        for v in range(n):
            for w in range(n):
                assert (rep[v] == rep[w]) == (w in reach[v] and v in reach[w])
                if w in reach[v]:
                    assert comp_of[rep[w]] <= comp_of[rep[v]]


def _random_closure_input(rng, n):
    """Clause arrays under the solver's conventions (partner-free clauses as
    edges, retired entries) plus the live clauses and the edges."""
    pivots, pmasks, targets = [], [], []
    live = []  # the entries that are not retired, as clauses
    by_pivot = {}
    for i in range(rng.randint(0, 4)):
        pivot = rng.randrange(n)
        others = [v for v in range(n) if v != pivot]
        rng.shuffle(others)
        partners = others[: rng.randint(1, min(2, len(others)))]
        m = 0
        for p in partners:
            m |= 1 << p
        target = rng.choice([-2, -1] + list(range(n)))
        # a retired entry stays in the arrays, as a clause that would
        # refute if it fired, but is left out of by_pivot
        retired = target == -2
        pivots.append(pivot)
        pmasks.append(m)
        targets.append(-1 if retired else target)
        if not retired:
            by_pivot.setdefault(pivot, []).append(i)
            live.append(OhClause(pivot, frozenset(partners), None if target < 0 else target))
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3))]
    return pivots, pmasks, targets, by_pivot, live, edges


def test_closure_matches_weak_order_brute_force():
    """The closure engine under the solver's conventions (partner-free
    clauses as edges, retired entries, equality/strict/disequality atoms)
    against weak-order brute force; SAT answers must come with a class order
    that yields a model."""
    from ordhorn.ohsat import closure

    rng = random.Random(909)
    orders = {n: list(enumerate_weak_orders(n)) for n in range(2, 6)}
    for _ in range(1500):
        n = rng.randint(2, 5)
        pivots, pmasks, targets, by_pivot, live, edges = _random_closure_input(rng, n)
        eqs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2))]
        lts = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2))]
        nes = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2))]
        atoms = (
            [Atom(a, "=", b) for a, b in eqs]
            + [Atom(a, "<=", b) for a, b in edges]
            + [Atom(a, "<", b) for a, b in lts]
            + [Atom(a, "!=", b) for a, b in nes]
        )
        conj = OhConjunction(n, tuple(live), tuple(atoms))
        reps, sccs, cert, _ = closure(n, pivots, pmasks, targets, eqs, edges, lts, nes, by_pivot)
        truth = any(model_satisfies(conj, w) for w in orders[n])
        assert (reps is not None) == truth, conj
        if reps is None:
            assert cert
        else:
            assert all(reps[reps[v]] == reps[v] for v in range(n))
            # the class order, highest first, numbered downwards
            level = {comp[0]: len(sccs) - 1 - i for i, comp in enumerate(sccs)}
            assert model_satisfies(conj, WeakOrder(tuple(level[r] for r in reps))), conj


def _partition(rep):
    classes = {}
    for v, r in enumerate(rep):
        classes.setdefault(r, set()).add(v)
    return sorted(sorted(c) for c in classes.values())


def test_memo_probe_matches_plain_closure():
    """Probes answered from a base-fixpoint memo (x equated to a set, one
    strict atom x < z) against the plain closure of the same conjunction:
    same answer and, when satisfiable, the same class partition.  Two probes
    share each fresh memo."""
    from ordhorn.ohsat import closure

    rng = random.Random(909)
    unsat = 0
    for _ in range(750):
        n = rng.randint(2, 6)
        pivots, pmasks, targets, by_pivot, _, edges = _random_closure_input(rng, n)
        memo = {}
        for _ in range(2):
            x, z = rng.sample(range(n), 2)
            eqs = [(x, v) for v in range(n) if v != x and rng.random() < 0.3]
            args = (n, pivots, pmasks, targets, eqs, edges, [(x, z)], [], by_pivot)
            got = closure(*args, memo=memo)
            plain = closure(*args)
            assert (got[0] is None) == (plain[0] is None), args
            if got[0] is None:
                unsat += 1
                assert got[2]
            else:
                assert _partition(got[0]) == _partition(plain[0]), args
    assert unsat > 100


def test_memo_fill_fires_base_clauses():
    """A clause that fires in the base fixpoint is part of the memo: the
    clause 2 != 3 | 2 >= 1 fires once the units make 2 and 3 one class,
    and with 2 <= 0 it puts 1 below 0, so the probe 0 < 1 is refuted."""
    from ordhorn.ohsat import closure

    args = (4, [2], [1 << 3], [1], [], [(2, 3), (3, 2), (2, 0)], [(0, 1)], [], {2: [0]})
    assert closure(*args)[0] is None
    assert closure(*args, memo={})[0] is None
