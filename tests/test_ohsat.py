"""The OH satisfiability oracle against weak-order brute force."""

import itertools
import random

from ordhorn.formula import Atom, OhClause
from ordhorn.generators import parallel_chain, random_mplus_instance, random_oh_conjunction
from ordhorn.ohsat import OhConjunction, entails, oh_sat
from ordhorn.orders import WeakOrder, enumerate_weak_orders, eval_clause

from conftest import RUNNING_EXAMPLE, memo_partition, partition
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


def _plain_eqs(x, z, order, j):
    """A memo probe's equalities (order, j) as the plain closure's pairs."""
    return [(x, v) for v in order[j:] if v != x and v != z]


def test_memo_probe_matches_plain_closure():
    """Probes answered from a base-fixpoint memo (x equated to a suffix of a
    variable order, one strict atom x < z) against the plain closure of the
    same conjunction: same answer and, when satisfiable, the same class
    partition.  Two probes share each fresh memo."""
    from ordhorn.ohsat import closure

    rng = random.Random(909)
    unsat = 0
    for _ in range(750):
        n = rng.randint(2, 6)
        pivots, pmasks, targets, by_pivot, _, edges = _random_closure_input(rng, n)
        memo = {}
        order = rng.sample(range(n), rng.randint(0, n))
        for _ in range(2):
            x, z = rng.sample(range(n), 2)
            j = rng.randint(0, len(order))
            got = closure(n, pivots, pmasks, targets, (order, j), edges, [(x, z)], [], by_pivot,
                          memo=memo)
            args = (n, pivots, pmasks, targets, _plain_eqs(x, z, order, j), edges, [(x, z)], [],
                    by_pivot)
            plain = closure(*args)
            assert (got[0] is None) == (plain[0] is None), args
            if got[0] is None:
                unsat += 1
                assert got[2]
            else:
                assert memo_partition(memo, got[0]) == partition(plain[0]), args
    assert unsat > 100


def _range_probe_cases(inst):
    """An M+ instance as the solver hands it to the oracle: clause arrays,
    by_pivot, unit edges and the universals in prefix order."""
    pivots, pmasks, targets, by_pivot, edges = [], [], [], {}, []
    for c in inst.matrix:
        if c.partners:
            by_pivot.setdefault(c.pivot, []).append(len(pivots))
            pivots.append(c.pivot)
            pmasks.append(sum(1 << p for p in c.partners))
            targets.append(c.target)
        else:
            edges.append((c.target, c.pivot))
    order = [v for v in range(inst.n_vars) if inst.quants[v] == "A"]
    return pivots, pmasks, targets, by_pivot, edges, order


def _sweep(n, pivots, pmasks, targets, by_pivot, edges, order, memo, seen, new_id=None):
    """Memo probes (x, z, j) of this clause set against the plain closure,
    for every pair and each suffix start j that puts x or z at an end of
    order[j:] or just before it; ``seen`` counts where z and x sit relative
    to order[j:].  Returns how many probes fired clause ``new_id``."""
    from ordhorn.ohsat import closure

    fired_new = 0
    m = len(order)
    at = {v: i for i, v in enumerate(order)}
    for x in range(n):
        for z in range(n):
            if x == z:
                continue
            ends = {0, m, m - 1}
            for v in (x, z):
                if v in at:
                    ends |= {at[v], at[v] + 1}
            for j in sorted(e for e in ends if 0 <= e <= m):
                got = closure(n, pivots, pmasks, targets, (order, j), edges, [(x, z)], [],
                              by_pivot, memo=memo)
                args = (n, pivots, pmasks, targets, _plain_eqs(x, z, order, j), edges, [(x, z)],
                        [], by_pivot)
                plain = closure(*args)
                assert (got[0] is None) == (plain[0] is None), args
                if got[0] is None:
                    fired = {e[1] for e in got[2] if e[0] == "fire"}
                else:
                    assert memo_partition(memo, got[0]) == partition(plain[0]), args
                    fired = set(got[3])
                fired_new += new_id in fired
                iz = at.get(z, -1)
                if iz < 0:
                    where = "z existential"
                elif iz < j:
                    where = "z before"
                elif iz == j:
                    where = "z first"
                elif iz == m - 1:
                    where = "z last"
                else:
                    where = "z middle"
                seen[where] += 1
                seen["x inside" if at.get(x, -1) >= j else "x outside"] += 1
    return fired_new


def test_memo_probe_range_split():
    """The memo probe starts from range ORs over the universals, split at z
    when z lies in the range.  Probes of every pair of chains 1..8 and of
    seeded random instances, at the suffix starts ``_sweep`` picks, agree
    with the plain closure, also after a
    live clause with a new pivot, which the memo owner ORs into
    ``memo["pivots"]`` without clearing the memo."""
    from collections import Counter

    rng = random.Random(1600)
    instances = [parallel_chain(k) for k in range(1, 9)]
    instances += [random_mplus_instance(rng, max_vars=8, max_clauses=8) for _ in range(150)]
    seen = Counter()
    live_fires = 0
    for inst in instances:
        n = inst.n_vars
        pivots, pmasks, targets, by_pivot, edges, order = _range_probe_cases(inst)
        memo = {}
        _sweep(n, pivots, pmasks, targets, by_pivot, edges, order, memo, seen)
        if not memo:
            continue  # the base fixpoint refutes every probe
        # a clause on a new pivot that cannot fire in the base fixpoint
        fresh = [(p, m, t) for p in range(n) if p not in by_pivot
                 for m in (1 << q for q in range(n) if q != p)
                 for t in range(n) if t != p and m & ~memo["cls"][p]]
        if not fresh:
            continue
        p, m, t = rng.choice(fresh)
        new_id = len(pivots)
        pivots.append(p)
        pmasks.append(m)
        targets.append(t)
        by_pivot[p] = [new_id]
        memo["pivots"] |= 1 << p
        live_fires += _sweep(n, pivots, pmasks, targets, by_pivot, edges, order, memo, seen,
                             new_id)
    for where in ("z existential", "z before", "z first", "z middle", "z last",
                  "x inside", "x outside"):
        assert seen[where] > 100, (where, seen)
    assert live_fires > 100


def test_memo_fill_fires_base_clauses():
    """A clause that fires in the base fixpoint is part of the memo: the
    clause 2 != 3 | 2 >= 1 fires once the units make 2 and 3 one class,
    and with 2 <= 0 it puts 1 below 0, so the probe 0 < 1 is refuted."""
    from ordhorn.ohsat import closure

    clauses = (4, [2], [1 << 3], [1])
    atoms = ([(2, 3), (3, 2), (2, 0)], [(0, 1)], [], {2: [0]})
    assert closure(*clauses, [], *atoms)[0] is None
    assert closure(*clauses, ([], 0), *atoms, memo={})[0] is None
