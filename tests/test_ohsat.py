"""The OH satisfiability oracle against weak-order brute force."""

import random

import pytest

from ordhorn.formula import Atom, OhClause
from ordhorn.generators import parallel_chain, random_mplus_instance, random_oh_conjunction
from ordhorn.ohsat import OhConjunction, entails, oh_sat

from conftest import RUNNING_EXAMPLE, brute_sat, check_probe, live_conjunction, model_satisfies
from ordhorn.formula import parse_instance, normalize


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


def test_oh_sat_output_pinned():
    """One SHA-256 over each answer of ``oh_sat`` (the model's ranks, or the
    certificate with its clause ids) on 5,000 seeded random conjunctions.
    In 71 of the 460 refutations a fired clause sits after a partner-free
    one, so a change to the model, the event order or the clause numbering
    breaks the pin."""
    import hashlib

    rng = random.Random(18)
    h = hashlib.sha256()
    unsat = 0
    for _ in range(5000):
        n = rng.randint(2, 8)
        clauses, atoms = random_oh_conjunction(rng, n)
        res = oh_sat(OhConjunction(n, tuple(clauses), tuple(atoms)))
        if res:
            h.update(repr(("sat", res.model.ranks)).encode())
        else:
            unsat += 1
            h.update(repr(("unsat", res.certificate)).encode())
    assert unsat == 460
    assert h.hexdigest() == "da746d018224e318139c2c68d465c50ca2e1dc929323e13f8fe7ec3786fda10d"


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
    """oh_sat on seeded random graphs with duplicate edges and self-loops,
    given as <= atoms: variables share a level iff they reach each other, a
    variable's level is at most that of every variable it reaches, and the
    levels are 0, 1, ... with none skipped."""
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
        level = oh_sat(OhConjunction(n, (), tuple(Atom(a, "<=", b) for a, b in edges))).model.ranks
        assert sorted(set(level)) == list(range(len(set(level))))
        for v in range(n):
            for w in range(n):
                assert (level[v] == level[w]) == (w in reach[v] and v in reach[w])
                if w in reach[v]:
                    assert level[v] <= level[w]


def test_closure_matches_weak_order_brute_force():
    """oh_sat on the live conjunction of random clause sets (partner-free
    clauses as edges, entries retired the solver's way) with equality,
    strict and disequality atoms, against weak-order brute force; SAT
    answers must come with a model.  More than 900 answers are UNSAT and
    more than 500 entries are retired."""
    rng = random.Random(909)
    unsat = retired = 0
    for _ in range(1500):
        n = rng.randint(2, 5)
        cs = _random_clause_set(rng, n, ())
        retired += len(cs.pmasks) - sum(map(len, cs.by_pivot.values()))
        atoms = [
            Atom(rng.randrange(n), op, rng.randrange(n))
            for op in ("=", "<", "!=")
            for _ in range(rng.randint(0, 2))
        ]
        conj = live_conjunction(cs, atoms)
        res = oh_sat(conj)
        assert bool(res) == brute_sat(conj), conj
        if res:
            assert model_satisfies(conj, res.model), conj
        else:
            unsat += 1
            assert res.certificate
    assert unsat > 900
    assert retired > 500


def _random_clause_set(rng, n, order):
    """A ClauseSet over ``order`` of random clauses and edges, with retired
    entries made the way the solver makes them: a derived clause, then a
    unit on its pair."""
    from ordhorn.ohsat import ClauseSet

    cs = ClauseSet(n, order)
    for _ in range(rng.randint(0, 4)):
        pivot = rng.randrange(n)
        others = [v for v in range(n) if v != pivot]
        rng.shuffle(others)
        m = sum(1 << p for p in others[: rng.randint(1, min(2, len(others)))])
        target = rng.choice([-2, -1] + list(range(n)))
        if target == -2:
            target = rng.choice(others)
            cs.add(pivot, m, target, derived=True)
            cs.add(pivot, 0, target)
        else:
            cs.add(pivot, m, target)
    for _ in range(rng.randint(0, 3)):
        a, b = rng.randrange(n), rng.randrange(n)
        cs.add(b, 0, a)  # the edge a <= b
    return cs


def test_memo_probe_matches_plain_closure():
    """Probes answered from a base-fixpoint memo (x equated to a suffix of a
    variable order, one strict atom x < z) against oh_sat on the same
    conjunction: same answer and, when satisfiable, the same class
    partition.  Two probes share each fresh memo.  A probe whose base
    fixpoint is refuted leaves the memo empty and ends its certificate with
    the clause that emptied it.  More than 100 entries are retired."""
    from ordhorn.ohsat import probe

    rng = random.Random(909)
    unsat = base_refuted = retired = 0
    for _ in range(750):
        n = rng.randint(2, 6)
        cs = _random_clause_set(rng, n, rng.sample(range(n), rng.randint(0, n)))
        retired += len(cs.pmasks) - sum(map(len, cs.by_pivot.values()))
        for _ in range(2):
            x, z = rng.sample(range(n), 2)
            j = rng.randint(0, len(cs.order))
            was_empty = not cs.memo
            got = probe(cs, x, z, j)
            check_probe(cs, x, z, j, got)
            if got[0] is None:
                unsat += 1
                assert got[2]
            if was_empty and not cs.memo:
                base_refuted += 1
                assert got[2][-1][0] == "empty-clause", (cs.__dict__, x, z, j)
    assert unsat > 100
    assert base_refuted > 10
    assert retired > 100


def test_probe_output_pinned():
    """One SHA-256 over every ``probe`` 4-tuple (the grown class, the
    certificate and the ``fired`` ids in order) on 2,000 seeded clause sets,
    eight probes each, so that the memo's grown-class map answers some of
    them.  A change to an answer, an event order or the order of ``fired``
    breaks the pin."""
    import hashlib

    from ordhorn.ohsat import probe

    rng = random.Random(2121)
    h = hashlib.sha256()
    unsat = stored = fires = 0
    for _ in range(2000):
        n = rng.randint(2, 7)
        cs = _random_clause_set(rng, n, rng.sample(range(n), rng.randint(0, n)))
        for _ in range(8):
            x, z = rng.sample(range(n), 2)
            j = rng.randint(0, len(cs.order))
            stored += (x, j) in cs.memo.get("grown", ())
            got = probe(cs, x, z, j)
            unsat += got[0] is None
            fires += len(got[3] or ())
            h.update(repr(got).encode())
    assert (unsat, stored, fires) == (3803, 2954, 731)
    assert h.hexdigest() == "f2ff6c2a7358c3a563ba1d0acd2f1df3220fd961af8e8bf3e9d3d24d2b38a12b"


def _range_probe_cases(inst):
    """An M+ instance as the solver hands it to the oracle: a ClauseSet of
    its clauses over the universals in prefix order."""
    from ordhorn.ohsat import ClauseSet

    cs = ClauseSet(inst.n_vars, [v for v in range(inst.n_vars) if inst.quants[v] == "A"])
    for c in inst.matrix:
        cs.add(c.pivot, sum(1 << p for p in c.partners), c.target)
    return cs


def _sweep(cs, seen, new_id=None):
    """Memo probes (x, z, j) of the clause set ``cs`` against oh_sat,
    for every pair and each suffix start j that puts x or z at an
    end of order[j:] or just before it, so that z splits the suffix at its
    first, a middle and its last entry; ``seen`` counts where z and x sit
    relative to order[j:].  Returns how many probes fired clause ``new_id``."""
    from ordhorn.ohsat import probe

    fired_new = 0
    m = len(cs.order)
    at = cs.at
    for x in range(cs.n):
        for z in range(cs.n):
            if x == z:
                continue
            ends = {0, m, m - 1}
            for v in (x, z):
                if v in at:
                    ends |= {at[v], at[v] + 1}
            for j in sorted(e for e in ends if 0 <= e <= m):
                got = probe(cs, x, z, j)
                check_probe(cs, x, z, j, got)
                if got[0] is None:
                    fired = {e[1] for e in got[2] if e[0] == "fire"}
                else:
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
    """The memo probe starts from suffix ORs over the universals; when z lies
    in the suffix, it ORs the suffix after z with the entries before z.
    Probes of every pair of chains 1..9 (18 universals) and of seeded
    random instances, at the suffix starts ``_sweep`` picks, agree with
    oh_sat, also after ``ClauseSet.add`` takes a live clause with a
    new pivot, which keeps the memo."""
    from collections import Counter

    rng = random.Random(1600)
    instances = [parallel_chain(k) for k in range(1, 9)]
    instances += [random_mplus_instance(rng, max_vars=8, max_clauses=8) for _ in range(150)]
    instances.append(parallel_chain(9))  # 18 universals, spans past 16
    seen = Counter()
    live_fires = 0
    for inst in instances:
        n = inst.n_vars
        cs = _range_probe_cases(inst)
        _sweep(cs, seen)
        if not cs.memo:
            continue  # the base fixpoint refutes every probe
        # a clause on a new pivot that cannot fire in the base fixpoint
        fresh = [(p, m, t) for p in range(n) if p not in cs.by_pivot
                 for m in (1 << q for q in range(n) if q != p)
                 for t in range(n) if t != p and m & ~cs.memo["cls"][p]]
        if not fresh:
            continue
        p, m, t = rng.choice(fresh)
        new_id = len(cs.pmasks)
        cs.add(p, m, t)
        assert cs.memo, "a clause that cannot fire in the base keeps the memo"
        live_fires += _sweep(cs, seen, new_id)
    for where in ("z existential", "z before", "z first", "z middle", "z last",
                  "x inside", "x outside"):
        assert seen[where] > 100, (where, seen)
    assert live_fires > 100


def _shared_sweep(cs, rng, hits):
    """Memo probes (x, z, j) of ``cs`` with z outside order[j:], every such
    z of each (x, j) in a shuffled order, against oh_sat;
    ``hits`` counts the SAT and UNSAT answers whose (x, j) was in
    ``memo["grown"]``."""
    from ordhorn.ohsat import probe

    at = cs.at
    for x in range(cs.n):
        for j in range(len(cs.order) + 1):
            zs = [z for z in range(cs.n) if z != x and at.get(z, -1) < j]
            rng.shuffle(zs)
            for z in zs:
                stored = (x, j) in cs.memo.get("grown", ())
                got = probe(cs, x, z, j)
                check_probe(cs, x, z, j, got)
                if stored:
                    hits["unsat" if got[0] is None else "sat"] += 1


def test_memo_probe_shares_grown_class():
    """A probe whose z lies outside order[j:] stores its SAT fixpoint under
    (x, j) and answers every later such z from it.  Probes of chains 1..8
    and seeded random instances agree with oh_sat, also after
    ``ClauseSet.add`` takes a live clause that fires in a stored class."""
    from collections import Counter

    rng = random.Random(1800)
    instances = [parallel_chain(k) for k in range(1, 9)]
    instances += [random_mplus_instance(rng, max_vars=8, max_clauses=8) for _ in range(150)]
    hits, live = Counter(), Counter()
    for inst in instances:
        n = inst.n_vars
        cs = _range_probe_cases(inst)
        _shared_sweep(cs, rng, hits)
        if not cs.memo:
            continue  # the base fixpoint refutes every probe
        # a clause p != q | p >= t that fires in a stored class and puts a
        # z outside its range below it
        at, cls = cs.at, cs.memo["cls"]
        fresh = [(p, 1 << q, t) for (_, j), (c, downc, _) in cs.memo["grown"].items()
                 for p in range(n) if c >> p & 1
                 for q in range(n) if c >> q & 1 and not cls[p] >> q & 1
                 for t in range(n) if t != p and at.get(t, -1) < j and not downc >> t & 1]
        if not fresh:
            continue
        cs.add(*rng.choice(fresh))
        assert cs.memo, "a clause that cannot fire in the base keeps the memo"
        _shared_sweep(cs, rng, live)
    for counts in (hits, live):
        assert counts["sat"] > 100 and counts["unsat"] > 100, (hits, live)


def test_memo_fill_fires_base_clauses():
    """A clause that fires in the base fixpoint is part of the memo: the
    clause 2 != 3 | 2 >= 1 fires once the units make 2 and 3 one class,
    and with 2 <= 0 it puts 1 below 0, so the probe 0 < 1 is refuted."""
    from ordhorn.ohsat import ClauseSet, probe

    cs = ClauseSet(4, [])
    for clause in ((2, 1 << 3, 1), (3, 0, 2), (2, 0, 3), (0, 0, 2)):
        cs.add(*clause)
    assert list(cs.edges) == [(2, 3), (3, 2), (2, 0)]
    got = probe(cs, 0, 1, 0)
    check_probe(cs, 0, 1, 0, got)
    assert got[0] is None
    assert cs.memo, "the base fixpoint is satisfiable, so the probe fills the memo"


def test_clause_set_add_subsumption():
    """``ClauseSet.add`` on (pivot, target) pairs: a unit adds its edge and
    retires its pair's derived slot, a later derived clause on a unit's pair
    is dropped, a smaller derived partner set replaces its pair's slot in
    place, and a larger one is an error."""
    from ordhorn.ohsat import ClauseSet

    cs = ClauseSet(6, [])
    cs.add(0, 1 << 1, 2, derived=True)
    cs.add(0, 1 << 3, 4, derived=True)
    cs.add(0, 0, 2)
    assert list(cs.edges) == [(2, 0)]
    assert cs.by_pivot == {0: [1]}, "the unit retires slot 0"
    cs.add(0, 1 << 5, 2, derived=True)
    assert len(cs.pmasks) == 2 and cs.by_pivot == {0: [1]}, "the unit subsumes it"
    cs.add(1, 0b111000, 3, derived=True)
    cs.add(1, 0b101000, 3, derived=True)
    assert cs.pmasks == [1 << 1, 1 << 3, 0b101000] and cs.by_pivot[1] == [2]
    with pytest.raises(RuntimeError, match="derived partner sets must shrink"):
        cs.add(1, 0b100100, 3, derived=True)


def test_clause_set_add_keeps_memo_valid():
    """A clause that fires in its pivot's base class clears the memo; any
    other clause keeps it and empties ``memo["grown"]``; a unit clears it
    when its edge is new, and keeps both when the base fixpoint already
    implies the edge, though it still retires its pair's slot."""
    from ordhorn.ohsat import ClauseSet, probe

    cs = ClauseSet(4, [3])
    cs.add(0, 0, 1)
    cs.add(1, 0, 0)  # 0 and 1 share a base class
    assert probe(cs, 0, 2, 1)[0] is not None and cs.memo["grown"]
    cs.add(2, 1 << 3, 0)
    assert cs.memo and not cs.memo["grown"]
    assert probe(cs, 0, 2, 1)[0] is not None and cs.memo["grown"]
    cs.add(0, 1 << 1, 2)
    assert not cs.memo
    assert probe(cs, 0, 2, 1)[0] is None  # 0 != 1 | 0 >= 2 fired in the base
    assert probe(cs, 2, 3, 1)[0] is not None and cs.memo
    cs.add(3, 0, 2)
    assert not cs.memo

    cs = ClauseSet(5, [3])
    cs.add(0, 1 << 3, 2, derived=True)  # slot 0: 0 != 3 | 0 >= 2
    cs.add(1, 0, 2)
    cs.add(0, 0, 1)  # 2 <= 1 <= 0, so the base implies 2 <= 0
    assert probe(cs, 0, 4, 0)[3] == [0]
    grown = cs.memo["grown"]
    cs.add(0, 0, 2)
    assert cs.memo.get("grown") is grown and (0, 0) in grown
    assert cs.by_pivot[0] == [] and list(cs.edges)[-1] == (2, 0)
    for x, z, j in ((0, 4, 0), (4, 0, 0), (0, 3, 1), (3, 0, 0), (4, 2, 0), (0, 2, 0)):
        check_probe(cs, x, z, j, probe(cs, x, z, j))
    assert probe(cs, 0, 4, 0)[3] == [0], "the stored fired list names the retired slot"
    assert cs.memo.get("grown") is grown, "no probe refilled the memo"


def test_clause_set_add_rejects_falsity_clause():
    """``ClauseSet.add`` raises on a clause with neither partners nor a
    target, with the memo empty and with it live, and leaves the set as it
    was: the probe 0 < 2 is satisfiable, as oh_sat finds it."""
    from ordhorn.ohsat import ClauseSet, probe

    cs = ClauseSet(3, [1])
    for _ in range(2):
        with pytest.raises(ValueError, match="order disjunct"):
            cs.add(0, 0, -1)
        assert not cs.edges
        got = probe(cs, 0, 2, 0)
        check_probe(cs, 0, 2, 0, got)
        assert got[0] is not None and cs.memo
