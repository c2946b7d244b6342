"""Algorithm-level tests for the clause-deriving solver and the compiler."""

import json
import random

import pytest

from ordhorn.formula import OhClause, QcspInstance, normalize, parse_instance, print_instance
from ordhorn.game import brute_solve
from ordhorn.generators import parallel_chain, random_mplus_instance
from ordhorn.solver import DialectError, compile_to_mplus, cut_set, solve, up_set

from conftest import check_probe, make_general, make_instance, peak_bytes


@pytest.fixture
def running_oh(running_example):
    return normalize(running_example)


def test_up_set_examples(running_oh):
    # prefix: exists x1 forall x2 exists x3 forall x4 exists x5
    assert up_set(running_oh, 1) == {1, 3}
    assert up_set(running_oh, 4) == set()  # last variable, existential
    assert up_set(running_oh, 0) == {1, 3}  # all universals


def test_cut_set_examples(running_oh):
    assert 3 in cut_set(running_oh, 0, 2)  # x4 in cut(x1, x3)
    assert 1 in cut_set(running_oh, 0, 3)  # x2 in cut(x1, x4)
    assert cut_set(running_oh, 0, 3) == {1}
    # both variables universal: the precedence condition is vacuous
    assert cut_set(running_oh, 1, 3) == {1}
    assert cut_set(running_oh, 3, 1) == {3}


def test_solve_running_example(running_oh):
    verdict = solve(compile_to_mplus(running_oh))
    assert verdict.value is False
    derived = [c.key() for c in verdict.derived]
    first = (0, (1,), 2)  # x1 = x2 implies x1 >= x3
    unit = (0, (), 3)  # x1 >= x4
    assert first in derived and unit in derived
    assert derived.index(first) < derived.index(unit)
    assert verdict.rejecting_clause.key() == unit
    assert verdict.rejecting_pair == (0, 3)


def test_solve_tautological_unit_true():
    inst = normalize(parse_instance("qcsp v1\nE x\nC M+ x x x\n"))
    assert solve(inst).value is True


def test_solve_universal_upper_bound_false():
    inst = normalize(parse_instance("qcsp v1\nE x\nA y\nC M+ y y x\n"))
    verdict = solve(inst)
    assert verdict.value is False
    # the matrix unit y >= x already rejects: nothing needs deriving
    assert verdict.derived == []


def test_solve_empty_matrix_true():
    inst = make_instance("EAE", [])
    assert solve(inst).value is True


def test_solve_dialect_errors():
    with pytest.raises(DialectError):
        solve(make_instance("EEE", [(0, [1, 2], None)]))
    with pytest.raises(DialectError):
        solve(make_instance("E", [(0, [], None)]))
    with pytest.raises(DialectError):
        solve(make_general("EE", [[(0, "!=", 1)]]))
    with pytest.raises(DialectError, match="lacks an order disjunct"):
        solve(make_instance("EE", [(0, [1], None)]))


@pytest.mark.parametrize("quants", ["EE", "EA", "AE", "AA"])
def test_pivot_listed_among_partners(quants):
    # x != x | x >= y is the unit x >= y: the pivot is no partner
    for pivot in (0, 1):
        inst = make_instance(quants, [(pivot, [pivot], 1 - pivot)])
        assert inst.matrix[0] == OhClause(pivot, frozenset(), 1 - pivot)
        assert solve(inst).value == brute_solve(inst).value, (quants, pivot)


def test_verdict_json_shape(running_oh):
    verdict = solve(compile_to_mplus(running_oh))
    blob = json.loads(json.dumps(verdict.to_json_dict()))
    assert blob["verdict"] is False
    assert blob["rejecting_clause"] == "x1 >= x4"
    assert blob["oracle_calls"] > 0
    assert "x1 != x2 | x1 >= x3" in blob["derived"]


def test_solve_agrees_with_game_oracle_random():
    rng = random.Random(424242)
    for _ in range(400):
        inst = random_mplus_instance(rng, max_vars=6, max_clauses=6)
        assert solve(inst).value == brute_solve(inst).value, print_instance(inst)


def test_derived_clauses_are_entailed():
    # inserting any single derived clause leaves the game verdict unchanged
    rng = random.Random(515151)
    checked = 0
    for _ in range(60):
        inst = random_mplus_instance(rng, max_vars=5, max_clauses=4)
        verdict = solve(inst)
        truth = brute_solve(inst).value
        for c in verdict.derived[:4]:
            expanded = inst.__class__(inst.names, inst.quants, inst.matrix + (c,))
            assert brute_solve(expanded).value == truth
            checked += 1
    assert checked > 40


def test_clause_count_bound():
    for n in (3, 5, 7):
        inst = parallel_chain(n)
        verdict = solve(inst)
        v = inst.n_vars
        assert len(verdict.derived) <= v * v * (v + 1)


def test_log_is_replayable(running_oh):
    """Re-running the oracle test of each fresh derivation reproduces it."""
    from ordhorn.ohsat import OhConjunction, _bits, oh_sat
    from ordhorn.formula import Atom
    from ordhorn.solver import _upset_masks

    compiled = compile_to_mplus(running_oh)
    verdict = solve(compiled)
    ups = _upset_masks(compiled.quants)
    clause_set = list(compiled.matrix)
    for ev in verdict.log:
        conj_atoms = [
            Atom(ev.x, "=", v)
            for v in _bits(ups[ev.u] & ~(1 << ev.x) & ~(1 << ev.z))
        ]
        conj = OhConjunction(
            compiled.n_vars, tuple(clause_set), tuple(conj_atoms + [Atom(ev.x, "<", ev.z)])
        )
        assert not oh_sat(conj), ev
        if not ev.duplicate:
            clause_set.append(ev.clause)


def test_log_events_hold_only_ints_and_bools():
    verdict = solve(parallel_chain(4))
    assert verdict.log
    for ev in verdict.log:
        assert isinstance(ev, tuple)
        for name, value in zip(ev._fields, ev):
            assert type(value) in (int, bool), name


def test_solve_memory_stays_small():
    verdicts = []
    peak = peak_bytes(lambda: verdicts.append(solve(parallel_chain(20))))
    verdict = verdicts[0]
    # one record per binary search; the events are built only when read
    assert len(verdict.runs) == 420
    assert "log" not in vars(verdict)
    # 11,690 log events: a frozenset of partners per event would take 19 MB
    assert peak < 10 * 2**20
    # a set of every clause next to the log, and eager clause keys, took 5.3 MB
    assert peak < 3 * 2**20
    # a tuple per log event on the solve path took 1.87 MiB
    assert peak < 2**20


def test_duplicate_flag_and_clause_keys_follow_their_definition():
    """An event is a duplicate iff its clause is an input or was derived by
    an earlier event, and clause_keys holds exactly the input and derived
    clauses."""
    rng = random.Random(1111)
    instances = [random_mplus_instance(rng, max_vars=7, max_clauses=8) for _ in range(300)]
    for inst in instances + [parallel_chain(k) for k in range(1, 9)]:
        verdict = solve(inst)
        seen = {c.key() for c in inst.matrix}
        for ev in verdict.log:
            key = ev.clause.key()
            assert ev.duplicate == (key in seen), print_instance(inst)
            seen.add(key)
        assert verdict.clause_keys == seen, print_instance(inst)


# --- compile_to_mplus ---------------------------------------------------------


def test_compile_single_partner_is_identity():
    inst = make_instance("EEE", [(0, [1], 2)])
    out = compile_to_mplus(inst)
    assert out.matrix == inst.matrix
    assert out.names == inst.names


def test_compile_two_partners_unfolds():
    # (x != y1 | x != y2 | x >= z) becomes the three-triple chain through h
    inst = make_instance("EEEE", [(0, [1, 2], 3)], names=["x", "y1", "y2", "z"])
    out = compile_to_mplus(inst)
    assert out.names[:4] == ("x", "y1", "y2", "z")
    assert len(out.names) == 5
    h = 4
    assert out.quants[h] == "E"
    assert set(c.key() for c in out.matrix) == {
        (0, (1,), h),  # M+(x, y1, h)
        (h, (), 0),  # M+(h, h, x): h >= x
        (h, (2,), 3),  # M+(h, y2, z)
    }


def test_compile_targetless_appends_universal():
    inst = make_instance("EE", [(0, [1], None)])
    out = compile_to_mplus(inst)
    assert out.quants == ("E", "E", "A")
    assert out.matrix == (OhClause(0, frozenset([1]), 2),)


def test_compile_bottom_clause_rejects():
    inst = normalize(make_general("E", [[(0, "!=", 0)]]))
    out = compile_to_mplus(inst)
    assert out.quants == ("E", "A")
    assert solve(out).value is False
    assert brute_solve(out).value is False


def test_compile_preserves_verdict_on_random_embeddings():
    # clauses with >= 2 partners embedded into random instances
    rng = random.Random(616161)
    for _ in range(50):
        inst = random_mplus_instance(rng, max_vars=5, max_clauses=3)
        n = inst.n_vars
        if n < 3:
            continue
        vs = rng.sample(range(n), 3)
        extra = OhClause(vs[0], frozenset(vs[1:]), None)
        if rng.random() < 0.5 and n >= 4:
            vs = rng.sample(range(n), 4)
            extra = OhClause(vs[0], frozenset(vs[1:3]), vs[3])
        host = inst.__class__(inst.names, inst.quants, inst.matrix + (extra,))
        compiled = compile_to_mplus(host)
        assert brute_solve(compiled).value == brute_solve(host).value, print_instance(host)
        assert solve(compiled).value == brute_solve(host).value


def test_compile_fresh_blocks_in_clause_order():
    inst = make_instance("EEEEE", [(0, [1, 2], 3), (1, [2, 3], None)])
    out = compile_to_mplus(inst)
    assert out.quants[5:] == ("E", "A", "E")  # h for clause 0, then z1 and h for clause 1


def test_compile_renames_fresh_variables_on_a_clash():
    inst = make_instance("EEEE", [(0, [1, 2], None)], names=["x", "_z0", "_h0_2", "_h0_2_1"])
    out = compile_to_mplus(inst)
    assert out.names[4:] == ("_z0_1", "_h0_2_2")
    assert out.quants[4:] == ("A", "E")


def test_compile_output_pinned():
    """One SHA-256 over the three places that build the M+ chain or
    instantiate a named relation: ``print_instance(compile_to_mplus(...))``
    on 3,000 seeded instances (``random_oh_conjunction`` clauses, some
    without a target, under a random prefix; every other one with its order
    atoms added, so it is normalized first; some with a variable named like
    a fresh one), ``parse_instance`` of one ``C NAME args`` line for every
    catalogue name and NAE3-5 (arguments in order and reversed), and
    ``repr`` of ``pp_def_mplus(1..5)`` and of the toolbox's item 1."""
    import hashlib

    from ordhorn.classifier import pp_def_mplus, short_tool_gadget
    from ordhorn.generators import random_oh_conjunction
    from ordhorn.relations import arity_of, names

    rng = random.Random(2323)
    clashes = ["_h0_2", "_h1_2", "_h0_3", "_z0", "_z1", "_h0_2_1"]
    h = hashlib.sha256()
    fresh = renamed = 0
    for i in range(3000):
        n = rng.randint(2, 7)
        clauses, atoms = random_oh_conjunction(rng, n, max_clauses=5)
        var_names = [rng.choice(clashes) if rng.random() < 0.1 else f"v{j}" for j in range(n)]
        var_names = [v if var_names.index(v) == j else f"v{j}" for j, v in enumerate(var_names)]
        matrix = tuple(clauses) + (tuple((a,) for a in atoms) if i % 2 else ())
        inst = QcspInstance(tuple(var_names), tuple(rng.choice("EA") for _ in range(n)), matrix)
        out = compile_to_mplus(inst)
        fresh += out.n_vars - n
        renamed += sum(v.rsplit("_", 1)[0] in var_names for v in out.names[n:])
        h.update(print_instance(out).encode())
    relations = names() + ["NAE3", "NAE4", "NAE5"]
    for name in relations:
        args = [f"v{j}" for j in range(arity_of(name))]
        for order in (args, args[::-1]):
            text = "qcsp v1\n" + "".join(f"E {v}\n" for v in args) + f"C {name} {' '.join(order)}\n"
            h.update(repr(parse_instance(text)).encode())
    for k in range(1, 6):
        h.update(repr(pp_def_mplus(k)).encode())
    for which in ("le", "ne", "lt"):
        h.update(repr(short_tool_gadget(1, which=which)).encode())
    assert (len(relations), fresh, renamed) == (22, 6339, 240)
    assert h.hexdigest() == "4d0c9d769b62b379611d1daeee278458aa4e34d8df05e680aef29f6f9882c5d7"


# --- differential check against a strict reference scan ------------------------


def _reference_solve(inst):
    """Plain transcription of the derivation loop: lexicographic (x, z, u)
    triples, rejection first, a fresh full oracle call per triple, no
    up-set deduplication and no search shortcuts.  Returns (verdict,
    clause-key set) with the key set meaningful on true instances only."""
    from ordhorn.ohsat import OhConjunction, _bits, oh_sat
    from ordhorn.formula import Atom
    from ordhorn.solver import _upset_masks, cut_set

    n = inst.n_vars
    quants = inst.quants
    ups = _upset_masks(quants)
    clauses = {c.key(): c for c in inst.matrix}

    def unit_present(x, z):
        return (x, (), z) in clauses or (z, (), x) in clauses

    changed = True
    while changed:
        changed = False
        for x in range(n):
            for z in range(n):
                if x == z:
                    continue
                for u in range(n):
                    if x < z and quants[z] == "A" and unit_present(x, z):
                        return False, None
                    eqs = [
                        Atom(x, "=", v)
                        for v in _bits(ups[u] & ~(1 << x) & ~(1 << z))
                    ]
                    conj = OhConjunction(
                        n, tuple(clauses.values()), tuple(eqs + [Atom(x, "<", z)])
                    )
                    if not oh_sat(conj):
                        cm = 0
                        for w in cut_set(inst, x, z):
                            cm |= 1 << w
                        partners = frozenset(
                            _bits(ups[u] & ~(1 << x) & ~(1 << z) & ~cm)
                        )
                        c = OhClause(x, partners, z)
                        if c.key() not in clauses:
                            clauses[c.key()] = c
                            changed = True
    return True, frozenset(clauses)


def test_solve_matches_strict_reference():
    rng = random.Random(717171)
    fixpoints = 0
    for _ in range(120):
        inst = random_mplus_instance(rng, max_vars=5, max_clauses=4)
        ref_value, ref_keys = _reference_solve(inst)
        verdict = solve(inst)
        assert verdict.value == ref_value, print_instance(inst)
        if ref_value:
            assert verdict.clause_keys == ref_keys, print_instance(inst)
            fixpoints += 1
    assert fixpoints > 30


def test_solve_empty_instance():
    from ordhorn.formula import QcspInstance

    verdict = solve(QcspInstance((), (), ()))
    assert verdict.value is True


def test_each_probe_is_one_closure_call(monkeypatch):
    """Each solver probe is one call of the probe the solver imports (as
    ``closure``), and its answer from the base-fixpoint memo is oh_sat's on
    the same conjunction, with the same class partition when satisfiable."""
    import ordhorn.solver as solver_module
    from ordhorn.ohsat import probe

    calls = []

    def checked(cs, x, z, j):
        got = probe(cs, x, z, j)
        check_probe(cs, x, z, j, got)
        calls.append((x, z))
        return got

    monkeypatch.setattr(solver_module, "closure", checked)
    rng = random.Random(4242)
    instances = [random_mplus_instance(rng, max_vars=9, max_clauses=10) for _ in range(300)]
    instances += [parallel_chain(k) for k in range(1, 9)]
    for inst in instances:
        calls.clear()
        assert solve(inst).oracle_calls == len(calls)
    calls.clear()
    assert solve(parallel_chain(10)).oracle_calls == len(calls) == 2210


# Metamorphic checks past the game oracle's reach: instances with 100+
# variables, which only solve itself decides.

# perfbench solve-sparse's clause forms on four distinct variables (x, y, y2, z)
_SPARSE_FORMS = (
    lambda x, y, y2, z: [(x, "!=", y), (x, ">=", z)],
    lambda x, y, y2, z: [(x, "!=", y), (x, ">=", z)],
    lambda x, y, y2, z: [(x, "!=", y), (x, ">", z)],
    lambda x, y, y2, z: [(x, "!=", y), (x, "!=", y2), (x, ">=", z)],
    lambda x, y, y2, z: [(x, "!=", y), (x, "!=", y2)],
    lambda x, y, y2, z: [(x, "<=", z)],
)


def _sparse_sentence(rng, values):
    """Variable-disjoint E E A E E components, one per entry of ``values``
    with that game verdict, joined under one E/A/E prefix and compiled to M+.
    A conjunction of variable-disjoint sentences is true iff every part is."""
    k = len(values)
    clauses = []
    for c, value in enumerate(values):
        while True:
            comp = [form(*rng.sample(range(5), 4)) for form in _SPARSE_FORMS]
            if brute_solve(make_general("EEAEE", comp)).value == value:
                break
        slot = (2 * c, 2 * c + 1, 2 * k + c, 3 * k + 2 * c, 3 * k + 2 * c + 1)
        clauses += [[(slot[a], op, slot[b]) for a, op, b in clause] for clause in comp]
    return compile_to_mplus(make_general("E" * 2 * k + "A" * k + "E" * 2 * k, clauses))


def _blocks(quants):
    """The quantifier blocks, as lists of consecutive prefix positions."""
    out, start = [], 0
    for i in range(1, len(quants) + 1):
        if i == len(quants) or quants[i] != quants[start]:
            out.append(list(range(start, i)))
            start = i
    return out


def _block_shuffled(rng, inst):
    """inst under one random permutation within each quantifier block, with
    fresh names and the clause order shuffled; also the position map."""
    order = [v for block in _blocks(inst.quants) for v in rng.sample(block, len(block))]
    pos = {old: new for new, old in enumerate(order)}
    matrix = [OhClause(pos[c.pivot], frozenset(pos[p] for p in c.partners), pos[c.target])
              for c in inst.matrix]
    rng.shuffle(matrix)
    names = tuple(f"v{i}" for i in rng.sample(range(10 * inst.n_vars), inst.n_vars))
    return QcspInstance(names, tuple(inst.quants[v] for v in order), tuple(matrix)), pos


def _whole_block_keys(keys, quants):
    """The clause keys whose partners meet each universal block in none or
    all of its variables other than the pivot and the target.  A derived
    partner set is the universals from some prefix position on, so one cut
    inside a block names different variables once the block is shuffled."""
    universal = [sum(1 << v for v in b) for b in _blocks(quants) if quants[b[0]] == "A"]
    existential = ~sum(universal)
    out = set()
    for x, ps, z in keys:
        m = sum(1 << p for p in ps)
        whole = m & existential
        for b in universal:
            if m & b:
                whole |= b
        if whole & ~(1 << x | 1 << z) == m:
            out.add((x, ps, z))
    return out


@pytest.mark.parametrize("family", ["chain", "false-chain", "sparse", "false-sparse"])
def test_block_shuffles_keep_verdict_and_clauses(family):
    rng = random.Random(f"block-shuffle/{family}")
    expected = not family.startswith("false")
    if family.endswith("chain"):
        inst = parallel_chain(33)
        if not expected:  # y1_0 >= c1 fails once y1_0 is played below c0
            inst = QcspInstance(inst.names, inst.quants, inst.matrix + (OhClause(1, frozenset(), 3),))
    else:
        inst = _sparse_sentence(rng, [True] * 10 + [expected])
    assert inst.n_vars >= 100
    shuffled, pos = _block_shuffled(rng, inst)
    verdict, again = solve(inst), solve(shuffled)
    assert verdict.value == again.value == expected
    if expected:  # a false run stops at its first rejection, which order decides
        mapped = {
            (pos[x], tuple(sorted(pos[p] for p in ps)), pos[z])
            for x, ps, z in _whole_block_keys(verdict.clause_keys, inst.quants)
        }
        assert mapped == _whole_block_keys(again.clause_keys, shuffled.quants)
        inputs = {(pos[x], tuple(sorted(pos[p] for p in ps)), pos[z])
                  for x, ps, z in (c.key() for c in inst.matrix)}
        assert mapped - inputs  # some derived whole-block key went through the map


def test_derived_clauses_as_inputs_keep_verdict_and_clauses():
    """Adding derived clauses to the input leaves the fixpoint alone: a true
    100-variable chain re-solved with a seeded sample of its derived unit
    and single-partner clauses in the matrix keeps its verdict and its
    final clause set."""
    inst = parallel_chain(33)
    assert inst.n_vars >= 100
    verdict = solve(inst)
    rng = random.Random("derived-as-input")
    units = [c for c in verdict.derived if not c.partners]
    singles = [c for c in verdict.derived if len(c.partners) == 1]
    extra = rng.sample(units, 60) + rng.sample(singles, 60)
    again = solve(QcspInstance(inst.names, inst.quants, inst.matrix + tuple(extra)))
    assert verdict.value is again.value is True
    assert again.clause_keys == verdict.clause_keys


def test_solve_output_pinned():
    """One SHA-256 over every observable field of ``solve`` (verdict, sorted
    clause keys, oracle calls, passes, the rejecting pair and clause, and
    every log event) on the exhaustive 4-variable two-clause family, 300
    seeded random instances and parallel chains 1..12.  A change to the
    solver or its oracle that alters any of them breaks the pin."""
    import hashlib

    from ordhorn.generators import exhaustive_mplus_instances

    rng = random.Random(2024)
    instances = list(exhaustive_mplus_instances(4, 2))
    instances += [random_mplus_instance(rng, max_vars=9, max_clauses=10) for _ in range(300)]
    instances += [parallel_chain(k) for k in range(1, 13)]
    h = hashlib.sha256()
    for inst in instances:
        v = solve(inst)
        rejecting = v.rejecting_clause.key() if v.rejecting_clause else None
        h.update(repr((v.value, sorted(v.clause_keys), v.oracle_calls, v.passes,
                       v.rejecting_pair, rejecting)).encode())
        for e in v.log:
            h.update(repr((e.pass_no, e.x, e.z, e.u, e.partners, e.duplicate)).encode())
    assert len(instances) == 4702 + 300 + 12
    assert h.hexdigest() == "10da878de017b4e9b922245359c015d76f0a9efd9f85f94cc1eccfd0d76431d7"
