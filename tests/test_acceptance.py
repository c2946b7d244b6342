"""The acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single PASS line (visible with -s or -rP); a failing
criterion fails its test.  Budgets are wall-clock upper bounds from the
criteria themselves.
"""

import itertools
import math
import random
import time

from ordhorn.classifier import (
    VERDICT_HARD,
    VERDICT_P,
    classify,
    gadget_relation,
    goh_syntactic,
    is_oh,
    is_preserved_by,
    mu_relation,
    pp_def_mplus,
    short_tool_gadget,
)
from ordhorn.formula import Atom, OhClause, QfFormula, normalize, parse_instance, print_instance
from ordhorn.game import brute_solve, play_against
from ordhorn.generators import (
    exhaustive_mplus_instances,
    parallel_chain,
    random_mplus_instance,
    random_oh_conjunction,
)
from ordhorn.ohsat import OhConjunction, oh_sat
from ordhorn.orders import eval_qf, relation_of
from ordhorn.proofsystem import ep_move, saturate, uncovered_facts
from ordhorn.reductions import Cnf3, reduce_3cnf_complement
from ordhorn.relations import TemporalRelation, catalogue
from ordhorn.solver import compile_to_mplus, solve

from conftest import RUNNING_EXAMPLE, brute_sat, model_satisfies


def report(criterion, budget, elapsed, detail):
    assert elapsed < budget, f"criterion {criterion} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"ACCEPTANCE criterion {criterion}: PASS ({elapsed:.1f}s) - {detail}")


def test_criterion_01_worked_example_regression():
    t0 = time.monotonic()
    inst = compile_to_mplus(normalize(parse_instance(RUNNING_EXAMPLE)))

    verdict = solve(inst)
    assert verdict.value is False
    keys = [ev.clause.key() for ev in verdict.log if not ev.duplicate]
    first = (0, (1,), 2)  # x1 = x2 implies x1 >= x3
    unit = (0, (), 3)  # x1 >= x4
    assert first in keys and unit in keys
    assert keys.index(first) < keys.index(unit)

    facts = saturate(inst)
    assert facts.status == "bottom"
    assert facts.has(0, 2, [1])  # P(x1, x3; {x2})
    assert facts.has(0, 3, [])  # P(x1, x4; {})
    report(1, 1.0, time.monotonic() - t0, "derivations and bottom chain exact")


def test_criterion_02_oracle_equivalence():
    t0 = time.monotonic()
    checked = 0
    for inst in exhaustive_mplus_instances(4, 3):
        assert solve(inst).value == brute_solve(inst).value, print_instance(inst)
        checked += 1
    rng = random.Random(20240)
    for _ in range(1000):
        inst = random_mplus_instance(rng, max_vars=7, max_clauses=7)
        assert solve(inst).value == brute_solve(inst).value, print_instance(inst)
    report(2, 600.0, time.monotonic() - t0, f"{checked} exhaustive + 1000 random, 0 disagreements")


def test_criterion_03_oh_sat_completeness():
    t0 = time.monotonic()
    # exhaustive family: every conjunction of at most three components
    # (pivoted clause or order atom) over three variables
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
    checked = 0
    for k in range(1, 4):
        for combo in itertools.combinations(components, k):
            clauses = tuple(c for kind, c in combo if kind == "c")
            atoms = tuple(a for kind, a in combo if kind == "a")
            conj = OhConjunction(3, clauses, atoms)
            res = oh_sat(conj)
            assert bool(res) == brute_sat(conj), conj
            if res:
                assert model_satisfies(conj, res.model), conj
            checked += 1
    assert checked == 30913  # 57 components, one to three of them

    rng = random.Random(30303)
    for _ in range(10_000):
        clauses, atoms = random_oh_conjunction(rng, 5)
        conj = OhConjunction(5, tuple(clauses), tuple(atoms))
        res = oh_sat(conj)
        assert bool(res) == brute_sat(conj), conj
        if res:
            assert model_satisfies(conj, res.model), conj
    report(3, 300.0, time.monotonic() - t0, f"{checked} exhaustive + 10000 random, 0 disagreements")


def _criterion_4_5_instances():
    rng = random.Random(4545)
    return [random_mplus_instance(rng, max_vars=6, max_clauses=5) for _ in range(200)]


def test_criterion_04_proof_system_coupling():
    t0 = time.monotonic()
    complete = bottom = 0
    for inst in _criterion_4_5_instances():
        facts = saturate(inst, cap=10**5)
        assert facts.status != "cap"
        if facts.status == "bottom":
            bottom += 1
            assert solve(inst).value is False, print_instance(inst)
        else:
            complete += 1
            verdict = solve(inst)
            missing = uncovered_facts(inst, facts, verdict)
            assert not missing, (print_instance(inst), missing)
    assert complete + bottom == 200
    report(4, 300.0, time.monotonic() - t0, f"{complete} covered, {bottom} bottom=>false, 0 exceptions")


def test_criterion_05_strategy_tournament():
    t0 = time.monotonic()
    played = 0
    for inst in _criterion_4_5_instances():
        facts = saturate(inst, cap=10**5)
        if facts.status != "complete":
            continue
        outcome = play_against(inst, lambda var, order: ep_move(inst, facts, order, var))
        assert outcome.win, print_instance(inst)
        played += 1
    assert played > 50
    report(5, 300.0, time.monotonic() - t0, f"{played} tournaments won, no undefined strategy")


def test_criterion_06_exponential_vs_polynomial():
    t0 = time.monotonic()
    for n in range(2, 9):
        inst = parallel_chain(n)
        facts = saturate(inst, cap=10**6)
        assert facts.status == "complete"
        assert len(facts.minimal[0, inst.n_vars - 1]) == 2**n

    sizes = [5, 10, 20, 30, 40]
    calls = []
    for n in sizes:
        inst = parallel_chain(n)
        verdict = solve(inst)
        v = inst.n_vars
        assert len(verdict.derived) <= v * v * (v + 1)
        calls.append(verdict.oracle_calls)
    xs = [math.log(n) for n in sizes]
    ys = [math.log(c) for c in calls]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum(
        (x - mean_x) ** 2 for x in xs
    )
    assert slope <= 3.5, f"oracle-call growth exponent {slope:.2f}"
    report(
        6,
        300.0,
        time.monotonic() - t0,
        f"minimal facts 2^n for n=2..8; call-count exponent {slope:.2f}",
    )


def _canonical_cnf(n, clauses):
    best = None
    for perm in itertools.permutations(range(1, n + 1)):
        for flips in itertools.product((1, -1), repeat=n):
            image = []
            for clause in clauses:
                lits = sorted(
                    int(math.copysign(perm[abs(l) - 1], l)) * flips[abs(l) - 1] for l in clause
                )
                image.append(tuple(lits))
            key = tuple(sorted(image))
            if best is None or key < best:
                best = key
    return best


def test_criterion_07_hardness_reduction_roundtrip():
    t0 = time.monotonic()
    checked = 0
    for n in (1, 2):
        literals = [v for v in range(1, n + 1)] + [-v for v in range(1, n + 1)]
        clause_pool = sorted(
            {tuple(sorted(c)) for c in itertools.product(literals, repeat=3)}
        )
        for m in (1, 2):
            seen = set()
            for combo in itertools.combinations_with_replacement(clause_pool, m):
                key = _canonical_cnf(n, combo)
                if key in seen:
                    continue
                seen.add(key)
                cnf = Cnf3(n, tuple(combo))
                inst = reduce_3cnf_complement(cnf)
                expected = not cnf.truth_table_sat()
                got = brute_solve(inst)  # a resource error here fails the criterion
                assert got.value is expected, (cnf, print_instance(inst))
                checked += 1
    report(7, 900.0, time.monotonic() - t0, f"{checked} canonical 3-CNFs, 0 disagreements")


def test_criterion_08_classifier_ground_truths():
    t0 = time.monotonic()
    mplus, mminus = catalogue("M+"), catalogue("M-")
    assert is_preserved_by(mplus, "pp") and is_oh(mplus)
    assert is_preserved_by(mminus, "dual_pp") and is_oh(mminus)
    for name in ("SM", "D"):
        r = catalogue(name)
        for op in ("pp", "dual_pp"):
            res = is_preserved_by(r, op)
            assert not res, (name, op)
            t1, t2 = res.witness
            from ordhorn.orders import apply_op

            assert eval_qf(r.defn, t1) and eval_qf(r.defn, t2)
            assert not eval_qf(r.defn, apply_op(op, t1, t2))
    le = TemporalRelation(2, QfFormula(2, ((Atom(0, "<=", 1),),)), "LE")
    assert goh_syntactic(le.defn)

    assert classify([mplus]).verdict == VERDICT_P
    assert classify([mminus]).verdict == VERDICT_P
    assert classify([le]).verdict == VERDICT_P
    assert classify([mplus, catalogue("SM")]).verdict == VERDICT_HARD
    report(8, 60.0, time.monotonic() - t0, "flags, witnesses, and verdicts exact")


def test_criterion_09_pp_definition_ladder():
    t0 = time.monotonic()
    for k in (1, 2, 3, 4):
        assert gadget_relation(pp_def_mplus(k)) == mu_relation(k), k
    report(9, 120.0, time.monotonic() - t0, "projections equal the target relations for k=1..4")


def test_criterion_10_gadget_validation():
    t0 = time.monotonic()
    le = short_tool_gadget(1, which="le")
    assert gadget_relation(le) == relation_of(QfFormula(2, ((Atom(0, "<=", 1),),)))
    ne = short_tool_gadget(1, which="ne")
    assert gadget_relation(ne) == relation_of(QfFormula(2, ((Atom(0, "!=", 1),),)))

    gsn = relation_of(catalogue("GSN").defn)
    dis = relation_of(catalogue("NEQ2").defn)
    out3 = gadget_relation(short_tool_gadget(3, [catalogue("lrGSM<")]))
    assert gsn <= out3 <= dis
    out4 = gadget_relation(short_tool_gadget(4, [catalogue("GVM<-")]))
    assert gsn <= out4 <= dis
    out5 = gadget_relation(short_tool_gadget(5, [catalogue("GSN")]))
    assert out5 == relation_of(catalogue("Z").defn)
    report(10, 120.0, time.monotonic() - t0, "items 1, 3, 4, 5 pass their conclusion checks")
