"""Seeded input families for the four benchmark workloads.

``build(workload, rng, outdir, fixtures_dir)`` writes instance / relation /
CNF files into ``outdir`` and returns a list of operations.  An operation is one or
more ``ordhorn`` command lines run back to back plus the outcome its last
command must print.  Every expectation comes from a different code path
than the command it checks:

- ``solve`` on a parallel chain: true by construction;
- ``solve`` on a sparse instance: AND of the game oracle on its
  variable-disjoint components (a conjunction of variable-disjoint
  sentences under one prefix splits into its parts);
- ``solve`` / ``brute`` on small instances: the *other* engine, called
  through the library at generation time;
- a complement-of-SAT gadget: ``not Cnf3.truth_table_sat()``;
- ``derive`` / ``verify-strategy`` on true instances: "no bottom" / "win";
- ``classify``: verdicts pinned in the test suite, flags that hold by
  construction, and the implications shape => semantics.

The multiset of sizes is the same for every seed; the seed picks the
instances, their variable names and the order of prefix blocks and clauses.
Nothing here is timed.
"""

from __future__ import annotations

import itertools
import os

from ordhorn.formula import Atom, QcspInstance
from ordhorn.game import ResourceLimitError, brute_solve
from ordhorn.generators import mplus_clause_universe, parallel_chain
from ordhorn.reductions import Cnf3
from ordhorn.relations import catalogue, names as catalogue_names
from ordhorn.solver import compile_to_mplus, solve

# chain lengths per solve-chain round, 0.04-0.25 s per instance; an odd
# number of equally frequent lengths puts the median and the 90th percentile
# inside one length's samples rather than on the step between two
CHAIN_KS = (4, 5, 6, 7, 8) * 2
# solve-sparse: every instance joins SPARSE_COMPONENTS components with the
# same prefix and clause forms, so the seed changes structure but not size;
# 36 of 96 instances get one false component (fast rejections), which keeps
# the median inside the true instances' times
SPARSE_COMPONENTS = 3
SPARSE_COMPONENT = ("E", "E", "A", "E", "E")
SPARSE_FORMS = ("mplus", "mplus", "strict", "two", "diseq", "le")
SPARSE_VALUES = (True,) * 60 + (False,) * 36
# oracle-small: per (variables, dialect, verdict) ORACLE_REPS instances, each
# decided by both engines; true gadgets (about 0.2 s each) make up a sixth of
# the operations, so the 90th percentile falls inside their times
ORACLE_VARS = (6, 7, 8, 9)
ORACLE_REPS = 3
# clause forms of a general-dialect instance on n variables: the first n - 1,
# so that n fixes how many fresh variables compiling adds
GENERAL_FORMS = ("mplus", "strict", "two", "lt", "eq", "diseq", "mplus", "two-strict")
# 2-variable 3-CNFs.  All four 2-clauses make one unsatisfiable (a true
# gadget); the game search's size depends on their order, so every round
# has each of the 24 orders once, with seeded padding to three literals.
GADGET_SAT = 4
# the game oracle's search is capped so no small instance dominates a round
ORACLE_NODE_CAP = 4000
# (arity, shape, count) of seeded random relations per classify round;
# arity 4 costs 0.05-0.4 s per relation, arity 3 about 25 ms.  The seven
# fixed commands costing 0.65-1.6 s are a seventh of the 51, so the 90th
# percentile falls among their times.
CLASSIFY_RANDOM = (
    (3, "pp", 8), (3, "dual", 8), (3, "nonoh", 7), (4, "pp", 1), (4, "dual", 1), (4, "nonoh", 1)
)

# verdicts pinned by tests/test_acceptance.py and tests/test_classifier.py
PINNED_CLASSIFY = {
    "M+": {"pp_preserved": True, "oh_semantic": True, "ppsynt_shape": True, "verdict": "P"},
    "M-": {"dual_pp_preserved": True, "oh_semantic": True, "verdict": "P"},
    "SM": {"pp_preserved": False, "dual_pp_preserved": False, "ppsynt_shape": False},
    "D": {"pp_preserved": False, "dual_pp_preserved": False, "oh_semantic": True},
    "NAE3": {"ppsynt_shape": True},
    "LE": {"goh_syntactic": True, "verdict": "P"},
    "M+,SM": {"verdict": "coNP-hard-unless-GOH-definable"},
}


def instance_text(names, quants, clauses) -> str:
    lines = ["qcsp v1"]
    lines += [f"{q} {nm}" for nm, q in zip(names, quants)]
    lines += ["C " + " | ".join(a.text(names) for a in c) for c in clauses]
    return "\n".join(lines) + "\n"


def relation_text(name, arity, clauses) -> str:
    xs = tuple(f"x{i + 1}" for i in range(arity))
    lines = ["rel v1", f"name {name}", f"arity {arity}"]
    lines += ["C " + " | ".join(a.text(xs) for a in c) for c in clauses]
    return "\n".join(lines) + "\n"


def _write(outdir, fname, text) -> str:
    path = os.path.join(outdir, fname)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _op(argvs, expect, n_vars):
    return {"argvs": argvs, "expect": expect, "n_vars": n_vars}


def _shuffled(rng, names, quants, clauses):
    """Rename variables, shuffle each quantifier block and the clause order.

    Permuting adjacent equal quantifiers keeps the sentence equivalent."""
    order = list(range(len(names)))
    start = 0
    for i in range(1, len(quants) + 1):
        if i == len(quants) or quants[i] != quants[start]:
            block = order[start:i]
            rng.shuffle(block)
            order[start:i] = block
            start = i
    pos = {old: new for new, old in enumerate(order)}
    labels = rng.sample(range(10 * len(names) + 10), len(names))
    new_names = tuple(f"v{labels[i]}" for i in range(len(names)))
    new_quants = tuple(quants[old] for old in order)
    new_clauses = [tuple(Atom(pos[a.left], a.op, pos[a.right]) for a in c) for c in clauses]
    rng.shuffle(new_clauses)
    return new_names, new_quants, new_clauses


# ---------------------------------------------------------------------------
# solve-chain


def build_solve_chain(rng, outdir):
    ops = []
    ks = list(CHAIN_KS)
    rng.shuffle(ks)
    for i, k in enumerate(ks):
        inst = parallel_chain(k)
        names, quants, clauses = _shuffled(rng, inst.names, inst.quants, inst.general_matrix())
        path = _write(outdir, f"chain{i}-k{k}.qcsp", instance_text(names, quants, clauses))
        ops.append(_op([["solve", path]], "true", len(names)))
    return ops


# ---------------------------------------------------------------------------
# general-dialect random components (solve-sparse, oracle-small)


def _clause_of_form(form, x, y, y2, z):
    return {
        "mplus": (Atom(x, "!=", y), Atom(x, ">=", z)),
        "strict": (Atom(x, "!=", y), Atom(x, ">", z)),
        "two": (Atom(x, "!=", y), Atom(x, "!=", y2), Atom(x, ">=", z)),
        "two-strict": (Atom(x, "!=", y), Atom(x, "!=", y2), Atom(x, ">", z)),
        "diseq": (Atom(x, "!=", y), Atom(x, "!=", y2)),
        "le": (Atom(x, "<=", z),),
        "lt": (Atom(x, "<", z),),
        "eq": (Atom(x, "=", z),),
    }[form]


def random_component(rng, quants, forms):
    """General-dialect sentence under `quants` with one pivoted clause per
    entry of `forms`, each on randomly chosen distinct variables."""
    vs = range(len(quants))
    return tuple(quants), [_clause_of_form(f, *rng.sample(vs, 4)) for f in forms]


def _game(quants, clauses, max_nodes=None):
    names = tuple(f"x{i}" for i in range(len(quants)))
    inst = QcspInstance(names, tuple(quants), tuple(tuple(c) for c in clauses))
    if max_nodes is None:
        return brute_solve(inst)
    return brute_solve(inst, max_nodes=max_nodes)


def _sparse_instance(rng, comps):
    """Interleave variable-disjoint E/A/E components under one E/A/E prefix."""
    blocks = {0: [], 1: [], 2: []}
    clauses = []
    offset = 0
    for quants, cl in comps:
        for i, q in enumerate(quants):
            blk = 0 if q == "E" and (i == 0 or "A" not in quants[:i]) else (1 if q == "A" else 2)
            blocks[blk].append(offset + i)
        clauses += [tuple(Atom(a.left + offset, a.op, a.right + offset) for a in c) for c in cl]
        offset += len(quants)
    order = blocks[0] + blocks[1] + blocks[2]
    pos = {old: new for new, old in enumerate(order)}
    quants = ["E"] * len(blocks[0]) + ["A"] * len(blocks[1]) + ["E"] * len(blocks[2])
    clauses = [tuple(Atom(pos[a.left], a.op, pos[a.right]) for a in c) for c in clauses]
    names = tuple(f"x{i}" for i in range(offset))
    return _shuffled(rng, names, tuple(quants), clauses)


def build_solve_sparse(rng, outdir):
    pools = {True: [], False: []}
    ops = []
    values = list(SPARSE_VALUES)
    rng.shuffle(values)
    for i, value in enumerate(values):
        want = [True] * SPARSE_COMPONENTS
        if not value:
            want[rng.randrange(SPARSE_COMPONENTS)] = False
        comps = []
        for w in want:
            while not pools[w]:
                quants, cl = random_component(rng, SPARSE_COMPONENT, SPARSE_FORMS)
                pools[_game(quants, cl).value].append((quants, cl))
            comps.append(pools[w].pop())
        names, quants, clauses = _sparse_instance(rng, comps)
        path = _write(outdir, f"sparse{i}.qcsp", instance_text(names, quants, clauses))
        ops.append(_op([["solve", path]], "true" if value else "false", len(names)))
    return ops


# ---------------------------------------------------------------------------
# oracle-small


def _random_mplus(rng, n):
    quants = tuple(rng.choice("EA") for _ in range(n))
    universe = mplus_clause_universe(n)
    picked = {c.key(): c for c in rng.sample(universe, rng.randint(n - 2, n + 2))}
    return quants, [c.atoms() for c in picked.values()]


def _solver_value(quants, clauses):
    names = tuple(f"x{i}" for i in range(len(quants)))
    inst = QcspInstance(names, tuple(quants), tuple(tuple(c) for c in clauses))
    return solve(compile_to_mplus(inst)).value


def _small_instance(rng, n, dialect, value):
    """A sentence on n variables whose game verdict is `value` and whose game
    search stays under ORACLE_NODE_CAP nodes."""
    while True:
        if dialect == "mplus":
            quants, clauses = _random_mplus(rng, n)
        else:
            quants = tuple(rng.choice("EA") for _ in range(n))
            quants, clauses = random_component(rng, quants, GENERAL_FORMS[: n - 1])
        try:
            game = _game(quants, clauses, ORACLE_NODE_CAP)
        except ResourceLimitError:
            continue  # too costly for one round
        if game.value == value:
            return quants, clauses, game.value


def _cnf_text(n, clauses):
    return f"p cnf {n} {len(clauses)}\n" + "".join(" ".join(map(str, c)) + " 0\n" for c in clauses)


def build_oracle_small(rng, outdir):
    ops = []
    shapes = itertools.product(ORACLE_VARS, ("mplus", "general"), (True, False), range(ORACLE_REPS))
    for idx, (n, dialect, value, _) in enumerate(shapes):
        quants, clauses, game_value = _small_instance(rng, n, dialect, value)
        names, quants, clauses = _shuffled(rng, tuple(f"x{i}" for i in range(n)), quants, clauses)
        solver_value = _solver_value(quants, clauses)
        path = _write(outdir, f"small{idx}.qcsp", instance_text(names, quants, clauses))
        ops.append(_op([["solve", path]], _tf(game_value), n))
        ops.append(_op([["brute", path]], _tf(solver_value), n))
    # complement-of-SAT gadgets on 2-variable 3-CNFs
    all_pairs = [(a, b) for a in (1, -1) for b in (2, -2)]
    sat = [rng.sample(all_pairs, rng.randint(2, 3)) for _ in range(GADGET_SAT)]
    for g, picked in enumerate(list(itertools.permutations(all_pairs)) + sat):
        clauses = [tuple(rng.choice([(a, a, b), (a, b, b), (b, a, a)])) for a, b in picked]
        cnf = Cnf3(2, tuple(clauses))
        cnf_path = _write(outdir, f"cnf{g}.cnf", _cnf_text(2, clauses))
        gadget_path = os.path.join(outdir, f"gadget{g}.qcsp")
        argvs = [["reduce-3cnf", cnf_path, "-o", gadget_path], ["brute", gadget_path]]
        ops.append(_op(argvs, _tf(not cnf.truth_table_sat()), 3 * 2 + len(clauses) + 2))
    # proof-system saturation and strategy replay on small true sentences
    for k in (1, 2):
        for rep in range(2):
            inst = parallel_chain(k)
            names, quants, clauses = _shuffled(rng, inst.names, inst.quants, inst.general_matrix())
            path = _write(outdir, f"pchain{k}-{rep}.qcsp", instance_text(names, quants, clauses))
            ops.append(_op([["derive", path, "--quiet"]], "no bottom", len(names)))
            ops.append(_op([["verify-strategy", path]], "win", len(names)))
    return ops


def _tf(value):
    return "true" if value else "false"


# ---------------------------------------------------------------------------
# classify


def _random_pivoted(rng, arity, dual):
    """A unit order clause plus two clauses of disequalities and one order
    disjunct, all sharing their clause's pivot, over >= (or dual <=):
    preserved by pp (dual pp) and Ord-Horn by construction.  The unit clause
    halves the satisfying order types, which keeps arity 4 near 0.3 s."""
    op = "<=" if dual else ">="
    x, z = rng.sample(range(arity), 2)
    clauses = [(Atom(x, op, z),)]
    for _ in range(2):
        x, *rest = rng.sample(range(arity), arity)
        partners = rest[: rng.randint(1, arity - 2)]
        clauses.append(tuple(Atom(x, "!=", y) for y in partners) + (Atom(x, op, rest[-1]),))
    return clauses


def _random_non_oh(rng, arity):
    """Two strict order disjuncts without a common pivot, u < v | w < v at
    arity 3 and u < v | w < t at arity 4 (positions random): not preserved
    by ll, hence not Ord-Horn."""
    if arity == 3:
        u, v, w = rng.sample(range(3), 3)
        return [(Atom(u, "<", v), Atom(w, "<", v))]
    u, v, w, t = rng.sample(range(arity), 4)
    return [(Atom(u, "<", v), Atom(w, "<", t))]


# fixture file -> (relation name, arity)
FIXTURES = {"le.rel": ("LE", 2), "mplus.rel": ("M+", 3), "sm.rel": ("SM", 4)}


def build_classify(rng, outdir, fixtures_dir):
    entries = []  # (name, arity, clauses, expected flags)
    for name in catalogue_names() + ["NAE3", "NAE4"]:
        r = catalogue(name)
        entries.append((name, r.arity, r.defn.clauses, dict(PINNED_CLASSIFY.get(name, {}))))
    for shape_arity, shape, count in CLASSIFY_RANDOM:
        for j in range(count):
            if shape == "nonoh":
                clauses = _random_non_oh(rng, shape_arity)
                expect = {"oh_semantic": False, "oh_syntactic": False}
            else:
                clauses = _random_pivoted(rng, shape_arity, shape == "dual")
                flag = "dual_pp_preserved" if shape == "dual" else "pp_preserved"
                expect = {flag: True, "oh_semantic": True, "verdict": "P"}
            entries.append((f"R{shape_arity}{shape}{j}", shape_arity, clauses, expect))
    ops = []
    for i, (name, arity, clauses, expect) in enumerate(entries):
        path = _write(outdir, f"rel{i}.rel", relation_text(name, arity, clauses))
        ops.append(_op([["classify", path]], expect, arity))
    for files in (("le.rel",), ("mplus.rel",), ("sm.rel",), ("mplus.rel", "sm.rel")):
        paths = [os.path.join(fixtures_dir, f) for f in files]
        name = ",".join(FIXTURES[f][0] for f in files)
        arity = max(FIXTURES[f][1] for f in files)
        ops.append(_op([["classify", *paths]], dict(PINNED_CLASSIFY[name]), arity))
    rng.shuffle(ops)
    return ops


def build(workload, rng, outdir, fixtures_dir):
    if workload == "solve-chain":
        return build_solve_chain(rng, outdir)
    if workload == "solve-sparse":
        return build_solve_sparse(rng, outdir)
    if workload == "oracle-small":
        return build_oracle_small(rng, outdir)
    if workload == "classify":
        return build_classify(rng, outdir, fixtures_dir)
    raise ValueError(f"unknown workload {workload!r}")
