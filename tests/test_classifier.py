"""Preservation checks, syntax recognizers, formula surgery, and verdicts."""

import pathlib
import random
import time

import pytest

from ordhorn.classifier import (
    HypothesisError,
    QuantifiedFormula,
    VERDICT_HARD,
    VERDICT_P,
    classify,
    elim_min,
    gadget_relation,
    goh_syntactic,
    hull_flags,
    is_oh,
    is_preserved_by,
    mu_relation,
    oh_shape,
    pp_def_mplus,
    ppsynt_shape,
    reverse,
    short_tool_gadget,
    verify_sandwich,
)
from ordhorn.formula import Atom, QfFormula, parse_relation
from ordhorn.game import ResourceLimitError
from ordhorn.orders import (
    WeakOrder,
    apply_op,
    dense_ranks,
    enumerate_marked_orders,
    enumerate_weak_orders,
    eval_qf,
    ordered_bell,
    relation_of,
)
from ordhorn.relations import TemporalRelation, catalogue, names

from conftest import PERFBENCH, if_chain_image, load_perfbench


def rel(arity, *clauses):
    qf = QfFormula(arity, tuple(tuple(Atom(*a) for a in c) for c in clauses))
    return TemporalRelation(arity, qf)


BETW_LIKE = rel(3, [(0, "<", 1), (2, "<", 1)])  # not closed under ll


def test_mplus_preserved_by_pp():
    assert is_preserved_by(catalogue("M+"), "pp")
    assert not is_preserved_by(catalogue("M+"), "dual_pp")


def test_mminus_preserved_by_dual_pp():
    assert is_preserved_by(catalogue("M-"), "dual_pp")
    assert not is_preserved_by(catalogue("M-"), "pp")


def test_arity_five_is_within_the_semantic_bound():
    assert is_preserved_by(catalogue("NAE5"), "pp")


def test_arity_six_classifies_within_a_time_bound():
    # the hulls decide NAE6 without a scan; a relation that the pp hull
    # rejects is scanned when its witnesses are first read, and only up to
    # its first violating pair (about 0.1 s and 0.35 s of CPU on a 2-core
    # VM; arity 7 took 1-7 s and is refused)
    start = time.process_time()
    report = classify([catalogue("NAE6")])
    assert report.verdict == VERDICT_P and report.witnesses == {}
    r = rel(6, [(0, "<", 1), (2, "<", 3)], [(4, "!=", 5), (0, ">=", 5)])
    report = classify([r])
    assert not (report.oh_semantic or report.pp_preserved or report.dual_pp_preserved)
    for op, (t1, t2) in (("pp", report.witnesses["pp[0]"]),
                         ("dual_pp", report.witnesses["dual_pp[0]"])):
        assert eval_qf(r.defn, t1) and eval_qf(r.defn, t2)
        assert not eval_qf(r.defn, apply_op(op, t1, t2))
    assert time.process_time() - start < 10


def test_sm_violates_pp_with_validated_witness():
    res = is_preserved_by(catalogue("SM"), "pp")
    assert not res
    t1, t2 = res.witness
    f = catalogue("SM").defn
    assert eval_qf(f, t1) and eval_qf(f, t2)
    assert not eval_qf(f, apply_op("pp", t1, t2))
    # the documented witness pair is itself a violation
    doc_t1 = WeakOrder((0, 0, 1, 1), zero_rank=0)  # x1 = x2 = 0 < x3 = x4
    doc_t2 = WeakOrder((0, 1, 0, 1))  # x1 < x2, x3 < x4
    assert eval_qf(f, doc_t1) and eval_qf(f, doc_t2)
    assert not eval_qf(f, apply_op("pp", doc_t1, doc_t2))


def test_d_violates_pp_with_validated_witness():
    res = is_preserved_by(catalogue("D"), "pp")
    assert not res
    f = catalogue("D").defn
    doc_t1 = WeakOrder(dense_ranks((1, 2, 0)))
    doc_t1 = WeakOrder(doc_t1.ranks, zero_rank=doc_t1.ranks[2])
    doc_t2 = WeakOrder((0, 0, 0))
    assert eval_qf(f, doc_t1) and eval_qf(f, doc_t2)
    assert not eval_qf(f, apply_op("pp", doc_t1, doc_t2))


PRESERVATION_OPS = ("pp", "dual_pp", "ll", "dual_ll", "lex")
ATOM_OPS = ("<", "<=", ">", ">=", "=", "!=")


def _pair_scan(r, op):
    """The first pair (t1, t2) in enumeration order whose image leaves r,
    found by checking every pair; None when r is preserved."""
    f = r.defn
    marked = enumerate_weak_orders if op == "lex" else enumerate_marked_orders
    firsts = [w for w in marked(r.arity) if eval_qf(f, w)]
    seconds = [w for w in enumerate_weak_orders(r.arity) if eval_qf(f, w)]
    members = {w.ranks for w in seconds}
    for t1 in firsts:
        for t2 in seconds:
            if if_chain_image(op, t1, t2) not in members:
                return (t1, t2)
    return None


def _random_relation(rng, arity):
    clauses = [
        [(rng.randrange(arity), rng.choice(ATOM_OPS), rng.randrange(arity)) for _ in range(rng.randint(1, 3))]
        for _ in range(rng.randint(1, 3))
    ]
    return rel(arity, *clauses)


def test_preservation_matches_pair_scan():
    rng = random.Random(909)
    rels = [catalogue(name) for name in names() if catalogue(name).arity <= 4]
    rels += [catalogue("NAE3"), catalogue("NAE4")]
    # a full pair scan of an arity-4 relation takes about 0.2 s
    for arity, count in ((2, 100), (3, 170), (4, 30)):
        rels += [_random_relation(rng, arity) for _ in range(count)]
    for r in rels:
        preserved = {}
        for op in PRESERVATION_OPS:
            res = is_preserved_by(r, op)
            witness = _pair_scan(r, op)
            assert (res.holds, res.witness) == (witness is None, witness), (r, op)
            preserved[op] = res.holds
        oh = preserved["ll"] and preserved["dual_ll"]
        assert hull_flags(r) == (oh, preserved["pp"], preserved["dual_pp"]), r


def _random_multi_pivot(rng, arity):
    """1-3 clauses, each of 2-3 order disjuncts a < b or a <= b with at
    least two distinct pivots a, plus at most one disequality."""
    clauses = []
    for _ in range(rng.randint(1, 3)):
        clause = []
        while len({a for a, _, _ in clause}) < 2:
            pairs = [rng.sample(range(arity), 2) for _ in range(rng.randint(2, 3))]
            clause = [(a, rng.choice(("<", "<=")), b) for a, b in pairs]
        if rng.random() < 0.5:
            a, b = rng.sample(range(arity), 2)
            clause.append((a, "!=", b))
        clauses.append(clause)
    return rel(arity, *clauses)


def test_hulls_match_signature_scan_beyond_ord_horn():
    # the catalogue and the random family above are mostly Ord-Horn; these
    # clauses carry several order disjuncts without a common pivot
    rng = random.Random(4242)
    rels = [_random_multi_pivot(rng, arity) for arity in (3, 4) for _ in range(20)]
    non_oh = 0
    for r in rels:
        oh = bool(is_preserved_by(r, "ll")) and bool(is_preserved_by(r, "dual_ll"))
        flags = (oh, bool(is_preserved_by(r, "pp")), bool(is_preserved_by(r, "dual_pp")))
        assert hull_flags(r) == flags, r
        non_oh += not oh
    assert non_oh >= len(rels) // 2


@pytest.mark.parametrize("seed", [161, 7])
def test_hulls_match_signature_scan_on_benchmark_relations(seed, tmp_path):
    # text-mode classify reads no witnesses, so the scan no longer checks
    # the pp hulls at run time; every relation of the benchmark's classify
    # family (catalogue, pivoted and non-Ord-Horn, arity 3 and 4) does here
    families = load_perfbench("families")
    rng = random.Random(f"classify/{seed}")  # as perfbench/run.py seeds the workload
    ops = families.build_classify(rng, str(tmp_path), str(PERFBENCH.parent / "fixtures"))
    paths = sorted({path for op in ops for argv in op["argvs"] for path in argv[1:]})
    for path in paths:
        r = parse_relation(pathlib.Path(path).read_text())
        scans = (bool(is_preserved_by(r, "pp")), bool(is_preserved_by(r, "dual_pp")))
        assert hull_flags(r)[1:] == scans, path


def test_preservation_checks_one_image_per_signature(monkeypatch):
    images = []

    def counting_apply_op(op, t1, t2):
        images.append(op)
        return apply_op(op, t1, t2)

    monkeypatch.setattr("ordhorn.classifier.apply_op", counting_apply_op)
    nae4 = catalogue("NAE4")
    # a scan of every pair checks 39,812 images for either op
    for op, bound in (("pp", 306), ("ll", 6860)):
        images.clear()
        assert is_preserved_by(nae4, op)
        assert 0 < len(images) <= bound, op


def test_witness_scan_stops_at_first_violation(monkeypatch):
    evaluated = []

    def counting_eval_qf(f, w):
        evaluated.append(w)
        return eval_qf(f, w)

    monkeypatch.setattr("ordhorn.classifier.eval_qf", counting_eval_qf)
    sm = catalogue("SM")
    result = is_preserved_by(sm, "pp")
    assert not result and result.witness is not None
    # evaluating every first operand up front reads all 541 + 75 order types
    assert len(evaluated) < ordered_bell(5) + ordered_bell(4)


def test_is_oh():
    assert is_oh(catalogue("M+"))
    assert is_oh(catalogue("D"))
    assert not is_oh(BETW_LIKE)


def test_arity_guard():
    big = rel(7, [(0, "<", 1)])
    with pytest.raises(ValueError):
        is_preserved_by(big, "pp")


def test_dual_symmetry():
    for name in ("M+", "M-", "D", "SM", "GSN", "GM+", "GVM<-"):
        r = catalogue(name)
        assert bool(is_preserved_by(r, "pp")) == bool(is_preserved_by(reverse(r), "dual_pp"))


def test_lex_preservation_exposed():
    # every temporal relation is preserved by lex-style refinements of its
    # arguments when it is Ord-Horn; the flag exists for test construction
    assert is_preserved_by(catalogue("M+"), "lex")
    assert is_preserved_by(catalogue("NEQ2"), "lex")


def test_report_flag_implications():
    # syntactic shapes imply their semantic counterparts on the catalogue
    from ordhorn.relations import names

    for name in names():
        r = catalogue(name)
        if ppsynt_shape(r.defn):
            assert is_preserved_by(r, "pp"), name
        if oh_shape(r.defn):
            assert is_oh(r), name


def test_ppsynt_shape():
    assert ppsynt_shape(catalogue("M+").defn)
    assert not ppsynt_shape(catalogue("SM").defn)
    assert ppsynt_shape(catalogue("NAE3").defn)
    # several order disjuncts with one pivot are fine; two pivots are not
    assert ppsynt_shape(QfFormula(3, ((Atom(0, ">=", 1), Atom(0, ">=", 2)),)))
    assert not ppsynt_shape(QfFormula(4, ((Atom(0, ">=", 1), Atom(2, ">=", 3)),)))


def test_ppsynt_shape_implies_pp_preserved():
    rng = random.Random(991)
    import itertools

    pool = []
    for k in range(3):
        for partners in itertools.combinations(range(1, 4), k):
            for targets in itertools.combinations(range(1, 4), 2 - (k > 1)):
                atoms = [Atom(0, "!=", p) for p in partners]
                atoms += [Atom(0, ">=", t) for t in targets]
                if atoms:
                    pool.append(QfFormula(4, (tuple(atoms),)))
    for f in rng.sample(pool, min(12, len(pool))):
        assert ppsynt_shape(f)
        assert is_preserved_by(TemporalRelation(4, f), "pp"), f


def test_oh_shape():
    assert oh_shape(catalogue("M+").defn)
    assert oh_shape(catalogue("SM").defn)  # no common pivot needed for OH
    assert oh_shape(catalogue("M<+").defn)  # strict atoms rewrite inside OH
    assert not oh_shape(QfFormula(3, ((Atom(0, ">=", 1), Atom(1, ">=", 2)),)))
    # a product with a reflexive order disjunct or two mirror-image ones is a
    # tautology, which normalize drops, so it carries no second disjunct
    for clause in ("x1 <= x1 | x1 < x2", "x1 <= x2 | x2 <= x1", "x1 < x2 | x2 < x1"):
        assert oh_shape(parse_relation(f"rel v1\narity 2\nC {clause}\n").defn), clause


def test_oh_shape_implies_is_oh_on_random_relations():
    # the syntactic shape is sound beyond the catalogue
    rng = random.Random(4040)
    shaped = 0
    for i in range(1500):
        r = _random_relation(rng, 2 + i % 3)
        if oh_shape(r.defn):
            shaped += 1
            assert is_oh(r), r.defn
    assert shaped > 900


def test_goh_base_cases():
    assert goh_syntactic(QfFormula(2, ((Atom(0, "<=", 1),),)))
    assert goh_syntactic(QfFormula(4, ((Atom(0, "!=", 1), Atom(2, "!=", 3)),)))
    # (x != x1) | (x < y) | (y != y1)
    assert goh_syntactic(
        QfFormula(4, ((Atom(0, "!=", 2), Atom(0, "<", 1), Atom(1, "!=", 3)),))
    )
    assert goh_syntactic(catalogue("GSN").defn)


def test_goh_induction_step():
    f = QfFormula(
        4,
        (
            (Atom(0, "<=", 1),),
            (Atom(0, "!=", 1), Atom(2, "<=", 3)),
        ),
    )
    assert goh_syntactic(f)


def test_goh_guard_needs_nonempty_tail():
    # a companion equal to the guard's disequalities certifies nothing
    f = QfFormula(
        4,
        (
            (Atom(0, "<=", 1), Atom(2, "<=", 3)),
            (Atom(0, "!=", 1), Atom(2, "!=", 3)),
        ),
    )
    assert not goh_syntactic(f)


def test_goh_rejects_mplus():
    assert not goh_syntactic(catalogue("M+").defn)
    assert not goh_syntactic(catalogue("SM").defn)


# --- elim_min ------------------------------------------------------------------


def test_elim_min_transitive_example():
    f = QfFormula(3, ((Atom(0, ">=", 1), Atom(0, ">=", 2)), (Atom(2, ">=", 1),)))
    out = elim_min(f)
    assert out.clauses[0] == (Atom(0, ">=", 1),)
    assert relation_of(out) == relation_of(f)


def test_elim_min_duplicate_disjunct():
    f = QfFormula(2, ((Atom(0, ">=", 1), Atom(0, ">=", 1)),))
    assert elim_min(f).clauses == ((Atom(0, ">=", 1),),)


def test_elim_min_single_target_unchanged():
    f = catalogue("M+").defn
    assert elim_min(f).clauses == ((Atom(0, "!=", 1), Atom(1, ">=", 2)),)


def test_elim_min_random_oh_inputs():
    # random Ord-Horn formulas with a two-target block stay equivalent
    rng = random.Random(88)
    for _ in range(25):
        n = 4
        z1, z2 = rng.sample(range(1, n), 2)
        clause = [Atom(0, ">=", z1), Atom(0, ">=", z2)]
        if rng.random() < 0.5:
            clause.append(Atom(0, "!=", rng.randrange(1, n)))
        extra = (Atom(rng.randrange(n), "<=", rng.randrange(n)),)
        f = QfFormula(n, (tuple(clause), extra))
        if not is_oh(TemporalRelation(n, f)):
            continue
        out = elim_min(f)
        assert relation_of(out) == relation_of(f)
        assert all(sum(a.op == ">=" for a in c) <= 1 for c in out.clauses)


def _random_order_block_formula(rng):
    """1-3 clauses over 2-4 positions, 1-4 atoms each; each clause leans
    towards order disjuncts on one pivot, written as >= or as <=."""
    n = rng.randint(2, 4)
    clauses = []
    for _ in range(rng.randint(1, 3)):
        pivot = rng.randrange(n)
        clause = []
        for _ in range(rng.randint(1, 4)):
            other = rng.randrange(n)
            r = rng.random()
            if r < 0.4:
                clause.append(Atom(pivot, ">=", other))
            elif r < 0.55:
                clause.append(Atom(other, "<=", pivot))
            else:
                clause.append(Atom(rng.randrange(n), rng.choice(ATOM_OPS), other))
        clauses.append(tuple(clause))
    return QfFormula(n, tuple(clauses))


def test_elim_min_output_pinned():
    """One SHA-256 over the ``repr`` of ``elim_min``, or the exception's
    type and message, on 1,000 seeded random formulas."""
    import hashlib

    rng = random.Random(2525)
    h = hashlib.sha256()
    kinds = []
    for _ in range(1000):
        try:
            outcome, kind = repr(elim_min(_random_order_block_formula(rng))), "result"
        except (ValueError, RuntimeError) as exc:
            outcome, kind = f"{type(exc).__name__}: {exc}", type(exc).__name__
        kinds.append(kind)
        h.update(f"{outcome}\n".encode())
    counts = (kinds.count("result"), kinds.count("ValueError"), kinds.count("NoValidIndexError"))
    assert counts == (650, 272, 78)
    assert h.hexdigest() == "244f11c34fe8b52d724dfb47926e6f549588b2fcec6e36cd3c3548db67cce3f0"


# --- the pp-definition ladder --------------------------------------------------


def test_pp_def_base_is_mplus_triple():
    q = pp_def_mplus(1)
    assert q.block == ()
    assert relation_of(q.formula) == mu_relation(1)


def test_pp_def_k2_structure():
    q = pp_def_mplus(2)
    assert q.block == ("E",)
    assert q.formula.arity == 5
    # M+(x, y1, h), M+(h, h, x), M+(h, y2, z) in the Table-2 shape
    texts = {tuple(a for a in c) for c in q.formula.clauses}
    h = 4
    assert (Atom(0, "!=", 1), Atom(1, ">=", h)) in texts
    assert (Atom(h, "!=", h), Atom(h, ">=", 0)) in texts
    assert (Atom(h, "!=", 2), Atom(2, ">=", 3)) in texts


def test_pp_def_projections():
    for k in (1, 2, 3):
        assert gadget_relation(pp_def_mplus(k)) == mu_relation(k)


@pytest.mark.parametrize("k", [0, 6])
def test_pp_def_rejects_k_outside_one_to_five(k):
    with pytest.raises(ValueError, match="k must be in 1..5"):
        pp_def_mplus(k)


def test_short_tool_gadget_rejects_unknown_item_and_selector():
    with pytest.raises(ValueError, match="item must be 1..5"):
        short_tool_gadget(6)
    with pytest.raises(ValueError, match="item 1 selects one of"):
        short_tool_gadget(1, which="x")


# --- sandwiches and gadgets ----------------------------------------------------


def test_sandwich_examples():
    gm, mp, mm = catalogue("GM+"), catalogue("M+"), catalogue("M-")
    assert verify_sandwich(gm, gm, mp)
    assert verify_sandwich(mp, gm, mp)
    res = verify_sandwich(mm, gm, mp)
    assert not res
    which, ranks = res.witness
    w = WeakOrder(ranks)
    if which == "lower":
        assert eval_qf(gm.defn, w) and not eval_qf(mm.defn, w)
    else:
        assert eval_qf(mm.defn, w) and not eval_qf(mp.defn, w)
    # the documented witness type x1 = x2 < x3 lies in M- but not in M+
    doc = WeakOrder((0, 0, 1))
    assert eval_qf(mm.defn, doc) and not eval_qf(mp.defn, doc)


def test_sandwich_arity_mismatch():
    with pytest.raises(ValueError):
        verify_sandwich(catalogue("M+"), catalogue("SM"), catalogue("SM"))


def test_table_sandwiches():
    assert verify_sandwich(catalogue("GVM<+"), catalogue("GVM<+"), catalogue("M<+"))
    assert verify_sandwich(catalogue("GVM<-"), catalogue("GVM<-"), catalogue("M<-"))
    assert verify_sandwich(catalogue("lrGSM<"), catalogue("lrGSM<"), catalogue("SSM"))
    assert verify_sandwich(catalogue("GSN"), catalogue("GSN"), catalogue("NEQ2"))


def test_gadget_relation_size_guard():
    q = QuantifiedFormula(1, ("E",) * 12, QfFormula(13, ()))
    with pytest.raises(ResourceLimitError):
        gadget_relation(q)


def test_item1_le():
    q = short_tool_gadget(1, which="le")
    assert gadget_relation(q) == relation_of(QfFormula(2, ((Atom(0, "<=", 1),),)))


def test_item1_ne_via_game():
    q = short_tool_gadget(1, which="ne")
    assert q.block == ("A",)
    assert gadget_relation(q) == relation_of(QfFormula(2, ((Atom(0, "!=", 1),),)))


def test_item1_lt_via_game():
    q = short_tool_gadget(1, which="lt")
    assert gadget_relation(q) == relation_of(QfFormula(2, ((Atom(0, "<", 1),),)))


def test_item2_separated_m_to_strict():
    out = short_tool_gadget(2, [catalogue("lrGSM")])
    r = TemporalRelation(4, QfFormula(4, tuple(out.formula.clauses)))
    from ordhorn.classifier import _check_hypothesis

    _check_hypothesis(r, "separated strict M-relation")


def test_item2_dual_m_to_dual_strict():
    out = short_tool_gadget(2, [catalogue("GM-")])
    r = TemporalRelation(3, QfFormula(3, tuple(out.formula.clauses)))
    from ordhorn.classifier import _check_hypothesis

    _check_hypothesis(r, "dual strict M-relation")


def test_item3_yields_separated_disjunction():
    q = short_tool_gadget(3, [catalogue("lrGSM<")])
    got = gadget_relation(q)
    gsn = relation_of(catalogue("GSN").defn)
    dis = relation_of(catalogue("NEQ2").defn)
    assert gsn <= got <= dis


def test_item4_yields_separated_disjunction():
    q = short_tool_gadget(4, [catalogue("GVM<-")])
    got = gadget_relation(q)
    gsn = relation_of(catalogue("GSN").defn)
    dis = relation_of(catalogue("NEQ2").defn)
    assert gsn <= got <= dis


def test_item5_exact_relation():
    q = short_tool_gadget(5, [catalogue("GSN")])
    assert gadget_relation(q) == relation_of(catalogue("Z").defn)


def test_hypothesis_violations():
    for item, r, message in [
        (2, catalogue("SSM"), "input is not a separated M-relation"),
        (2, catalogue("M+"), "input is not a dual M-relation"),
        (2, rel(2, [(0, "<=", 1)]), "item 2 expects a ternary or quaternary relation"),
        (3, catalogue("SM"), "input is not a separated strict M-relation"),
        (4, catalogue("M+"), "input is not a dual strict M-relation"),
        (5, catalogue("SM"), "input is not a separated disjunction of disequalities"),
        # a wrong arity is refused like any other violation
        (3, catalogue("M+"), "input is not a separated strict M-relation"),
        (4, catalogue("SM"), "input is not a dual strict M-relation"),
        (5, catalogue("D"), "input is not a separated disjunction of disequalities"),
    ]:
        with pytest.raises(HypothesisError) as exc:
            short_tool_gadget(item, [r])
        assert str(exc.value) == message, (item, r.name)


def _toolbox_outcome(item, r):
    try:
        return repr(short_tool_gadget(item, [r]))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def test_classify_output_pinned():
    """One SHA-256 over ``classify`` reports (JSON, key order included) and
    over the toolbox's items 2-5, which check a sandwich hypothesis before
    building: the gadget's ``repr``, or the exception's type and message.
    Groups: each catalogue relation alone, NAE3-5, 140 seeded random
    relations of arity 2-4, and 20 adjacent pairs of them."""
    import hashlib
    import json

    rng = random.Random(2222)
    randoms = [_random_relation(rng, 2 + i % 3) for i in range(140)]
    catalogued = [catalogue(name) for name in names()]
    groups = [[r] for r in catalogued + [catalogue(f"NAE{k}") for k in (3, 4, 5)] + randoms]
    groups += [randoms[i : i + 2] for i in range(20)]
    h = hashlib.sha256()
    verdicts = []
    for g in groups:
        report = classify(g)
        verdicts.append(report.verdict)
        h.update(json.dumps(report.to_json_dict()).encode())
    refused = 0
    for r in catalogued + randoms[:20]:
        for item in (2, 3, 4, 5):
            outcome = _toolbox_outcome(item, r)
            refused += outcome.startswith("HypothesisError")
            h.update(outcome.encode())
    assert (len(groups), verdicts.count(VERDICT_P), refused) == (182, 155, 143)
    assert h.hexdigest() == "979d2d6f1a36ccf1df0b4a3c45c310bb656e1428cf9f5bb969c65b54c66d2aaa"


@pytest.mark.parametrize("lower", ["lrGSM", "rlGSM"])
@pytest.mark.parametrize("outside", ["SSM", "SD"])
def test_separated_m_lower_bounds_leave_ssm_and_sd(lower, outside):
    # so a relation above lrGSM or rlGSM is within neither SSM nor SD
    r = catalogue(lower)
    res = verify_sandwich(r, r, catalogue(outside))
    assert not res.holds and res.witness[0] == "upper"


# --- classify ------------------------------------------------------------------


def test_classify_mplus_is_p():
    report = classify([catalogue("M+")])
    assert report.verdict == VERDICT_P
    assert report.pp_preserved and report.oh_semantic and report.ppsynt_shape
    assert not report.dual_pp_preserved


def test_classify_le_is_p_via_goh():
    report = classify([rel(2, [(0, "<=", 1)])])
    assert report.verdict == VERDICT_P
    assert report.goh_syntactic


def test_classify_mplus_with_sm_is_hard():
    report = classify([catalogue("M+"), catalogue("SM")])
    assert report.verdict == VERDICT_HARD
    assert not report.pp_preserved and not report.dual_pp_preserved
    assert report.witnesses
    blob = report.to_json_dict()
    assert blob["verdict"] == VERDICT_HARD
    assert any(key.startswith("pp[") for key in blob["witnesses"])


def test_classify_scans_only_for_witnesses(monkeypatch):
    # the hulls decide every flag; classify itself scans nothing, and the
    # first read of a report's witnesses scans once per hull failure, in
    # order, and never under ll
    from ordhorn.cli import main

    scanned = []

    def recording_scan(r, op):
        scanned.append(op)
        return is_preserved_by(r, op)

    monkeypatch.setattr("ordhorn.classifier.is_preserved_by", recording_scan)
    for rels, expected in (([catalogue("M+")], ["dual_pp"]), ([catalogue("NAE4")], [])):
        report = classify(rels)
        assert scanned == []
        first = report.witnesses
        assert scanned == expected
        assert report.witnesses is first and scanned == expected
        scanned.clear()
    report = classify([catalogue("M+"), catalogue("SM"), BETW_LIKE])
    assert not report.oh_semantic and scanned == []
    assert list(report.witnesses) == ["dual_pp[0]", "pp[1]", "dual_pp[1]", "dual_pp[2]"]
    assert scanned == ["dual_pp", "pp", "dual_pp", "dual_pp"]
    scanned.clear()
    # the CLI scans only for --json, and then only the failed ops
    sm = str(PERFBENCH.parent / "fixtures" / "sm.rel")
    assert main(["classify", sm]) == 0
    assert scanned == []
    assert main(["classify", sm, "--json"]) == 0
    assert scanned == ["pp", "dual_pp"]


def test_catalogue_structures():
    gsn = catalogue("GSN")
    crosses = {(a.left, a.right) for c in gsn.defn.clauses for a in c if a.op == "<"}
    assert crosses == {(0, 2), (0, 3), (1, 2), (1, 3)}
    z = catalogue("Z")
    assert z.defn.clauses == (
        (Atom(0, "!=", 1), Atom(2, "!=", 3)),
        (Atom(1, "<", 3),),
    )
    nae = catalogue("NAE3")
    assert nae.defn.clauses == ((Atom(0, "!=", 1), Atom(0, "!=", 2)),)
    with pytest.raises(KeyError):
        catalogue("NOPE")


def test_relation_lookup_pinned():
    """One SHA-256 over ``arity_of`` and the ``repr`` (or the exception) of
    ``catalogue`` for every catalogue name, every alias and a few NAE and
    unknown spellings."""
    import hashlib

    from ordhorn.relations import ALIASES, arity_of

    h = hashlib.sha256()
    spellings = [*names(), *ALIASES, "NAE0", "NAE1", "NAE02", "NAE9", "NAE1234567890", "NOPE"]
    for name in spellings:
        try:
            outcome = repr(catalogue(name))
        except KeyError as exc:
            outcome = f"KeyError: {exc}"
        h.update(f"{name} {arity_of(name)} {outcome}\n".encode())
    assert h.hexdigest() == "de7e8db71cebc35a4df199d1f6d32ff5bd6fcafe026d71e5ec1d7d71b2726eff"
