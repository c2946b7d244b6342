"""End-to-end checks of the command-line interface."""

import hashlib
import itertools
import json
import pathlib
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from ordhorn.cli import EXIT_FAILED, EXIT_USAGE, build_parser, main
from ordhorn.formula import print_instance
from ordhorn.game import GameVerdict, Move, brute_solve
from ordhorn.generators import parallel_chain
from ordhorn.proofsystem import FactBase, StrategyUndefinedError

from conftest import UNDEFINED_STRATEGY_FACTS, load_perfbench

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_running_example(capsys):
    code, out, _ = run(capsys, "solve", FIXTURES / "reject-cascade.qcsp")
    assert code == 0
    assert out.strip() == "false"


def test_solve_json(capsys):
    code, out, _ = run(capsys, "solve", FIXTURES / "reject-cascade.qcsp", "--json")
    blob = json.loads(out)
    assert blob["verdict"] is False
    assert blob["rejecting_clause"] == "x1 >= x4"


def test_brute_density(capsys):
    code, out, _ = run(capsys, "brute", FIXTURES / "forall-exists-gt.qcsp")
    assert code == 0
    assert out.strip() == "true"


def test_solve_and_brute_agree_on_fixtures(capsys):
    for name in ("reject-cascade", "forall-exists-gt", "no-maximum", "chain2"):
        _, solve_out, _ = run(capsys, "solve", FIXTURES / f"{name}.qcsp")
        _, brute_out, _ = run(capsys, "brute", FIXTURES / f"{name}.qcsp")
        assert solve_out.strip() == brute_out.strip(), name


@pytest.mark.parametrize(
    "text",
    [
        "E a\nE b\nE c\nC a <= b | b <= c | c <= a\n",
        "E a\nE b\nE c\nE d\nC a >= b | c >= d | a != b\n",
    ],
)
def test_solve_agrees_with_brute_on_valid_clauses_of_several_order_literals(capsys, tmp_path, text):
    # both clauses hold in every weak order, so normalize drops them
    path = tmp_path / "valid.qcsp"
    path.write_text("qcsp v1\n" + text)
    solve_code, solve_out, _ = run(capsys, "solve", path)
    brute_code, brute_out, _ = run(capsys, "brute", path)
    assert (solve_code, solve_out) == (brute_code, brute_out) == (0, "true\n")


def test_classify_calls_a_cycle_of_order_literals_syntactically_oh(capsys, tmp_path):
    path = tmp_path / "cycle.rel"
    path.write_text("rel v1\narity 3\nC x1 <= x2 | x2 <= x3 | x3 <= x1\n")
    _, out, _ = run(capsys, "classify", path)
    assert "oh_semantic: True\noh_syntactic: True\n" in out


def test_reverse_order_gives_dual_verdict(capsys, tmp_path):
    # the dual of a true instance whose matrix is also reversed stays true
    _, out1, _ = run(capsys, "brute", FIXTURES / "forall-exists-gt.qcsp")
    _, out2, _ = run(capsys, "brute", FIXTURES / "forall-exists-gt.qcsp", "--reverse-order")
    assert out1.strip() == out2.strip() == "true"
    _, out3, _ = run(capsys, "solve", FIXTURES / "no-maximum.qcsp", "--reverse-order")
    assert out3.strip() == "false"  # exists x forall y: y <= x is just as false
    # the solver decides M+ only, so it takes the dual of an M- instance ...
    path = tmp_path / "m-minus.qcsp"
    path.write_text("qcsp v1\nE x\nA y\nE z\nC M- x y z\n")
    assert run(capsys, "solve", path, "--reverse-order")[:2] == (0, "true\n")
    # ... and rejects the dual of an M+ instance, which brute still decides
    code, _, err = run(capsys, "solve", FIXTURES / "reject-cascade.qcsp", "--reverse-order")
    assert code == 3 and "no common pivot" in err
    assert run(capsys, "brute", FIXTURES / "reject-cascade.qcsp", "--reverse-order")[0] == 0


def test_derive_reports_bottom(capsys):
    code, out, _ = run(capsys, "derive", FIXTURES / "reject-cascade.qcsp")
    assert code == 0
    assert "P x1 x4 {}" in out
    assert out.strip().endswith("bottom")


def test_derive_json(capsys):
    code, out, _ = run(capsys, "derive", FIXTURES / "chain2.qcsp", "--json")
    blob = json.loads(out)
    assert blob["bottom"] is False
    assert "P c0 c2 {y1_0,y2_0}" in blob["facts"]


_DERIVE_JSON = {
    "chain2": (False, 18, [
        "P c0 c0 {}", "P c0 c1 {y1_0}", "P c0 c1 {y1_1}", "P c0 c2 {y1_0,y2_0}",
        "P c0 c2 {y1_1,y2_0}", "P c0 c2 {y1_0,y2_1}", "P c0 c2 {y1_1,y2_1}",
        "P y1_0 y1_0 {}", "P y1_1 y1_1 {}", "P c1 c0 {}", "P c1 c1 {}",
        "P c1 c2 {y2_0}", "P c1 c2 {y2_1}", "P y2_0 y2_0 {}", "P y2_1 y2_1 {}",
        "P c2 c0 {}", "P c2 c1 {}", "P c2 c2 {}",
    ]),
    "forall-exists-gt": (False, 5, [
        "P x x {}", "P y x {}", "P y y {}", "P y _z1 {x}", "P _z1 _z1 {}",
    ]),
    "no-maximum": (True, 3, ["P x x {}", "P y x {}", "P y y {}"]),
    "mutual-ge": (True, 3, ["P x1 x1 {}", "P x1 x2 {}", "P x2 x2 {}"]),
    "three-var": (True, 6, [
        "P x1 x1 {}", "P x1 x2 {}", "P x2 x1 {}", "P x2 x2 {}", "P x2 x3 {}", "P x3 x3 {}",
    ]),
    "reject-cascade": (True, 12, [
        "P x1 x1 {}", "P x1 x3 {x2}", "P x1 x4 {}", "P x1 x5 {x2}", "P x2 x2 {}",
        "P x3 x1 {}", "P x3 x3 {}", "P x3 x4 {x2}", "P x4 x4 {}", "P x5 x1 {}",
        "P x5 x3 {x4}", "P x5 x5 {}",
    ]),
}


# two false instances whose dump changes if a fact's conclusions are all
# generated before any is inserted, or if the queue is worked last in first out
_ORDER_SENSITIVE = {
    "mutual-ge": "qcsp v1\nE x1\nA x2\nC x1 >= x2\nC x2 >= x1\n",
    "three-var": "qcsp v1\nA x1\nE x2\nA x3\nC x2 >= x1\nC x2 != x1 | x2 >= x3\nC x1 >= x2\n",
}


@pytest.mark.parametrize("name", sorted(_DERIVE_JSON))
def test_derive_json_bytes(tmp_path, capsys, name):
    # on a false instance the dump holds the facts stored when refutation
    # fired, which depends on the order in which conclusions are inserted
    path = FIXTURES / f"{name}.qcsp"
    if name in _ORDER_SENSITIVE:
        path = tmp_path / f"{name}.qcsp"
        path.write_text(_ORDER_SENSITIVE[name])
    code, out, _ = run(capsys, "derive", path, "--json")
    bottom, count, facts = _DERIVE_JSON[name]
    assert code == 0
    assert out == json.dumps({"bottom": bottom, "fact_count": count, "facts": facts},
                             indent=2) + "\n"


def test_derive_cap_exit_code(capsys):
    code, _, err = run(capsys, "derive", FIXTURES / "chain2.qcsp", "--cap", "3")
    assert code == 4
    assert "cap" in err


def test_classify_mplus(capsys):
    code, out, _ = run(capsys, "classify", FIXTURES / "mplus.rel", "--json")
    blob = json.loads(out)
    assert code == 0
    assert blob["verdict"] == "P"
    assert blob["pp_preserved"] is True


def test_classify_hard_combination(capsys):
    code, out, _ = run(capsys, "classify", FIXTURES / "mplus.rel", FIXTURES / "sm.rel", "--json")
    blob = json.loads(out)
    assert blob["verdict"] == "coNP-hard-unless-GOH-definable"


def test_classify_goh(capsys):
    code, out, _ = run(capsys, "classify", FIXTURES / "le.rel", "--json")
    assert json.loads(out)["verdict"] == "P"


_CLASSIFY_JSON = {
    "le.rel": {
        "oh_semantic": True, "oh_syntactic": True, "pp_preserved": True,
        "dual_pp_preserved": True, "ppsynt_shape": True, "goh_syntactic": True,
        "witnesses": {}, "verdict": "P",
    },
    "mplus.rel": {
        "oh_semantic": True, "oh_syntactic": True, "pp_preserved": True,
        "dual_pp_preserved": False, "ppsynt_shape": True, "goh_syntactic": False,
        "witnesses": {"dual_pp[0]": {"t1": [["1"], ["0"], ["2", "z"]], "t2": [["0", "1", "2"]]}},
        "verdict": "P",
    },
    "sm.rel": {
        "oh_semantic": True, "oh_syntactic": True, "pp_preserved": False,
        "dual_pp_preserved": False, "ppsynt_shape": False, "goh_syntactic": False,
        "witnesses": {
            "pp[0]": {"t1": [["0", "1", "z"], ["2", "3"]], "t2": [["1", "2"], ["0", "3"]]},
            "dual_pp[0]": {"t1": [["2", "3"], ["0", "1", "z"]], "t2": [["1", "2"], ["0", "3"]]},
        },
        "verdict": "coNP-hard-unless-GOH-definable",
    },
}


@pytest.mark.parametrize("name", sorted(_CLASSIFY_JSON))
def test_classify_json_bytes(capsys, name):
    # key order and witnesses are part of the output format
    code, out, _ = run(capsys, "classify", FIXTURES / name, "--json")
    assert code == 0
    assert out == json.dumps(_CLASSIFY_JSON[name], indent=2) + "\n"


_TEXT_KEYS = ("oh_semantic", "oh_syntactic", "pp_preserved", "dual_pp_preserved",
              "ppsynt_shape", "goh_syntactic", "verdict")
_HARD = "coNP-hard-unless-GOH-definable"
_CLASSIFY_TEXT = {
    ("le.rel",): (True, True, True, True, True, True, "P"),
    ("mplus.rel",): (True, True, True, False, True, False, "P"),
    ("sm.rel",): (True, True, False, False, False, False, _HARD),
    ("mplus.rel", "sm.rel"): (True, True, False, False, False, False, _HARD),
}


@pytest.mark.parametrize("names", list(_CLASSIFY_TEXT), ids=" ".join)
def test_classify_text_bytes(capsys, names):
    # without --json the report is the six flags and the verdict, one per line
    code, out, _ = run(capsys, "classify", *(FIXTURES / n for n in names))
    assert code == 0
    assert out == "".join(f"{k}: {v}\n" for k, v in zip(_TEXT_KEYS, _CLASSIFY_TEXT[names]))


def test_classify_text_round_pinned(tmp_path, capsys):
    # one SHA-256 over the text reports of one seed-161 round of the
    # benchmark's classify workload, in its command order
    families = load_perfbench("families")
    ops = families.build("classify", random.Random("classify/161"), str(tmp_path), str(FIXTURES))
    h = hashlib.sha256()
    for op in ops:
        for argv in op["argvs"]:
            code, out, _ = run(capsys, *argv)
            assert code == 0, argv
            h.update(out.encode())
    assert len(ops) == 51
    assert h.hexdigest() == "a1a8a0cc442552887e99e4e3f406cb3ad9f592f63ee05c699339da75e5bf59ed"


def test_classify_ignores_repeated_disjunct(tmp_path, capsys):
    # a disjunct written twice is the same clause as the disjunct once
    reports = []
    for name, clause in (("once", "x1 < x2"), ("twice", "x1 < x2 | x1 < x2")):
        path = tmp_path / f"{name}.rel"
        path.write_text(f"rel v1\nname LT\narity 2\nC {clause}\n")
        code, out, _ = run(capsys, "classify", path, "--json")
        assert code == 0
        reports.append(json.loads(out))
    assert reports[0]["oh_syntactic"] and reports[0]["goh_syntactic"]
    assert reports[1] == reports[0]


def test_classify_past_the_arity_bound_exits_4(tmp_path, capsys):
    # a pp-violating arity-7 relation took 4-7 s; arity 7 is refused at once
    path = tmp_path / "nae7.rel"
    path.write_text("rel v1\nname NAE7\narity 7\nC NAE7 x1 x2 x3 x4 x5 x6 x7\n")
    code, _, err = run(capsys, "classify", path)
    assert code == 4
    assert "arity 7 exceeds the semantic-check bound 6" in err


def test_compile_writes_pure_mplus(tmp_path, capsys):
    out_file = tmp_path / "compiled.qcsp"
    code, _, _ = run(capsys, "compile", FIXTURES / "reject-cascade.qcsp", "-o", out_file)
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("qcsp v1")
    code, out, _ = run(capsys, "solve", out_file)
    assert out.strip() == "false"


def test_reduce_3cnf_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "gadget.qcsp"
    code, _, _ = run(capsys, "reduce-3cnf", FIXTURES / "pigeonhole2.cnf", "-o", out_file)
    assert code == 0
    assert "C Z v f u t" in out_file.read_text()
    code, out, _ = run(capsys, "brute", out_file)
    assert out.strip() == "true"  # unsatisfiable input: gadget is true
    run(capsys, "reduce-3cnf", FIXTURES / "simple-sat.cnf", "-o", out_file)
    code, out, _ = run(capsys, "brute", out_file)
    assert out.strip() == "false"


def test_verify_strategy_win(capsys):
    code, out, _ = run(capsys, "verify-strategy", FIXTURES / "chain2.qcsp")
    assert code == 0
    assert out.strip() == "win"


def test_verify_strategy_undefined_exits_failed(capsys, monkeypatch):
    def ep_move(*args):
        raise StrategyUndefinedError("no admissible position")

    monkeypatch.setattr("ordhorn.cli.ep_move", ep_move)
    code, out, err = run(capsys, "verify-strategy", FIXTURES / "chain2.qcsp")
    assert (code, out) == (EXIT_FAILED, "")
    assert err == "strategy undefined (this falsifies well-definedness): no admissible position\n"


@pytest.mark.parametrize("message", sorted(UNDEFINED_STRATEGY_FACTS))
def test_verify_strategy_exits_failed_without_a_position(capsys, monkeypatch, tmp_path, message):
    # the real ep_move, fed hand-built facts, finds no position for c,
    # which the clause keeps in play
    path = tmp_path / "three.qcsp"
    path.write_text("qcsp v1\nE a\nE b\nE c\nC c >= a\n")
    facts = FactBase(("a", "b", "c"), UNDEFINED_STRATEGY_FACTS[message], "complete", 0)
    monkeypatch.setattr("ordhorn.cli.saturate", lambda inst, cap: facts)
    code, out, err = run(capsys, "verify-strategy", path)
    assert (code, out) == (EXIT_FAILED, "")
    assert err.startswith("strategy undefined (this falsifies well-definedness): variable c ")
    assert message in err


def test_verify_strategy_loss_prints_the_trace(capsys, monkeypatch):
    # an existential player who always moves below everything loses c1 >= c0
    monkeypatch.setattr("ordhorn.cli.ep_move", lambda *args: Move("gap", 0))
    code, out, _ = run(capsys, "verify-strategy", FIXTURES / "chain2.qcsp")
    assert (code, out.splitlines()) == (0, [
        "loss",
        "violated: c1 >= c0",
        "  c0 -> gap0",
        "  y1_0 -> eq0",
        "  y1_1 -> eq0",
        "  c1 -> gap0",
    ])
    assert run(capsys, "verify-strategy", FIXTURES / "chain2.qcsp", "--quiet") == (0, "loss\n", "")


def test_verify_strategy_bottom(capsys):
    code, out, _ = run(capsys, "verify-strategy", FIXTURES / "reject-cascade.qcsp")
    assert code == 0
    assert "bottom" in out


def test_emit_strategy(capsys):
    code, out, _ = run(
        capsys, "brute", FIXTURES / "forall-exists-gt.qcsp", "--emit-strategy", "--json"
    )
    blob = json.loads(out)
    assert blob["verdict"] is True
    assert blob["strategy"]["var"] == "x"
    # without --json the verdict line comes first, then the same strategy
    code, out, _ = run(capsys, "brute", FIXTURES / "forall-exists-gt.qcsp", "--emit-strategy")
    assert (code, out) == (0, "true\n" + json.dumps(blob["strategy"], indent=2) + "\n")


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "solve", "no-such-file.qcsp")
    assert code == 3
    assert "input error" in err


def test_non_utf8_file_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.qcsp"
    bad.write_bytes(b"qcsp v1\nE x\xff\n")
    for argv in (("solve", bad), ("classify", bad), ("reduce-3cnf", bad)):
        code, _, err = run(capsys, *argv)
        assert code == 3, argv
        assert "UTF-8" in err


def test_negative_dimacs_variable_count_is_input_error(tmp_path, capsys):
    bad = tmp_path / "neg.cnf"
    bad.write_text("p cnf -1 0\n")
    code, out, err = run(capsys, "reduce-3cnf", bad)
    assert code == 3
    assert out == "" and "negative variable count" in err


@pytest.mark.parametrize(
    "text, message",
    [("p cnf 2 0\n", "no clauses"), ("p cnf 3 1\n1 2 3 0\np cnf 1 1\n", "duplicate DIMACS header")],
)
def test_reduce_writes_no_gadget_for_bad_cnf(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.cnf"
    bad.write_text(text)
    code, out, err = run(capsys, "reduce-3cnf", bad)
    assert code == 3
    assert out == "" and message in err


@pytest.mark.parametrize(
    "command, name, text, message",
    [
        ("classify", "r.rel", "rel v1\narity 1_0\n", "malformed arity line"),
        ("classify", "r.rel", "rel v1\narity \uff13\n", "malformed arity line"),
        ("reduce-3cnf", "f.cnf", "p cnf 1_0 1\n1 1 1 0\n", "malformed DIMACS header"),
        ("reduce-3cnf", "f.cnf", "p cnf 1 1\n+1 1 1 0\n", "bad literal"),
        ("solve", "i.qcsp", "qcsp v1\nE a\nE b\nE c\nC NAE\uff13 a b c\n", "unknown relation"),
    ],
)
def test_counts_and_literals_are_plain_decimals(tmp_path, capsys, command, name, text, message):
    """int() reads 1_0 as 10, a fullwidth 3 as 3 and +1 as 1, and a regex's
    \\d matches non-ASCII digits; the file formats take only ASCII digits."""
    bad = tmp_path / name
    bad.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, command, bad)
    assert code == 3
    assert out == "" and message in err


def test_syntax_error_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.qcsp"
    bad.write_text("qcsp v1\nE x1\nE x2\nC x1 >> x2\n")
    code, _, err = run(capsys, "solve", bad)
    assert code == 3
    assert ">>" in err


@pytest.mark.parametrize(
    "clause, message",
    [
        ("C <> a b", "line 6, col 3: unknown operator '<>'"),
        ("C a < b |", "line 6, col 10: empty disjunct"),
        ("C", "line 6, col 1: empty clause"),
        ("C a != b | c != d", "no common pivot among disequality disjuncts"),
    ],
)
def test_malformed_clause_is_input_error(tmp_path, capsys, clause, message):
    bad = tmp_path / "bad.qcsp"
    bad.write_text(f"qcsp v1\nE a\nE b\nE c\nE d\n{clause}\n")
    assert run(capsys, "solve", bad) == (3, "", f"input error: {message}\n")


def test_not_pivoted_is_input_error(tmp_path, capsys):
    bad = tmp_path / "general.qcsp"
    bad.write_text("qcsp v1\nE a\nE b\nE c\nE d\nC a != b | c >= d\n")
    code, _, err = run(capsys, "solve", bad)
    assert code == 3
    code, out, _ = run(capsys, "brute", bad)  # the game oracle still applies
    assert code == 0 and out.strip() == "true"


def test_falsity_clause_through_pipeline(tmp_path, capsys):
    bad = tmp_path / "bottom.qcsp"
    bad.write_text("qcsp v1\nE x\nC x != x\n")
    code, out, _ = run(capsys, "solve", bad)
    assert code == 0 and out.strip() == "false"
    code, out, _ = run(capsys, "brute", bad)
    assert code == 0 and out.strip() == "false"


def test_resource_limit_exit(capsys):
    code, _, err = run(capsys, "brute", FIXTURES / "reject-cascade.qcsp", "--max-nodes", "2")
    assert code == 4


def test_recursion_past_the_stack_is_a_resource_limit(capsys, tmp_path):
    # brute's search and verify-strategy's replay recurse once per variable
    path = tmp_path / "chain1000.qcsp"
    path.write_text("qcsp v1\n" + "".join(f"E x{i}\n" for i in range(1000)) + "C x999 >= x0\n")
    for argv in (("verify-strategy",), ("brute", "--max-vars", "1000")):
        code, out, err = run(capsys, *argv, path)
        assert (code, out) == (4, ""), argv
        assert err.startswith("resource limit:") and "recursion depth" in err, argv
        assert "Traceback" not in err


def test_classify_past_the_guarded_parse_bound_exits_4(capsys, tmp_path):
    from ordhorn.classifier import MAX_GOH_SPLITS

    # the guard x1 <= x2 may take any nonempty set of its 14 companions, and
    # the last clause, which no guard takes, fails every parse
    pairs = [(a, b) for a, b in itertools.permutations(range(1, 6), 2) if {a, b} != {1, 2}]
    companions = "".join(f"C x1 != x2 | x{a} < x{b}\n" for a, b in pairs[:14])
    path = tmp_path / "guarded.rel"
    path.write_text("rel v1\narity 5\nC x1 <= x2\n" + companions + "C x3 != x4 | x1 <= x3\n")
    t0 = time.monotonic()
    code, out, err = run(capsys, "classify", path)
    assert time.monotonic() - t0 < 5
    assert (code, out) == (4, "")
    assert err == f"resource limit: guarded Ord-Horn parse exceeded {MAX_GOH_SPLITS} splits\n"


def test_solve_probe_budget(capsys, tmp_path):
    # two variables and no universals: one probe per ordered pair
    path = tmp_path / "two.qcsp"
    path.write_text("qcsp v1\nE x\nE y\n")
    code, out, _ = run(capsys, "solve", path, "--max-probes", "2")
    assert (code, out.strip()) == (0, "true")
    code, out, err = run(capsys, "solve", path, "--max-probes", "1")
    assert code == 4 and out == ""
    assert err.startswith("resource limit:") and "exceeded 1 probes" in err
    assert "Traceback" not in err


def test_verify_strategy_replay_budget(capsys, tmp_path):
    from ordhorn.formula import print_instance
    from ordhorn.generators import parallel_chain

    # the compiled chain branches on six universals: 268,449 replay nodes
    path = tmp_path / "chain3.qcsp"
    path.write_text(print_instance(parallel_chain(3)))
    code, out, err = run(capsys, "verify-strategy", path, "--max-nodes", "1000")
    assert code == 4 and out == ""
    assert err.startswith("resource limit:") and "exceeded 1000 nodes" in err
    assert "Traceback" not in err
    # chain2's replay visits 1,716 nodes
    code, out, _ = run(capsys, "verify-strategy", FIXTURES / "chain2.qcsp", "--max-nodes", "1716")
    assert (code, out.strip()) == (0, "win")
    code, _, err = run(capsys, "verify-strategy", FIXTURES / "chain2.qcsp", "--max-nodes", "1715")
    assert code == 4 and "exceeded 1715 nodes" in err


def test_parser_is_shared_and_keeps_no_state(capsys):
    assert build_parser() is build_parser()
    code, _, err = run(capsys, "brute", FIXTURES / "reject-cascade.qcsp", "--max-nodes", "2")
    assert code == 4 and "exceeded 2 nodes" in err
    # the next call is back on the default budget
    code, out, _ = run(capsys, "brute", FIXTURES / "reject-cascade.qcsp")
    assert (code, out.strip()) == (0, "false")


def test_usage_error_exit():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "x.qcsp", "--quiet"],
        ["brute", "x.qcsp", "--quiet"],
        ["classify", "x.rel", "--quiet"],
        ["compile", "x.qcsp", "--json"],
        ["compile", "x.qcsp", "--quiet"],
        ["verify-strategy", "x.qcsp", "--json"],
    ],
)
def test_flags_only_where_read(argv):
    # a flag that a command would ignore is a usage error
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["selftest", "--rounds", "-1"],
        ["brute", "x.qcsp", "--max-vars", "-1"],
        ["brute", "x.qcsp", "--max-nodes", "-1"],
        ["derive", "x.qcsp", "--cap", "-1"],
        ["verify-strategy", "x.qcsp", "--cap", "-1"],
        ["verify-strategy", "x.qcsp", "--max-nodes", "-1"],
        ["solve", "x.qcsp", "--max-probes", "-1"],
    ],
)
def test_negative_counts_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "non-negative" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["derive", "x.qcsp", "--cap", "1_0"],
        ["brute", "x.qcsp", "--max-nodes", "\uff13"],  # fullwidth 3
        ["selftest", "--seed", "1_0"],
        ["selftest", "--seed", "\uff13"],
    ],
)
def test_counts_take_plain_decimals_only(argv, capsys):
    # int() would read 1_0 as 10 and a fullwidth digit as its value
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    kind = "decimal" if "--seed" in argv else "non_negative_int"
    assert f"invalid {kind} value" in capsys.readouterr().err


def test_selftest_reduced(capsys):
    code, out, _ = run(capsys, "selftest", "--rounds", "25", "--seed", "1")
    assert code == 0
    assert "selftest: ok" in out


def test_selftest_failure_exits_failed(capsys, monkeypatch):
    monkeypatch.setattr("ordhorn.cli.brute_solve", lambda inst: GameVerdict(not brute_solve(inst).value, 0))
    code, out, _ = run(capsys, "selftest", "--rounds", "2", "--seed", "1")
    assert code == EXIT_FAILED
    assert out.count("solver/oracle disagreement on:") == 380 + 2
    assert out.endswith("selftest: FAIL\n")


def test_selftest_oh_sat_disagreement_exits_failed(capsys, monkeypatch):
    from ordhorn.ohsat import oh_sat

    monkeypatch.setattr("ordhorn.ohsat.oh_sat", lambda conj: not oh_sat(conj))
    code, out, _ = run(capsys, "selftest", "--rounds", "2", "--seed", "1")
    assert code == EXIT_FAILED
    assert out.count("oh_sat disagreement on ") == 2
    assert "solver/oracle disagreement" not in out
    assert out.endswith("selftest: FAIL\n")


def test_quiet_flag(capsys):
    code, out, _ = run(capsys, "derive", FIXTURES / "chain2.qcsp", "--quiet")
    assert code == 0
    assert out.strip() == "no bottom"


_FILE_COMMANDS = ("solve", "brute", "derive", "classify", "compile", "reduce-3cnf",
                  "verify-strategy")


@settings(max_examples=120, deadline=None)
@given(
    head=st.sampled_from([b"", b"qcsp v1\nE x\nA y\n", b"rel v1\narity 3\n", b"p cnf 3 1\n"]),
    body=st.binary(max_size=80),
)
def test_any_bytes_exit_cleanly(tmp_path_factory, head, body):
    path = tmp_path_factory.mktemp("bytes") / "input"
    path.write_bytes(head + body)
    for command in _FILE_COMMANDS:
        assert main([command, str(path)]) in (0, 3, 4), command


def test_brute_strategy_output_pinned(capsys):
    """One SHA-256 over the exit code and stdout bytes of ``brute
    --emit-strategy --json`` on every instance fixture, as given and
    reversed: the strategy tree, its key order included."""
    import hashlib

    h = hashlib.sha256()
    for path in sorted(FIXTURES.glob("*.qcsp")):
        for extra in ((), ("--reverse-order",)):
            code, out, _ = run(capsys, "brute", path, "--emit-strategy", "--json", *extra)
            h.update(f"{path.name} {extra} {code}\n{out}".encode())
    assert h.hexdigest() == "5ccb5bb41e942ebd43a520c23237a0a1dbe5cf98a4682ec764995c5fffe459df"


def test_solve_json_output_pinned(capsys, tmp_path):
    """One SHA-256 over the exit code and stdout bytes of ``solve --json`` on
    every instance fixture, as given and reversed, and on parallel chains
    1..8: verdict, derived clauses in order, rejecting clause, oracle calls."""
    runs = [(path, extra) for path in sorted(FIXTURES.glob("*.qcsp"))
            for extra in ((), ("--reverse-order",))]
    for k in range(1, 9):
        path = tmp_path / f"parallel_chain{k}.qcsp"
        path.write_text(print_instance(parallel_chain(k)))
        runs.append((path, ()))
    h = hashlib.sha256()
    for path, extra in runs:
        code, out, _ = run(capsys, "solve", path, "--json", *extra)
        h.update(f"{path.name} {extra} {code}\n{out}".encode())
    assert h.hexdigest() == "3038bc8e4931ce1cbfb81c26b66b6004a2e5bf895b7ccbcad148d6b75274d89a"


_PARSERS =((), ("solve",), ("brute",), ("derive",), ("classify",), ("compile",),
            ("reduce-3cnf",), ("verify-strategy",), ("selftest",))


@pytest.mark.parametrize("argv", _PARSERS, ids=lambda argv: " ".join(("ordhorn",) + argv))
def test_help_text_pinned(argv, capsys, monkeypatch):
    """The SHA-256 of each parser's ``--help`` text at 80 columns: option
    names, order, defaults and help wording."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == HELP_SHA256[" ".join(argv)]


HELP_SHA256 = {
    "": "5b2c76cd4380a2363d14bfad7f00d8b92cc3261d97a3706ac1dcb69d432efaf9",
    "solve": "b9dd66b3b3253f497bc6b9f768a6641d3cc377843bfd8711a86c50cf53152570",
    "brute": "e3e0f660539954587e81c1ae40478091aa444058c6a55921605f9596e40e0a77",
    "derive": "a82e2c9a74d0e623a9ca4c47a6be6642db6c606763fb125b83062e3700dcaa52",
    "classify": "242c8a86fdd27512003967250213146fd949ade9c9c2e691d9457499312488e4",
    "compile": "ffa0e46a20e855d993e40a3b49e5e25806ed9874e9836ef356e4ea59b07428d3",
    "reduce-3cnf": "2a1353702342efa020d1fbd07aea5be26704d2746ea873ce6d4feda48946f3ab",
    "verify-strategy": "876269c5446a1eccc8fe4b686ce5599ed54e44112be0c120ce6555b2b8a8b5b7",
    "selftest": "1c85df0a0e84706804ae3f4674debc6d490d68bc102e8ad69ed72709de5813ed",
}


def test_selftest_output_pinned(capsys):
    code, out, _ = run(capsys, "selftest", "--rounds", "25", "--seed", "1")
    assert (code, out) == (0, SELFTEST_OUT)


SELFTEST_OUT = (
    "solver vs game oracle: 380 exhaustive instances checked\n"
    "solver vs game oracle: 25 random instances checked\n"
    "oh_sat vs weak-order brute force: 25 conjunctions checked\n"
    "selftest: ok\n"
)


def test_reduce_3cnf_output_pinned(capsys):
    """One SHA-256 over the exit code and stdout of ``reduce-3cnf`` on every
    CNF fixture."""
    h = hashlib.sha256()
    for path in sorted(FIXTURES.glob("*.cnf")):
        code, out, _ = run(capsys, "reduce-3cnf", path)
        h.update(f"{path.name} {code}\n{out}".encode())
    assert h.hexdigest() == "389e75bca564ed1cf547a65e0ea6f35e2912fa6426865b8fa2f62ea6fc09b504"


@pytest.mark.parametrize("decl", ["E a|b", "A a|b", "E |a", "E a|"])
def test_variable_name_with_a_bar_is_refused_where_declared(tmp_path, capsys, decl):
    # | separates disjuncts, so no clause could name such a variable
    path = tmp_path / "bar.qcsp"
    path.write_text(f"qcsp v1\nE c\n  {decl}\nC c >= c\n")
    code, out, err = run(capsys, "solve", path)
    name = decl.split()[1]
    assert (code, out) == (3, "")
    assert err == f"input error: line 3, col 5: variable name {name!r} contains '|'\n"
