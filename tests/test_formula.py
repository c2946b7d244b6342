"""Parsing, printing, and normalization."""

import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from ordhorn.cli import main
from ordhorn.formula import (
    MAX_EXPANSION,
    Atom,
    NotPivotedError,
    OhClause,
    ParseError,
    _tautology,
    normalize,
    parse_instance,
    parse_relation,
    print_instance,
)
from ordhorn.game import ResourceLimitError, brute_solve
from ordhorn.orders import enumerate_weak_orders
from ordhorn.reductions import parse_dimacs

from conftest import make_general, peak_bytes, random_general_instance


def test_parse_minimal_named_relation():
    inst = parse_instance("qcsp v1\nE x\nC M+ x x x\n")
    assert inst.names == ("x",)
    assert inst.quants == ("E",)
    # M+(x, x, x) expands to the single clause (x != x | x >= x)
    assert inst.matrix == ((Atom(0, "!=", 0), Atom(0, ">=", 0)),)
    oh = normalize(inst)
    assert oh.matrix == (OhClause(0, frozenset(), 0),)


def test_parse_running_example(running_example):
    assert running_example.n_vars == 5
    assert running_example.quants == ("E", "A", "E", "A", "E")
    assert len(running_example.matrix) == 5


def test_parse_unknown_operator_is_syntax_error():
    with pytest.raises(ParseError) as exc:
        parse_instance("qcsp v1\nE x1\nE x2\nC x1 >> x2\n")
    assert ">>" in str(exc.value)
    assert exc.value.line == 4


@pytest.mark.parametrize(
    "text, line, col, message",
    [
        ("E a\nE zz\nC a < zz | a < z", 4, 16, "undeclared variable 'z'"),
        ("E A\nA A", 3, 3, "duplicate variable 'A'"),
        ("E bb\nE b\nC bb < b | b", 4, 12, "unknown relation 'b'"),
        ("E x<<\nC x<< < x<< | x<< << x<<", 3, 19, "unknown operator '<<'"),
        ("E a\nC a < a | a <", 3, 11, "missing operand for '<'"),
        ("E a\nE b\nC a < b |", 4, 10, "empty disjunct"),
        ("E a\nC | a < a", 3, 3, "empty disjunct"),
        ("rel v1\narity 2\nC x1 < x2 |", 3, 12, "empty disjunct"),
        ("E a\nC a < zz |", 3, 7, "undeclared variable 'zz'"),
        ("  X a", 2, 3, "unknown directive 'X'"),
        ("p cnf 3 1\n1 x 0", 2, 3, "bad literal 'x'"),
        ("p cnf 2 1\n  1 -2 3 0", 2, 8, "literal 3 out of range"),
    ],
)
def test_parse_error_names_the_token_column(text, line, col, message):
    # the column is where the offending text starts, not where its line
    # does; most cases have an earlier copy of that text on its line.
    # Relation and DIMACS cases carry their header, instance cases do not.
    parse = {"rel": parse_relation, "p": parse_dimacs}.get(text.split()[0])
    with pytest.raises(ParseError) as exc:
        parse(f"{text}\n") if parse else parse_instance(f"qcsp v1\n{text}\n")
    assert str(exc.value) == f"line {line}, col {col}: {message}"


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_instance("nonsense\n")
    with pytest.raises(ParseError, match="undeclared"):
        parse_instance("qcsp v1\nE x\nC x >= y\n")
    with pytest.raises(ParseError, match="expects 3 arguments"):
        parse_instance("qcsp v1\nE x\nE y\nC M+ x y\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_instance("qcsp v1\nE x\nA x\n")
    with pytest.raises(ParseError, match="expected one variable name"):
        parse_instance("qcsp v1\nE a b\n")
    with pytest.raises(ParseError, match="unknown relation"):
        parse_instance("qcsp v1\nE x\nC FOO x\n")
    with pytest.raises(ParseError, match="unknown relation"):
        parse_instance("qcsp v1\nE x\nC NAE" + "1" * 5000 + " x x\n")
    with pytest.raises(ParseError, match="missing operand for '<'"):
        parse_instance("qcsp v1\nE x\nC x <\n")
    with pytest.raises(ParseError, match="missing operand for '>='"):
        parse_instance("qcsp v1\nE x\nC x = x | >= x\n")
    with pytest.raises(ParseError, match="extra operand for '<'"):
        parse_instance("qcsp v1\nE x\nE y\nC x < y y\n")
    with pytest.raises(ParseError, match="one relation name"):
        parse_relation("rel v1\nname\narity 2\n")
    with pytest.raises(ParseError, match="empty clause"):
        parse_relation("rel v1\narity 2\nC\n")
    with pytest.raises(ParseError, match="negative"):
        parse_relation("rel v1\narity -1\n")
    with pytest.raises(ParseError, match="malformed arity line"):
        parse_relation("rel v1\narity 2 3\nC x1 >= x2\n")


def test_comments_and_blank_lines():
    inst = parse_instance("# header comment\nqcsp v1\n\nE x  # trailing\nC x >= x\n")
    assert inst.names == ("x",)


def test_print_empty_matrix_is_header_and_prefix():
    inst = make_general("EA", [])
    assert print_instance(inst) == "qcsp v1\nE x1\nA x2\n"


def test_print_running_example_clause_order(running_example):
    lines = print_instance(running_example).splitlines()
    assert lines[0] == "qcsp v1"
    assert lines[1:6] == ["E x1", "A x2", "E x3", "A x4", "E x5"]
    assert lines[6] == "C x1 != x2 | x1 >= x5"
    assert len(lines) == 11


def test_roundtrip_running_example(running_example):
    again = parse_instance(print_instance(running_example))
    assert again == running_example


def test_roundtrip_random_instances():
    rng = random.Random(2024)
    for _ in range(100):
        inst = random_general_instance(rng)
        again = parse_instance(print_instance(inst))
        assert again.names == inst.names
        assert again.quants == inst.quants
        assert again.matrix == inst.general_matrix()


def test_roundtrip_oh_dialect_through_normalize():
    rng = random.Random(77)
    for _ in range(50):
        oh = normalize(random_general_instance(rng))
        again = normalize(parse_instance(print_instance(oh)))
        assert again.matrix == oh.matrix


# --- normalization -----------------------------------------------------------


def test_normalize_equality_splits_into_units():
    inst = make_general("EE", [[(0, "=", 1)]])
    oh = normalize(inst)
    assert set(oh.matrix) == {OhClause(0, frozenset(), 1), OhClause(1, frozenset(), 0)}


def test_normalize_pivoted_clause():
    inst = make_general("EEE", [[(0, "!=", 1), (0, ">=", 2)]])
    oh = normalize(inst)
    assert oh.matrix == (OhClause(0, frozenset([1]), 2),)


def test_normalize_not_pivoted():
    inst = make_general("EEEE", [[(0, "!=", 1), (2, ">=", 3)]])
    with pytest.raises(NotPivotedError):
        normalize(inst)


def test_normalize_two_order_disjuncts_rejected():
    inst = make_general("EEE", [[(0, ">=", 1), (0, ">=", 2)]])
    with pytest.raises(NotPivotedError):
        normalize(inst)


@pytest.mark.parametrize("clause", ["x = y | x < y", "x < y | x >= y", "x <= y | y <= x"])
@pytest.mark.parametrize("prefix", ["EEE", "EAE", "AEA", "EAA", "AAE"])
def test_normalize_drops_tautological_order_pair(clause, prefix):
    """x >= y | y >= x holds in every linear order, so a clause that carries
    both is dropped, not rejected, and solve agrees with the game oracle."""
    from ordhorn.solver import compile_to_mplus, solve

    lines = [f"{q} {v}" for q, v in zip(prefix, "xyz")]
    inst = parse_instance("qcsp v1\n" + "\n".join(lines) + f"\nC {clause}\nC x != z | z >= y\n")
    assert solve(compile_to_mplus(normalize(inst))).value == brute_solve(inst).value


def test_normalize_drops_reflexive_disequality():
    inst = make_general("EE", [[(0, "!=", 0), (0, ">=", 1)]])
    assert normalize(inst).matrix == (OhClause(0, frozenset(), 1),)


def test_normalize_bottom_clause():
    inst = make_general("E", [[(0, "!=", 0)]])
    oh = normalize(inst)
    assert oh.matrix == (OhClause(0, frozenset(), None),)
    assert oh.matrix[0].is_false()


def test_normalize_strict_atom_splits():
    inst = make_general("EE", [[(0, ">", 1)]])
    oh = normalize(inst)
    assert set(oh.matrix) == {OhClause(0, frozenset(), 1), OhClause(0, frozenset([1]), None)}


def test_normalize_deduplicates():
    inst = make_general("EE", [[(0, ">=", 1)], [(1, "<=", 0)]])
    assert normalize(inst).matrix == (OhClause(0, frozenset(), 1),)


def test_normalize_tautology_dropped():
    inst = make_general("EE", [[(0, "!=", 1), (0, ">=", 0)]])
    assert normalize(inst).matrix == ()


def test_tautology_rule_is_weak_order_validity_on_four_variables():
    """Every product on four variables of two or three distinct irreflexive
    order literals and up to two disequalities is a tautology iff it holds
    in every weak order."""
    ges = [("ge", a, b) for a, b in itertools.permutations(range(4), 2)]
    nes = [("ne", a, b) for a, b in itertools.combinations(range(4), 2)]
    ranks = [w.ranks for w in enumerate_weak_orders(4)]
    products = valid = 0
    for k in (2, 3):
        for ge in itertools.combinations(ges, k):
            for j in (0, 1, 2):
                for ne in itertools.combinations(nes, j):
                    lits = ge + ne
                    holds = all(
                        any(r[a] >= r[b] if kind == "ge" else r[a] != r[b] for kind, a, b in lits)
                        for r in ranks
                    )
                    assert _tautology(lits) == holds, lits
                    products += 1
                    valid += holds
    assert (products, valid) == (6292, 5420)


def test_normalize_idempotent_random():
    rng = random.Random(5)
    for _ in range(100):
        oh = normalize(random_general_instance(rng))
        assert normalize(oh).matrix == oh.matrix


def test_normalize_preserves_game_verdict():
    rng = random.Random(99)
    for _ in range(150):
        inst = random_general_instance(rng, max_vars=6, max_clauses=3)
        before = brute_solve(inst).value
        after = brute_solve(normalize(inst)).value
        assert before == after, print_instance(inst)


@st.composite
def small_instances(draw):
    n = draw(st.integers(1, 4))
    quants = "".join(draw(st.sampled_from("EA")) for _ in range(n))
    n_clauses = draw(st.integers(0, 3))
    clauses = []
    for _ in range(n_clauses):
        pivot = draw(st.integers(0, n - 1))
        atoms = [(pivot, "!=", draw(st.integers(0, n - 1)))]
        if draw(st.booleans()):
            atoms.append((pivot, ">=", draw(st.integers(0, n - 1))))
        clauses.append(atoms)
    return make_general(quants, clauses)


@settings(max_examples=200, deadline=None)
@given(small_instances())
def test_parse_print_roundtrip_property(inst):
    again = parse_instance(print_instance(inst))
    assert again.matrix == inst.general_matrix()
    assert again.quants == inst.quants


@settings(max_examples=200, deadline=None)
@given(small_instances())
def test_normalize_idempotence_property(inst):
    oh = normalize(inst)
    assert normalize(oh).matrix == oh.matrix


# --- relation files ----------------------------------------------------------


def test_parse_relation_file():
    rel = parse_relation("rel v1\narity 3\nC x1 != x2 | x2 >= x3\n")
    assert rel.arity == 3
    assert rel.defn.clauses == ((Atom(0, "!=", 1), Atom(1, ">=", 2)),)


def test_parse_relation_errors():
    with pytest.raises(ParseError):
        parse_relation("arity 3\n")
    with pytest.raises(ParseError, match="arity must precede"):
        parse_relation("rel v1\nC x1 >= x1\n")
    for name in ("x0", "x4", "x01", "x" + "1" * 5000, "y1"):
        with pytest.raises(ParseError, match="undeclared variable"):
            parse_relation(f"rel v1\narity 3\nC x1 >= {name}\n")


# --- parse cost and grammar fuzzing -------------------------------------------


def test_relation_arity_is_checked_before_expansion():
    # the argument count is compared with NAE's arity before any clause exists
    def parse():
        with pytest.raises(ParseError, match="expects 1000000 arguments, got 2"):
            parse_instance("qcsp v1\nE x\nE y\nC NAE1000000 x y\n")

    assert peak_bytes(parse) < 5 * 2**20


def test_position_names_need_no_table_of_the_arity():
    def parse():
        rel = parse_relation("rel v1\narity 1000000\nC x1 >= x1000000\n")
        assert rel.defn.clauses == ((Atom(0, ">=", 999999),),)

    assert peak_bytes(parse) < 5 * 2**20


def _cli_exit_and_peak(tmp_path, command, text):
    path = tmp_path / "input"
    path.write_text(text)
    codes = []
    peak = peak_bytes(lambda: codes.append(main([command, str(path)])))
    return codes[0], peak


def test_relation_disjuncts_distribute_within_the_bound(tmp_path, capsys):
    # 18 disjuncts of the two-clause relation Z would make 2**18 clauses
    text = "qcsp v1\nE a\nE b\nE c\nE d\nC " + " | ".join(["Z a b c d"] * 18) + "\n"
    code, peak = _cli_exit_and_peak(tmp_path, "brute", text)
    assert code == 4
    assert "line 6: clause expands into 262144 clauses" in capsys.readouterr().err
    assert peak < 5 * 2**20


def test_normalize_distributes_within_the_bound(tmp_path, capsys):
    # each strict atom is an order disjunct and a disequality: 2**18 clauses
    text = "qcsp v1\nE a\nE b\nC " + " | ".join(["a < b"] * 18) + "\n"
    code, peak = _cli_exit_and_peak(tmp_path, "solve", text)
    assert code == 4
    assert "clause expands into 262144 clauses" in capsys.readouterr().err
    assert peak < 5 * 2**20


def test_classify_bounds_the_oh_shape_rewriting(tmp_path, capsys):
    text = "rel v1\narity 2\nC " + " | ".join(["x1 < x2"] * 18) + "\n"
    code, peak = _cli_exit_and_peak(tmp_path, "classify", text)
    assert code == 4
    assert "clause expands into 262144 clauses" in capsys.readouterr().err
    assert peak < 5 * 2**20


def test_a_line_just_under_the_expansion_bound_parses():
    # 7**3 * 6**2 * 4 * 2 = 98,784 clauses; one more GM+ disjunct doubles it
    line = " | ".join(["GSN a b c d"] * 3 + ["lrGSM a b c d"] * 2 + ["GVM<+ a b c", "GM+ a b c"])
    head = "qcsp v1\nE a\nE b\nE c\nE d\nC "
    assert len(parse_instance(head + line + "\n").matrix) == 98784 <= MAX_EXPANSION
    with pytest.raises(ResourceLimitError, match="line 6: clause expands into 197568"):
        parse_instance(head + line + " | GM+ a b c\n")


def test_normalize_bounds_its_total_output():
    # parse and normalize products compound: each line distributes into
    # 2**16 clauses, under the bound, but the two lines exceed it together
    text = "qcsp v1\nE a\nE b\nC " + " | ".join(["a < b"] * 16) + "\n"
    inst = parse_instance(text + "C " + " | ".join(["b < a"] * 16) + "\n")
    with pytest.raises(ResourceLimitError, match=f"normalize exceeded {MAX_EXPANSION}"):
        normalize(inst)


_NAMES = ("x", "y", "x1", "x2", "x3", "x0", "x01", "x4000000")
_OPS = ("=", "!=", "<", "<=", ">", ">=")
_RELATIONS = ("M+", "GSN", "Dis", "NAE2", "NAE3", "NAE0", "NAE1", "NOPE", "NAE4000000")
_WORDS = _NAMES + _OPS + _RELATIONS + (
    "qcsp", "rel", "v1", "p", "cnf", "c", "E", "A", "C", "arity", "name", "#", "|", "=<", ">>",
)


@st.composite
def grammar_texts(draw):
    """A header and lines shaped like one file format's directives, with
    loose tokens mixed in and any line indented; the names, relations and
    operators include undeclared, unknown and malformed ones."""
    integer = st.integers(-(10**7), 10**7).map(str)
    name = st.sampled_from(_NAMES)
    atom = st.tuples(name, st.sampled_from(_OPS), name).map(" ".join)
    application = st.tuples(st.sampled_from(_RELATIONS), st.lists(name, max_size=4)).map(
        lambda t: " ".join((t[0], *t[1]))
    )
    clause = st.lists(st.one_of(atom, application), min_size=1, max_size=3).map(
        lambda ds: "C " + " | ".join(ds)
    )
    loose = st.lists(st.one_of(st.sampled_from(_WORDS), integer), max_size=7).map(" ".join)
    header, directives = draw(
        st.sampled_from(
            [
                ("qcsp v1", [st.tuples(st.sampled_from("EA"), name).map(" ".join), clause]),
                ("rel v1", [st.integers(-1, 4).map(lambda k: f"arity {k}"), clause]),
                ("p cnf 3 2", [st.lists(st.integers(-4, 4).map(str), max_size=4).map(
                    lambda ls: " ".join(ls + ["0"]))]),
            ]
        )
    )
    indent = st.sampled_from(("", "", " ", "  ", "\t"))
    line = st.tuples(indent, st.one_of(*directives, *directives, loose)).map("".join)
    lines = draw(st.lists(line, max_size=8))
    if draw(st.integers(0, 9)) == 0:
        header = draw(loose)
    return "\n".join([draw(indent) + header] + lines)


_QUOTES_TOKEN = re.compile(
    r"line (\d+), col (\d+): (?:undeclared variable|unknown relation|unknown operator"
    r"|duplicate variable|unknown directive|bad literal) '(.*)'"
)


@settings(max_examples=500, deadline=None)
@given(grammar_texts())
def test_parsers_accept_or_raise_parse_error(text):
    # an error that quotes a token names the column where that token starts
    lines = text.splitlines()
    for parse in (parse_instance, parse_relation, parse_dimacs):
        try:
            parse(text)
        except ParseError as exc:
            quoted = _QUOTES_TOKEN.fullmatch(str(exc))
            if quoted:
                line, col, token = int(quoted[1]), int(quoted[2]), quoted[3]
                assert lines[line - 1][col - 1 :].startswith(token), (str(exc), text)
