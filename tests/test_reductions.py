"""DIMACS parsing and the complement-of-SAT gadget."""

import pytest

from ordhorn.formula import ParseError, parse_instance
from ordhorn.game import brute_solve
from ordhorn.reductions import Cnf3, parse_dimacs, reduce_3cnf_complement, reduction_text


def test_parse_dimacs_basic():
    cnf = parse_dimacs("p cnf 1 1\n1 1 1 0\n")
    assert cnf.n == 1
    assert cnf.clauses == ((1, 1, 1),)


def test_parse_dimacs_two_clauses_and_comments():
    cnf = parse_dimacs("c a comment\np cnf 1 2\n1 1 1 0\n-1 -1 -1 0\n")
    assert cnf.clauses == ((1, 1, 1), (-1, -1, -1))


def test_parse_dimacs_padding():
    cnf = parse_dimacs("p cnf 2 1\n1 -2 0\n")
    assert cnf.clauses == ((1, -2, 1),)


def test_parse_dimacs_errors():
    with pytest.raises(ParseError, match="trailing 0"):
        parse_dimacs("p cnf 1 1\n1 1 1\n")
    with pytest.raises(ParseError, match="header"):
        parse_dimacs("1 2 3 0\n")
    with pytest.raises(ParseError, match="zero-length"):
        parse_dimacs("p cnf 1 2\n1 1 1 0\n0\n")
    with pytest.raises(ParseError, match="out of range"):
        parse_dimacs("p cnf 1 1\n2 2 2 0\n")
    with pytest.raises(ParseError, match="more than 3"):
        parse_dimacs("p cnf 4 1\n1 2 3 4 0\n")
    with pytest.raises(ParseError, match="malformed DIMACS header"):
        parse_dimacs("p cnf x 1\n")
    with pytest.raises(ParseError, match="negative variable count"):
        parse_dimacs("p cnf -1 0\n")
    with pytest.raises(ParseError, match="duplicate DIMACS header"):
        parse_dimacs("p cnf 3 1\n1 2 3 0\np cnf 1 1\n")


def test_parse_dimacs_end_of_file_errors_name_their_line():
    with pytest.raises(ParseError, match="header announced 2 clauses, found 1") as err:
        parse_dimacs("c x\np cnf 3 2\n1 2 3 0\n")
    assert (err.value.line, err.value.col) == (2, 1)  # the header's line
    with pytest.raises(ParseError, match="trailing 0") as err:
        parse_dimacs("c x\np cnf 3 2\n1 2 3 0\n\n-1 2\n")
    assert (err.value.line, err.value.col) == (5, 1)  # the unterminated clause's


def test_gadget_needs_a_clause():
    # the empty CNF is satisfiable, but without a clause the upper chain
    # never ties u to t, so the gadget would come out true
    cnf = parse_dimacs("p cnf 2 0\n")
    assert cnf.truth_table_sat()
    for build in (reduction_text, reduce_3cnf_complement):
        with pytest.raises(ParseError, match="no clauses"):
            build(cnf)


def test_truth_table_oracle():
    assert Cnf3(1, ((1, 1, 1),)).truth_table_sat()
    assert not Cnf3(1, ((1, 1, 1), (-1, -1, -1))).truth_table_sat()


def test_gadget_shape_minimal():
    cnf = Cnf3(1, ((1, 1, 1),))
    text = reduction_text(cnf)
    clause_lines = [l for l in text.splitlines() if l.startswith("C ")]
    assert len(clause_lines) == 8  # 3n + 4m + 1 with duplicates kept
    inst = reduce_3cnf_complement(cnf)
    assert inst.n_vars == 6
    assert set(inst.names) == {"t", "f", "y1_0", "y1_1", "u", "v"}


def test_gadget_prefix_law():
    cnf = Cnf3(2, ((1, 2, -1), (-2, -2, 1)))
    inst = reduce_3cnf_complement(cnf)
    assert inst.n_vars == 3 * 2 + 2 + 2
    universals = [inst.names[i] for i in inst.universals()]
    assert universals == ["y1_0", "y1_1", "y2_0", "y2_1"]
    # t and f precede the labels, chain variables follow them
    assert inst.names[:2] == ("t", "f")
    assert all(inst.names.index(u) < inst.names.index("u") for u in universals)


def test_size_law_various():
    for cnf in (
        Cnf3(1, ((1, 1, 1),)),
        Cnf3(2, ((1, 2, -1),)),
        Cnf3(2, ((1, 2, 2), (-1, -2, 1))),
        Cnf3(3, ((1, 2, 3), (-1, -2, -3))),
    ):
        n, m = cnf.n, len(cnf.clauses)
        text = reduction_text(cnf)
        clause_lines = [l for l in text.splitlines() if l.startswith("C ")]
        assert len(clause_lines) == 3 * n + 4 * m + 1
        assert reduce_3cnf_complement(cnf).n_vars == 3 * n + m + 2


def test_satisfiable_maps_to_false():
    cnf = Cnf3(1, ((1, 1, 1),))
    assert cnf.truth_table_sat()
    assert brute_solve(reduce_3cnf_complement(cnf)).value is False


def test_unsatisfiable_maps_to_true():
    cnf = Cnf3(1, ((1, 1, 1), (-1, -1, -1)))
    assert not cnf.truth_table_sat()
    assert brute_solve(reduce_3cnf_complement(cnf)).value is True


def test_roundtrip_through_file_format():
    cnf = Cnf3(2, ((1, -2, 2), (-1, -1, -1)))
    inst = parse_instance(reduction_text(cnf))
    assert inst == reduce_3cnf_complement(cnf)


def test_two_variable_cases():
    cases = [
        Cnf3(2, ((1, 2, 1), (-1, -2, -2))),
        Cnf3(2, ((1, 1, 1), (-1, -1, -1))),
        Cnf3(2, ((1, -1, 2),)),
    ]
    for cnf in cases:
        expected = not cnf.truth_table_sat()
        assert brute_solve(reduce_3cnf_complement(cnf)).value is expected


def test_reduction_text_pinned():
    """One SHA-256 over the gadget text of 200 seeded random 3-CNFs with 1-5
    variables and 1-6 clauses, repeated literals included."""
    import hashlib
    import random

    rng = random.Random(33)
    h = hashlib.sha256()
    for _ in range(200):
        n = rng.randint(1, 5)
        clauses = tuple(
            tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(3))
            for _ in range(rng.randint(1, 6))
        )
        h.update(reduction_text(Cnf3(n, clauses)).encode())
    assert h.hexdigest() == "a22b7a5ff25590a1d297322741c2392b0b5b3c109d4c437329392361ee52ef0c"
