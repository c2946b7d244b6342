"""Abstract syntax, parsing, printing, and normalization for temporal QCSP instances.

An instance is a quantifier prefix over named variables plus a CNF matrix of
order atoms.  Two matrix dialects exist: the *general* dialect (clauses are
disjunctions of atoms, produced by the parser) and the *solver* dialect
(clauses are pivoted ``OhClause`` values, produced by :func:`normalize`).

Atoms compare two variables; no atom mentions a constant.  :data:`HOLDS` is
the atom semantics, and :class:`Atom` is the one place that knows how an
operator reads with its operands swapped or negated.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass
from typing import NamedTuple, Optional

#: What ``a op b`` means, applied to the values (or ranks) of a and b.
HOLDS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class ParseError(ValueError):
    """Syntax or declaration error in an instance / relation file."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {message}" if line else message)


class ResourceLimitError(RuntimeError):
    """A command ran past one of its resource bounds (exit status 4)."""


#: Most clauses one clause may distribute into, or normalize may produce.
MAX_EXPANSION = 100_000


def _distribute(factors, line_no=0):
    """Every way to pick one item per factor, as tuples in factor order; the
    count is multiplied out first, and past :data:`MAX_EXPANSION` nothing is
    built and :class:`ResourceLimitError` (naming ``line_no``, if any) raised."""
    if set(map(len, factors)) == {1}:
        return list(zip(*factors))  # the one pick
    total = math.prod(len(f) for f in factors)
    if total > MAX_EXPANSION:
        where = f"line {line_no}: " if line_no else ""
        raise ResourceLimitError(f"{where}clause expands into {total} clauses, limit {MAX_EXPANSION}")
    return list(itertools.product(*factors))


class NotPivotedError(ValueError):
    """A clause has no common pivot (or more than one order disjunct).

    Such instances are outside the solver dialect and can only be decided by
    the game oracle.
    """


class Atom(NamedTuple):
    left: int
    op: str
    right: int

    def text(self, names: tuple) -> str:
        return f"{names[self.left]} {self.op} {names[self.right]}"

    def swapped(self) -> "Atom":
        """The same constraint with its operands exchanged."""
        return Atom(self.right, _FLIPPED[self.op], self.left)

    def lower_first(self) -> "Atom":
        """The same constraint over {=, !=, <, <=}: > and >= are swapped."""
        return self.swapped() if self.op in (">", ">=") else self

    def negated(self) -> "Atom":
        """The complement of the constraint over a linear order."""
        return Atom(self.left, _NEGATED[self.op], self.right)


Clause = tuple  # tuple[Atom, ...]

_FLIPPED = {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "=": "=", "!=": "!="}
_NEGATED = {"<": ">=", ">": "<=", "<=": ">", ">=": "<", "=": "!=", "!=": "="}


def _subst(clauses, mapping):
    """Atom clauses with every variable v renamed to ``mapping[v]``."""
    return [tuple(Atom(mapping[a.left], a.op, mapping[a.right]) for a in c) for c in clauses]


def _mplus_chain(x, ys, z, hs):
    """M+ triples (a, b, c), each a != b | a >= c, that pp-define x != y1 |
    ... | x != yk | x >= z over fresh existentials ``hs``, one fewer than
    ``ys``: (prev, y, h) and (h, h, x) per h, then (prev, yk, z)."""
    prev = x
    for y, h in zip(ys, hs):
        yield prev, y, h
        yield h, h, x
        prev = h
    yield prev, ys[-1], z


def flip_order(clauses) -> tuple:
    """Atom clauses with every order atom turned around (the dual order)."""
    return tuple(tuple(Atom(a.left, _FLIPPED[a.op], a.right) for a in c) for c in clauses)


@dataclass(frozen=True)
class QfFormula:
    """A quantifier-free CNF over order atoms with variables 0..arity-1."""

    arity: int
    clauses: tuple


@dataclass(frozen=True)
class OhClause:
    """A pivoted clause: disequalities pivot != p for p in partners, plus an
    optional order disjunct pivot >= target.

    The degenerate shapes carry meaning: empty partners with a target is a
    unit order atom, empty partners without a target denotes falsity.  The
    pivot is dropped from ``partners``: pivot != pivot is a false disjunct.
    """

    pivot: int
    partners: frozenset
    target: Optional[int]

    def __post_init__(self):
        if self.pivot in self.partners:
            object.__setattr__(self, "partners", self.partners - {self.pivot})

    def key(self):
        return (self.pivot, tuple(sorted(self.partners)), self.target)

    def is_false(self) -> bool:
        return not self.partners and self.target is None

    def atoms(self) -> Clause:
        out = [Atom(self.pivot, "!=", p) for p in sorted(self.partners)]
        if self.target is not None:
            out.append(Atom(self.pivot, ">=", self.target))
        if not out:  # falsity printed as an unsatisfiable disequality
            out.append(Atom(self.pivot, "!=", self.pivot))
        return tuple(out)

    def text(self, names: tuple) -> str:
        return " | ".join(a.text(names) for a in self.atoms())


@dataclass(frozen=True)
class QcspInstance:
    """A prenex QCSP instance.

    ``matrix`` holds either general clauses (tuples of :class:`Atom`) or
    :class:`OhClause` values (solver dialect).
    """

    names: tuple
    quants: tuple  # 'E' or 'A' per prefix position
    matrix: tuple

    @property
    def n_vars(self) -> int:
        return len(self.names)

    def is_oh_dialect(self) -> bool:
        return all(isinstance(c, OhClause) for c in self.matrix)

    def universals(self):
        return [i for i, q in enumerate(self.quants) if q == "A"]

    def general_matrix(self) -> tuple:
        """Matrix as atom clauses, regardless of dialect."""
        return tuple(c.atoms() if isinstance(c, OhClause) else c for c in self.matrix)


# ---------------------------------------------------------------------------
# parsing


def _column(text, i, start=0):
    """The column, in a line, of the i-th whitespace-separated token of
    ``text`` found at offset ``start`` of that line."""
    return start + [m.start() for m in re.finditer(r"\S+", text)][i] + 1


def _expand_disjunct(part, start, line_no, resolve):
    """Expand one disjunct, the text ``part`` found at offset ``start`` of
    its line, into a CNF (list of atom clauses).

    A plain atom yields one single-atom clause; a named relation application
    yields the relation's defining clauses instantiated at the arguments.
    ``resolve`` maps a variable name to its index, or to None if undeclared.
    """
    tokens = part.split()

    def index(i):
        ix = resolve(tokens[i])
        if ix is None:
            raise ParseError(f"undeclared variable {tokens[i]!r}", line_no, _column(part, i, start))
        return ix

    if len(tokens) == 3 and tokens[1] in HOLDS:
        return [(Atom(index(0), tokens[1], index(2)),)]
    from . import relations

    op = next((t for t in tokens[:2] if t in HOLDS), None)
    if op is not None:
        problem = "missing" if len(tokens) < 3 else "extra"
        raise ParseError(f"{problem} operand for {op!r}", line_no, _column(part, 0, start))
    if len(tokens) >= 2 and all(ch in "=!<>" for ch in tokens[1]):
        raise ParseError(f"unknown operator {tokens[1]!r}", line_no, _column(part, 1, start))
    name = tokens[0]
    arity = relations.arity_of(name)
    if arity is None:
        if all(ch in "=!<>" for ch in name):
            raise ParseError(f"unknown operator {name!r}", line_no, _column(part, 0, start))
        raise ParseError(f"unknown relation {name!r}", line_no, _column(part, 0, start))
    args = range(1, len(tokens))
    if len(args) != arity:
        raise ParseError(
            f"relation {name} expects {arity} arguments, got {len(args)}", line_no, _column(part, 0, start)
        )
    return _subst(relations.catalogue(name).defn.clauses, [index(i) for i in args])


def _parse_clause_line(line, line_no, resolve):
    """Parse a ``C`` line, stripped on the right, into general clauses.

    Disjuncts whose expansion is itself a conjunction distribute over the
    hosting disjunction, so one line may contribute several clauses.
    """
    body = line.lstrip()[1:].lstrip()  # what follows the directive's C
    if not body:
        raise ParseError("empty clause", line_no, 1)
    expansions = []
    start = len(line) - len(body)  # offset of the current part in line
    for part in body.split("|"):
        if not part.strip():
            raise ParseError("empty disjunct", line_no, start + 1)
        expansions.append(_expand_disjunct(part, start, line_no, resolve))
        start += len(part) + 1
    return [sum(pick, ()) for pick in _distribute(expansions, line_no)]


def decimal(token: str) -> int:
    """int(token) for plain decimals only: int also reads 1_0 and non-ASCII digits."""
    if not re.fullmatch("-?[0-9]+", token):
        raise ValueError(f"not a plain decimal: {token!r}")
    return int(token)


def _directives(text: str, header: str):
    """Yield (line number, line, tokens) for each directive line after the
    header line, with comments stripped and blank lines skipped."""
    header_seen = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if header_seen:
            yield line_no, line, line.split()
        elif line.strip() == header:
            header_seen = True
        else:
            raise ParseError(f"expected header {header!r}", line_no, 1)
    if not header_seen:
        raise ParseError(f"missing header {header!r}", 1, 1)


def parse_instance(text: str) -> QcspInstance:
    """Parse an instance file (general dialect, named relations expanded)."""
    names, quants, matrix = [], [], []
    declared = {}
    for line_no, line, tokens in _directives(text, "qcsp v1"):
        kind = tokens[0]
        if kind in ("E", "A"):
            if len(tokens) != 2:
                raise ParseError("expected one variable name", line_no, 1)
            name = tokens[1]
            if "|" in name:  # | separates a clause's disjuncts, so no clause could name it
                raise ParseError(f"variable name {name!r} contains '|'", line_no, _column(line, 1))
            if name in declared:
                raise ParseError(f"duplicate variable {name!r}", line_no, _column(line, 1))
            declared[name] = len(names)
            names.append(name)
            quants.append(kind)
        elif kind == "C":
            matrix.extend(_parse_clause_line(line, line_no, declared.get))
        else:
            raise ParseError(f"unknown directive {kind!r}", line_no, _column(line, 0))
    return QcspInstance(tuple(names), tuple(quants), tuple(matrix))


_POSITION = re.compile(r"x([1-9][0-9]*)")


def parse_relation(text: str):
    """Parse a relation-definition file into a TemporalRelation."""
    from .relations import TemporalRelation

    def position(v):
        """Position of the name x1..x<arity>, found without a table of them."""
        m = _POSITION.fullmatch(v)
        if m and len(m[1]) <= len(str(arity)) and int(m[1]) <= arity:
            return int(m[1]) - 1
        return None

    arity = None
    clauses = []
    name = "rel"
    for line_no, line, tokens in _directives(text, "rel v1"):
        if tokens[0] == "arity":
            if arity is not None:
                raise ParseError("duplicate arity line", line_no, 1)
            try:
                (arity,) = map(decimal, tokens[1:])
            except ValueError:
                raise ParseError("malformed arity line", line_no, 1)
            if arity < 0:
                raise ParseError("arity must not be negative", line_no, 1)
        elif tokens[0] == "name":
            if len(tokens) != 2:
                raise ParseError("expected one relation name", line_no, 1)
            name = tokens[1]
        elif tokens[0] == "C":
            if arity is None:
                raise ParseError("arity must precede clauses", line_no, 1)
            clauses.extend(_parse_clause_line(line, line_no, position))
        else:
            raise ParseError(f"unknown directive {tokens[0]!r}", line_no, _column(line, 0))
    if arity is None:
        raise ParseError("missing arity line", 1, 1)
    return TemporalRelation(arity, QfFormula(arity, tuple(clauses)), name)


def print_instance(inst: QcspInstance) -> str:
    """Render an instance in the line-based file format."""
    lines = ["qcsp v1"]
    for name, q in zip(inst.names, inst.quants):
        lines.append(f"{q} {name}")
    for clause in inst.general_matrix():
        lines.append("C " + " | ".join(a.text(inst.names) for a in clause))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# normalization


_GE_NE_FACTORS = {
    "=": lambda a, b: [("ge", a, b), ("ge", b, a)],
    "!=": lambda a, b: [("ne", a, b)],
    "<": lambda a, b: [("ge", b, a), ("ne", a, b)],
    "<=": lambda a, b: [("ge", b, a)],
}


def _ge_ne_product(clause):
    """Rewrite a clause over {=,!=,<,<=,>,>=} into clauses over ge/ne literals.

    A disjunct whose rewriting is a conjunction (=, <, >) splits the clause,
    so the result is a list of literal tuples.  Literals are ("ge", a, b) for
    a >= b and ("ne", a, b) for a != b.
    """
    lower = [atom.lower_first() for atom in clause]
    return _distribute([_GE_NE_FACTORS[a.op](a.left, a.right) for a in lower])


def _tautology(lits) -> bool:
    """Whether a clause of ge/ne literals counts as a tautology: with under two
    distinct order literals iff one is reflexive, with more iff it holds in
    every weak order, that is iff its negation (a < b for each a >= b, a = b
    for each a != b) fails ``ohsat.oh_sat``."""
    ge = {(a, b) for kind, a, b in lits if kind == "ge"}
    if len(ge) < 2:
        return any(a == b for a, b in ge)
    from .ohsat import OhConjunction, oh_sat

    atoms = [Atom(a, "<" if kind == "ge" else "=", b) for kind, a, b in dict.fromkeys(lits)]
    return not oh_sat(OhConjunction(1 + max(max(a, b) for _, a, b in lits), (), tuple(atoms)))


def _to_oh_clause(lits, names) -> Optional[OhClause]:
    """Turn a ge/ne literal clause into an OhClause, or None for a tautology."""
    ge, ne = {}, []  # distinct order literals, first seen first; disequalities a != b
    for kind, a, b in lits:
        if kind == "ge":
            ge[a, b] = None
        elif a != b:  # x != x is a false disjunct, dropped
            ne.append((a, b))
    # a lone x >= x goes on as a unit, but x >= x | x >= x is dropped
    if (ne or sum(kind == "ge" for kind, _, _ in lits) > 1) and _tautology(lits):
        return None
    if len(ge) > 1:
        raise NotPivotedError(
            "clause has more than one order disjunct: "
            + " | ".join(f"{names[a]} >= {names[b]}" for a, b in ge)
        )
    if ge:
        ((pivot, target),) = ge
        if any(pivot not in pair for pair in ne):
            raise NotPivotedError(f"no common pivot in clause with order disjunct on {names[pivot]}")
    elif ne:
        candidates = set.intersection(*(set(p) for p in ne))
        if not candidates:
            raise NotPivotedError("no common pivot among disequality disjuncts")
        pivot, target = min(candidates), None
    else:
        # every disjunct was false; the clause denotes bottom
        return OhClause(min((a for _, a, _ in lits), default=0), frozenset(), None)
    return OhClause(pivot, frozenset(b if a == pivot else a for a, b in ne), target)


def normalize(inst: QcspInstance) -> QcspInstance:
    """Rewrite an instance into the solver dialect over {>=, !=}.

    Equalities split into two unit clauses, strict atoms into an order plus a
    disequality clause.  Duplicate clauses are removed.
    Raises :class:`NotPivotedError` when some clause has no common pivot,
    and :class:`ResourceLimitError` past :data:`MAX_EXPANSION` clauses.
    """
    out = {}  # first occurrence of each clause, in order
    total = 0
    for clause in inst.general_matrix():
        products = _ge_ne_product(clause)
        total += len(products)
        if total > MAX_EXPANSION:
            raise ResourceLimitError(f"normalize exceeded {MAX_EXPANSION} clauses")
        for lits in products:
            oh = _to_oh_clause(lits, inst.names)
            if oh is not None:
                out.setdefault(oh)
    return QcspInstance(inst.names, inst.quants, tuple(out))
