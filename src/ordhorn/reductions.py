"""From propositional 3-CNF to QCSP instances that are true iff the input is
unsatisfiable.

The gadget wires two constraint chains through the universal label variables
y_i^0, y_i^1 (one pair per propositional variable): the lower chain forces
v = f when every variable has some label equal to f, the upper chain forces
u = t whenever the labelled assignment satisfies every clause, and the final
order-disequality constraint is violated exactly when both propagations
fire with f < t.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formula import ParseError, QcspInstance, _column, decimal, parse_instance


@dataclass(frozen=True)
class Cnf3:
    n: int
    clauses: tuple  # triples of signed variable indices

    def truth_table_sat(self) -> bool:
        """Independent satisfiability oracle by full enumeration."""
        for bits in range(1 << self.n):
            if all(
                any((bits >> (abs(l) - 1)) & 1 == (1 if l > 0 else 0) for l in clause)
                for clause in self.clauses
            ):
                return True
        return False


def parse_dimacs(text: str) -> Cnf3:
    """Parse DIMACS cnf; clauses shorter than 3 are padded by repetition."""
    n = expected = header_line = None
    clauses, pending = [], []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError("malformed DIMACS header", line_no, 1)
            if n is not None:
                raise ParseError("duplicate DIMACS header", line_no, 1)
            try:
                n, expected, header_line = decimal(parts[2]), decimal(parts[3]), line_no
            except ValueError:
                raise ParseError("malformed DIMACS header", line_no, 1)
            if n < 0:
                raise ParseError("negative variable count in DIMACS header", line_no, 1)
            continue
        if n is None:
            raise ParseError("clause before header", line_no, 1)
        for i, tok in enumerate(line.split()):
            try:
                lit = decimal(tok)
            except ValueError:
                raise ParseError(f"bad literal {tok!r}", line_no, _column(raw, i))
            if lit == 0:
                if not pending:
                    raise ParseError("zero-length clause", line_no, 1)
                if len(pending) > 3:
                    raise ParseError("clause has more than 3 literals", line_no, 1)
                while len(pending) < 3:
                    pending.append(pending[0])
                clauses.append(tuple(pending))
                pending = []
            else:
                if abs(lit) > n:
                    raise ParseError(f"literal {lit} out of range", line_no, _column(raw, i))
                pending.append(lit)
                pending_line = line_no
    if n is None:
        raise ParseError("missing DIMACS header", 1, 1)
    if pending:
        raise ParseError("clause line without trailing 0", pending_line, 1)
    if expected is not None and expected != len(clauses):
        raise ParseError(f"header announced {expected} clauses, found {len(clauses)}", header_line, 1)
    return Cnf3(n, tuple(clauses))


def reduction_text(cnf: Cnf3) -> str:
    """The gadget in instance-file syntax, with the order-disequality
    constraint kept as the named relation Z.  The upper chain ties u to t
    only through a clause, so a CNF without clauses is an input error."""
    n, m = cnf.n, len(cnf.clauses)
    if m == 0:
        raise ParseError("the 3-CNF has no clauses")
    lines = ["qcsp v1", "E t", "E f"]
    pairs = [(f"y{i}_0", f"y{i}_1") for i in range(1, n + 1)]
    lines += [f"A {y}" for pair in pairs for y in pair]
    lower = ["f"] + [f"c{i}" for i in range(1, n)] + ["v"]
    upper = ["t"] + [f"d{j}" for j in range(1, m)] + ["u"]
    lines += [f"E {name}" for name in lower[1:-1] + upper[1:-1] + ["u", "v"]]
    clause_labels = [[pairs[abs(lit) - 1][lit > 0] for lit in clause] for clause in cnf.clauses]
    # each link of a chain: M+ src y dst through each of its labels y, then dst >= src
    for chain, labels in ((lower, pairs), (upper, clause_labels)):
        for src, dst, ys in zip(chain, chain[1:], labels):
            lines += [f"C M+ {src} {y} {dst}" for y in ys]
            lines.append(f"C M+ {dst} {dst} {src}")
    lines.append("C Z v f u t")
    return "\n".join(lines) + "\n"


def reduce_3cnf_complement(cnf: Cnf3) -> QcspInstance:
    """The QCSP instance that is true iff the 3-CNF is unsatisfiable.

    Variable count is 3n+m+2 and constraint count 3n+4m+1 (duplicate edges
    from repeated literals are kept so the size law is exact)."""
    inst = parse_instance(reduction_text(cnf))
    n, m = cnf.n, len(cnf.clauses)
    if inst.n_vars != 3 * n + m + 2:
        raise RuntimeError("variable-count law violated")
    # the Z constraint expands into two clauses in the general dialect
    if len(inst.matrix) != 3 * n + 4 * m + 2:
        raise RuntimeError("constraint-count law violated")
    return inst
