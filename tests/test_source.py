"""Checks on the package source itself."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ordhorn"


def test_src_has_no_assert_statements():
    # assert statements vanish under python -O; invariants must raise
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in src: {found}"


def test_public_names_resolve():
    import ordhorn

    missing = [name for name in ordhorn.__all__ if not hasattr(ordhorn, name)]
    assert not missing, f"__all__ names without a definition: {missing}"
    namespace = {}
    exec("from ordhorn import *", namespace)
    assert set(ordhorn.__all__) <= set(namespace)
