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


def test_src_functions_read_every_parameter():
    # a parameter that no body reads still has to be built and passed by
    # every caller; a method's self or cls is exempt
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg) if p]
            if id(node) in methods:
                params = params[1:]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            found += [f"{path.name}:{node.lineno} {p}" for p in params if p not in read]
    assert not found, f"parameters that no body reads: {found}"


def test_only_ohsat_touches_the_probe_memo():
    # the probe memo's format and validity rule live in ohsat.ClauseSet and
    # ohsat.probe; a string-keyed memo["..."] subscript or a .memo attribute
    # anywhere else would be a second copy of them (the keyed memo[key]
    # caches of game and classifier are not caught)
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "ohsat.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "memo":
                found.append(f"{path.name}:{node.lineno}")
            elif (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                  and node.value.id == "memo" and isinstance(node.slice, ast.Constant)
                  and isinstance(node.slice.value, str)):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"probe memo used outside ohsat: {found}"
