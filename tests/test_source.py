"""Checks on the package source itself."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ordhorn"


def _trees():
    """Each src module's syntax tree, by module name."""
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def _top_level_names(tree):
    """The names a module's top-level statements define: its functions,
    classes and assignment targets."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


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


def test_relative_imports_name_their_home():
    # every name, public or private, is imported from the module that
    # defines it, not through another module's import of it
    trees = _trees()
    defined = {module: _top_level_names(tree) for module, tree in trees.items()}
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                found += [f"{module}.py:{node.lineno} {a.name}" for a in node.names
                          if a.name not in defined[node.module]]
    assert not found, f"names imported through a re-export: {found}"


def test_import_aliases_name_no_other_definition():
    # an alias bound by `import ... as` that another module defines at top
    # level makes one name mean two different things across src
    trees = _trees()
    defined = {module: _top_level_names(tree) for module, tree in trees.items()}
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [f"{module}.py:{node.lineno} {a.asname} ({other}.py)" for a in node.names
                          for other, names in defined.items() if other != module and a.asname in names]
    assert not found, f"import aliases that another module defines: {found}"


def test_each_top_level_name_has_one_home():
    # a function or class that two modules define at top level is one rule
    # stated twice; the other module imports it from its home instead
    homes = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                homes.setdefault(node.name, []).append(path.name)
    found = {name: files for name, files in homes.items() if len(files) > 1}
    assert not found, f"top-level names defined in several modules: {found}"


def test_every_private_top_level_name_is_read_by_src():
    # a private helper that no src code reads outside its own definition is
    # kept for tests alone; a read counts in the defining module or in one
    # that imports the name from it (dunder names are exempt)
    trees = _trees()
    defined = []  # (module, name, defining statement)
    readers = {}  # (home module, name) -> ids of the top-level statements that read it
    for module, tree in trees.items():
        homes = {a.asname or a.name: node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
                 for a in node.names}
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [(module, name, stmt) for name in names
                        if name.startswith("_") and not name.endswith("__")]
            for n in ast.walk(stmt):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    readers.setdefault((homes.get(n.id, module), n.id), set()).add(id(stmt))
    found = [f"{module}.py:{stmt.lineno} {name}" for module, name, stmt in defined
             if not readers.get((module, name), set()) - {id(stmt)}]
    assert not found, f"private names that no other src code reads: {found}"
