"""Source checks: every module-level name in grmlr is exported or has a use,
and every exported name and public method has a use in a program."""

import ast
import collections
from pathlib import Path

import grmlr

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "grmlr"
# the programs beside src/grmlr; tests are not programs
TOOLS = sorted((ROOT / "tools").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _statements(paths=None) -> list[tuple[str, ast.stmt]]:
    """(file name, statement) of every module-level statement in ``paths``, by default src/grmlr."""
    return [
        (path.name, statement)
        for path in (sorted(SRC.glob("*.py")) if paths is None else paths)
        for statement in ast.parse(path.read_text(encoding="utf-8")).body
    ]


def _defined_names(statement: ast.stmt) -> list[str]:
    """Names that a module-level function, class or assignment statement binds."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        return [t.id for t in statement.targets if isinstance(t, ast.Name)]
    if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        return [statement.target.id]
    return []


def _referenced_names(statement: ast.stmt) -> set[str]:
    """Names that a statement reads, writes, imports or takes as an attribute."""
    names = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _unreferenced(defined: list, statements: list) -> list[str]:
    """'module: name' of each (module, name, definition) that no other statement references."""
    references = [(statement, _referenced_names(statement)) for _, statement in statements]
    return [
        f"{module}: {name}"
        for module, name, definition in defined
        if not any(name in names for statement, names in references if statement is not definition)
    ]


def test_every_private_module_name_is_used():
    statements = _statements()
    # (module, name, defining statement) of each private function, class and constant
    private = [
        (module, name, statement)
        for module, statement in statements
        for name in _defined_names(statement)
        if name.startswith("_") and not name.startswith("__")
    ]
    unused = _unreferenced(private, statements)
    assert private
    assert not unused, f"private names that nothing in src/grmlr uses: {unused}"


def test_every_public_function_and_class_is_exported_or_used():
    # an import alone is no use: the importer must call or read the name
    statements = _statements()
    public = [
        (module, statement.name, statement)
        for module, statement in statements
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not statement.name.startswith("_")
        and statement.name not in grmlr.__all__
    ]
    uses = [(m, s) for m, s in statements if not isinstance(s, (ast.Import, ast.ImportFrom))]
    unused = _unreferenced(public, uses)
    assert public
    assert not unused, f"public names outside grmlr.__all__ that src/grmlr never uses: {unused}"


def test_every_exported_name_has_a_program_use():
    # the programs are src/grmlr beyond its __init__.py, tools/ and perfbench/;
    # tests are not programs, so a name that only tests call is not exported
    modules = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    src = _statements(modules)
    statements = src + _statements(TOOLS)
    exported = [
        (module, name, statement)
        for module, statement in src
        for name in _defined_names(statement)
        if name in grmlr.__all__
    ]
    uses = [(m, s) for m, s in statements if not isinstance(s, (ast.Import, ast.ImportFrom))]
    unused = _unreferenced(exported, uses)
    assert sorted(name for _, name, _ in exported) == sorted(grmlr.__all__)
    assert not unused, f"names in grmlr.__all__ that no program uses: {unused}"


def _imported_names(statement: ast.stmt) -> list[str]:
    """Names that a module-level import statement binds; none for a __future__ import."""
    if isinstance(statement, ast.Import):
        return [alias.asname or alias.name.partition(".")[0] for alias in statement.names]
    if isinstance(statement, ast.ImportFrom) and statement.module != "__future__":
        return [alias.asname or alias.name for alias in statement.names]
    return []


def test_every_module_level_import_is_used():
    # __init__.py imports to export; every other module imports to use
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        statements = _statements([path])
        uses = set().union(
            *(
                _referenced_names(statement)
                for _, statement in statements
                if not isinstance(statement, (ast.Import, ast.ImportFrom))
            )
        )
        unused += [
            f"{path.name}: {name}"
            for _, statement in statements
            for name in _imported_names(statement)
            if name not in uses
        ]
    assert not unused, f"module-level imports that their module never uses: {unused}"


def _attributes(node: ast.AST) -> collections.Counter:
    """How many times ``node`` takes each name as an attribute."""
    return collections.Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def test_every_public_method_has_a_program_use():
    # a method or property that only tests call is not library surface;
    # a use inside the method itself does not count, and dunders are exempt
    src = _statements()
    uses = sum((_attributes(s) for _, s in src + _statements(TOOLS)), collections.Counter())
    methods = [
        (f"{module}: {cls.name}.{node.name}", node)
        for module, cls in src
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
    ]
    unused = [name for name, node in methods if uses[node.name] == _attributes(node)[node.name]]
    assert methods
    assert not unused, f"public methods and properties that no program uses: {unused}"
