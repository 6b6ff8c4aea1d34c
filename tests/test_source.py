"""Source checks: every private module-level name in grmlr has a use."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "grmlr"


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


def test_every_private_module_name_is_used():
    # (module, name, defining statement) of each private function, class and constant
    private = []
    statements = []
    for path in sorted(SRC.glob("*.py")):
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            statements.append(statement)
            for name in _defined_names(statement):
                if name.startswith("_") and not name.startswith("__"):
                    private.append((path.name, name, statement))
    references = [(statement, _referenced_names(statement)) for statement in statements]
    unused = [
        f"{module}: {name}"
        for module, name, definition in private
        if not any(name in names for statement, names in references if statement is not definition)
    ]
    assert private
    assert not unused, f"private names that nothing in src/grmlr uses: {unused}"
