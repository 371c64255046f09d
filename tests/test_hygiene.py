"""Source hygiene, checked with `ast` alone: no module of the engine or of
`scripts/` imports a name it never uses, no function of the engine imports
anything, and no private top-level function or class of the engine is left
that nothing refers to."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENGINE = sorted((ROOT / "src" / "defcalc").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _names(node) -> set:
    """Every name `node` reads: a variable, an attribute, a name imported
    from a module, or a name inside a string annotation."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.split(".")[0])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) \
                and n.value.isidentifier():
            out.add(n.value)
    return out


def _unused_imports(tree: ast.Module) -> list:
    bound = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            bound += [(a.asname or a.name.split(".")[0], n.lineno) for a in n.names]
        elif isinstance(n, ast.ImportFrom) and n.module != "__future__":
            bound += [(a.asname or a.name, n.lineno) for a in n.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(name, line) for name, line in bound if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    unused = [f"{p.relative_to(ROOT)}:{line}: {name}"
              for p in ENGINE + SCRIPTS if p.name != "__init__.py"
              for name, line in _unused_imports(_tree(p))]
    assert unused == []


def test_no_engine_function_imports():
    # Imports go at module level, where a reader sees what a module uses.
    local = [f"{p.relative_to(ROOT)}:{n.lineno}: in {f.name}"
             for p in ENGINE for f in ast.walk(_tree(p))
             if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
             for n in ast.walk(f) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert local == []


def test_every_private_definition_is_referenced():
    # A private definition's own body does not count as a use of it.
    statements = [(p, stmt, _names(stmt)) for p in ENGINE + SCRIPTS
                  for stmt in _tree(p).body]
    unreferenced = []
    for path, stmt, _ in statements:
        if path not in ENGINE or not isinstance(
                stmt, (ast.FunctionDef, ast.ClassDef)):
            continue
        name = stmt.name
        if not name.startswith("_") or name.startswith("__"):
            continue
        if not any(name in names for _, other, names in statements if other is not stmt):
            unreferenced.append(f"{path.relative_to(ROOT)}:{stmt.lineno}: {name}")
    assert unreferenced == []
