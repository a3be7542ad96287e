"""Source hygiene of src/perfchain, read from its syntax trees."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "perfchain"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_every_private_helper_is_used():
    """Every single-underscore function, class or method is referred to
    somewhere in src/perfchain besides its own definition: by name, as an
    attribute or in an import.  Mentions in strings and comments do not
    count."""
    defined = []
    used = Counter()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if _is_private(node.name):
                    defined.append(f"{path.name}:{node.lineno}:{node.name}")
            elif isinstance(node, ast.Name):
                used[node.id] += 1
            elif isinstance(node, ast.Attribute):
                used[node.attr] += 1
            elif isinstance(node, ast.alias):
                used[node.name] += 1
    unused = [d for d in defined if not used[d.rsplit(":", 1)[1]]]
    assert not unused, f"private helpers with no use: {unused}"


def test_every_public_name_is_used_or_exported():
    """Every public top-level function or class is referred to somewhere in
    src/perfchain outside its own definition: by name, as an attribute or
    in an import, which covers the exports of perfchain/__init__.py.
    Code that only tests call belongs in tests/."""
    defined = []
    used = Counter()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            own = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = top.name
                if not own.startswith("_"):
                    defined.append(f"{path.name}:{top.lineno}:{own}")
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name != own:
                    used[name] += 1
    unused = [d for d in defined if not used[d.rsplit(":", 1)[1]]]
    assert not unused, f"public names with no use outside their definition: {unused}"


def test_no_function_takes_a_validate_argument():
    """Constructors check shapes, and readers check the mathematics where
    outside data enters, so no function or method in src/perfchain
    chooses between the two by a `validate` parameter."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                params = args.posonlyargs + args.args + args.kwonlyargs
                if any(a.arg == "validate" for a in params):
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, f"functions with a validate parameter: {found}"
