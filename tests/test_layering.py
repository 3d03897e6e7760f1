"""Module layering rules, checked on the source text with `ast`."""

import ast
import sys
from pathlib import Path

import erbound

PACKAGE = Path(erbound.__file__).parent


def imported_modules(tree: ast.Module) -> set[str]:
    """Absolute names a module imports; for `from X import y` both X and
    X.y, so `from . import reference` yields `erbound.reference`. The
    package is flat, so a relative import is relative to `erbound`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["erbound" if node.level else None, node.module]))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_only_reference_imports_reference():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, f"no modules under {PACKAGE}"
    offenders = [
        path.name for path in modules
        if path.name != "reference.py"
        and "erbound.reference" in imported_modules(ast.parse(path.read_text()))
    ]
    assert offenders == [], f"production modules import erbound.reference: {offenders}"


def test_imports_only_stdlib_numpy_and_erbound():
    allowed = set(sys.stdlib_module_names) | {"numpy", "erbound"}
    offenders = sorted(
        (path.name, name) for path in PACKAGE.glob("*.py")
        for name in imported_modules(ast.parse(path.read_text()))
        if name.partition(".")[0] not in allowed
    )
    assert offenders == [], f"imports outside the stdlib, numpy and erbound: {offenders}"


def test_import_forms_are_recognized():
    for source in ("from .reference import pair_metrics", "from . import reference",
                   "import erbound.reference", "from erbound import reference",
                   "from erbound.reference import resolve_rswoosh"):
        assert "erbound.reference" in imported_modules(ast.parse(source)), source
    assert "erbound.reference" not in imported_modules(ast.parse("from .resolver import x"))
