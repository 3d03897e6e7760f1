"""Module layering rules, checked on the source text with `ast`, and the
one featurizer that training and validation share with test scoring."""

import ast
import sys
from pathlib import Path

import numpy as np

import erbound
from erbound import matching
from erbound.dataset import GoldTruth, SplitSpec
from erbound.pipeline import train_pipeline
from erbound.records import TEXT

from conftest import count_calls, random_records, random_words

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


def defining_modules(name: str) -> list[str]:
    """The package modules that define a function called `name`."""
    return sorted(
        path.name for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == name
    )


def test_featurize_pair_defined_only_in_reference():
    assert defining_modules("featurize_pair") == ["reference.py"]


def test_scalar_levenshtein_defined_only_in_reference():
    assert defining_modules("levenshtein") == ["reference.py"]


def test_train_pipeline_scores_no_pair_alone(monkeypatch, mixed_schema):
    """Training and validation pairs go through the gather: no `score_pair`
    call, and the batch edit-distance DP is handed at most one pair per
    distinct text value pair that the training pairs, or the validation
    pairs, hold."""
    rng = np.random.default_rng(21)
    records = random_records(rng, mixed_schema, 200, words=random_words(rng, 100))
    gold = GoldTruth({r.record_id: f"e{k % 50}" for k, r in enumerate(records)})
    per_pair = count_calls(monkeypatch, matching.score_pair)
    distances = count_calls(monkeypatch, matching._batch_levenshtein)
    outcome = train_pipeline(records, gold, mixed_schema, SplitSpec(60, 60, seed=21))
    assert per_pair == []
    text = [f for f, feat in enumerate(mixed_schema.features) if feat.kind == TEXT]
    held = sum(len({(f, frozenset((x, y))) for a, b, _ in pairs for f in text
                    for x in a.values[f] for y in b.values[f] if x != y})
               for pairs in (outcome.split.train_pairs, outcome.split.validation_pairs))
    assert 0 < sum(len(args[2]) for args in distances) <= held
