"""Module layering rules, checked on the source text with `ast`, the one
featurizer that training and validation share with test scoring, and the
one record table the commands keep records in, and the numpy modules that
start-up leaves unloaded."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import erbound
from erbound import matching
from erbound.bounds import ValidationStats
from erbound.cli import main
from erbound.dataset import (GoldTruth, SplitSpec, load_records_csv, save_schema_json,
                             write_gold_csv, write_records_csv)
from erbound.matching import PairColumns
from erbound.pipeline import train_pipeline
from erbound.records import NUMERIC, TEXT, Record, canonical_value
from erbound.reference import record_table

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


def test_sources_parse_as_python_3_10():
    """`requires-python >= 3.10`: every module parses under `ast`'s 3.10
    feature version, which refuses newer grammar such as `except*`. This
    checks the grammar only, not a run under Python 3.10."""
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, f"no modules under {PACKAGE}"
    for path in modules:
        ast.parse(path.read_text(), filename=path.name, feature_version=(3, 10))


def test_import_forms_are_recognized():
    for source in ("from .reference import pair_metrics", "from . import reference",
                   "import erbound.reference", "from erbound import reference",
                   "from erbound.reference import resolve_rswoosh"):
        assert "erbound.reference" in imported_modules(ast.parse(source)), source
    assert "erbound.reference" not in imported_modules(ast.parse("from .resolver import x"))


def calls_without_encoding(tree: ast.Module) -> list[int]:
    """Lines of the `open`, `.open`, `.read_text` and `.write_text` calls
    that pass no `encoding=` and so leave the codec to the locale."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            in ("open", "read_text", "write_text")
            and not any(kw.arg == "encoding" for kw in node.keywords)]


def test_every_file_call_names_its_encoding():
    """Every file the package opens, reads or writes names its encoding,
    whatever the locale would pick."""
    offenders = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
                 for line in calls_without_encoding(ast.parse(path.read_text()))]
    assert offenders == [], f"file calls without encoding=: {offenders}"


def test_file_call_forms_are_recognized():
    source = ("open(p)\nopen(p, 'w', newline='')\nPath(p).read_text()\n"
              "p.write_text(s)\np.open()\nopen(p, encoding='utf-8')\n"
              "p.read_text(encoding='utf-8-sig')\nreopen(p)\np.read_bytes()\n")
    assert calls_without_encoding(ast.parse(source)) == [1, 2, 3, 4, 5]


def defining_modules(name: str) -> list[str]:
    """The package modules that define a function called `name`."""
    return sorted(
        path.name for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == name
    )


def test_featurize_pair_defined_only_in_reference():
    assert defining_modules("featurize_pair") == ["reference.py"]


def test_logistic_objective_defined_only_in_reference():
    """Production keeps one objective, `matching._loss` and `_gradient`;
    the public loss and gradient written from X @ w + b are its oracle."""
    assert defining_modules("logistic_loss") == ["reference.py"]
    assert defining_modules("logistic_gradient") == ["reference.py"]


def test_scalar_levenshtein_defined_only_in_reference():
    assert defining_modules("levenshtein") == ["reference.py"]


def test_pairs_from_labels_defined_only_in_reference():
    assert defining_modules("pairs_from_labels") == ["reference.py"]


def test_train_pipeline_scores_no_pair_alone(monkeypatch, mixed_schema):
    """Training and validation pairs go through the gather: no `score_pair`
    call, and the batch edit-distance DP is handed at most one pair per
    distinct text value pair that the training pairs, or the validation
    pairs, hold."""
    rng = np.random.default_rng(21)
    records = random_records(rng, mixed_schema, 200, words=random_words(rng, 100))
    gold = GoldTruth({r.record_id: f"e{k % 50}" for k, r in enumerate(records)})
    table = record_table(records, mixed_schema)
    per_pair = count_calls(monkeypatch, matching.score_pair)
    distances = count_calls(monkeypatch, matching._batch_levenshtein)
    _, split, _ = train_pipeline(table, gold, SplitSpec(60, 60, seed=21))
    assert per_pair == []
    text = [f for f, feat in enumerate(mixed_schema.features) if feat.kind == TEXT]
    held = sum(len({(f, frozenset((x, y))) for i, j, _ in zip(*pairs) for f in text
                    for x in records[i].values[f] for y in records[j].values[f] if x != y})
               for pairs in (split.train_pairs, split.validation_pairs))
    assert 0 < sum(len(args[2]) for args in distances) <= held


def test_commands_build_no_record(monkeypatch, tmp_path, mixed_schema):
    """`generate`, and `train`, `sweep` and `resolve` on a small mixed set,
    keep their records in the record table alone: no `Record` is
    constructed."""
    rng = np.random.default_rng(24)
    records = random_records(rng, mixed_schema, 120, max_values=3, missing_rate=0.3,
                             words=random_words(rng, 50))
    write_records_csv(tmp_path / "records.csv", record_table(records, mixed_schema))
    write_gold_csv(tmp_path / "gold.csv",
                   GoldTruth({r.record_id: f"e{k % 40}" for k, r in enumerate(records)}))
    save_schema_json(tmp_path / "schema.json", mixed_schema)
    built = []
    init = Record.__init__
    monkeypatch.setattr(Record, "__init__",
                        lambda self, *args, **kw: built.append(args) or init(self, *args, **kw))
    run = tmp_path / "run"
    common = ["--model", str(run / "model.json"), "--records", str(run / "test_records.csv"),
              "--validation-stats", str(run / "validation_stats.json")]
    codes = [main(argv) for argv in (
        ["generate", "--out", str(tmp_path / "generated"), "--n-entities", "20"],
        ["train", "--out", str(run), "--records", str(tmp_path / "records.csv"),
         "--gold", str(tmp_path / "gold.csv"), "--schema", str(tmp_path / "schema.json"),
         "--n-train-pairs", "30", "--n-validation-pairs", "30"],
        ["sweep", "--out", str(tmp_path / "sweep"), *common,
         "--gold", str(run / "test_gold.csv"), "--write-clusterings"],
        ["resolve", "--out", str(tmp_path / "resolve"), *common],
    )]
    assert codes[:3] == [0, 0, 0] and codes[3] in (0, 4)
    assert built == []
    record_table(records, mixed_schema)[0]  # the counter sees a decoded record
    assert len(built) == 1


def generated_commands(tmp_path, n_entities: int = 30) -> list[list[str]]:
    """The argv of `train`, a 19-point gold `sweep` and `resolve` at 0.5,
    in that order, on a set of `n_entities` x 5 records written by
    `generate`."""
    data, run = tmp_path / "data", tmp_path / "run"
    assert main(["generate", "--out", str(data), "--n-entities", str(n_entities),
                 "--records-per-entity", "5", "--noise-sigma", "0.05"]) == 0
    common = ["--model", str(run / "model.json"), "--records", str(run / "test_records.csv"),
              "--validation-stats", str(run / "validation_stats.json")]
    return [["train", "--out", str(run), "--records", str(data / "records.csv"),
             "--gold", str(data / "gold.csv"), "--schema", str(data / "schema.json"),
             "--n-train-pairs", "40", "--n-validation-pairs", "60"],
            ["sweep", "--out", str(tmp_path / "sweep"), *common,
             "--gold", str(run / "test_gold.csv"), "--grid-steps", "19"],
            ["resolve", "--out", str(tmp_path / "resolve"), *common, "--threshold", "0.5"]]


def test_one_validation_pass_per_command(monkeypatch, tmp_path):
    """`train`, a 19-point gold `sweep` and `resolve` at a threshold with a
    defined bound each count the validation confusion in one
    `ValidationStats.from_scores` call, over every threshold at once."""
    commands = generated_commands(tmp_path)
    calls = count_calls(monkeypatch, ValidationStats.from_scores)
    for argv, n_thresholds in zip(commands, (1, 19, 1)):
        calls.clear()
        assert main(argv) == 0
        assert len(calls) == 1, f"{argv[0]}: {len(calls)} calls"
        assert len(calls[0][2]) == n_thresholds
    report = json.loads((tmp_path / "resolve" / "bound_report.json").read_text())
    assert report["precision_lower_bound"] is not None


def test_numeric_columns_parse_in_one_pass(monkeypatch, tmp_path, mixed_schema):
    """`train`, `sweep` and `resolve` on a generated numeric set parse every
    numeric column in one pass: `canonical_value` is never called. So does
    a people CSV with missing ages; one with two ages in a cell reads its
    age column cell by cell."""
    commands = generated_commands(tmp_path)
    calls = count_calls(monkeypatch, canonical_value)
    for argv in commands:
        assert main(argv) == 0
        assert calls == [], f"{argv[0]}: {len(calls)} calls"
    rng = np.random.default_rng(25)
    for max_values, per_cell in ((1, False), (2, True)):
        records = random_records(rng, mixed_schema, 40, max_values=max_values,
                                 missing_rate=0.3)
        assert any(not r.values[3] for r in records)
        assert any(len(r.values[3]) > 1 for r in records) == per_cell
        write_records_csv(tmp_path / "people.csv", record_table(records, mixed_schema))
        calls.clear()
        assert list(load_records_csv(tmp_path / "people.csv", mixed_schema)) == records
        assert any(kind == NUMERIC for _, kind in calls) == per_cell


def test_resolve_scores_in_large_blocks(monkeypatch, tmp_path):
    """`resolve` on the 814 test records of a generated set gathers its
    pairs in fewer than half the 237 row blocks that blocks of 2^14 values
    took, so the blocks cannot shrink back unnoticed."""
    train, _, resolve = generated_commands(tmp_path, n_entities=200)
    assert main(train) == 0
    blocks = []
    gather = PairColumns.slots
    monkeypatch.setattr(PairColumns, "slots",
                        lambda self, *args: blocks.append(len(self)) or gather(self, *args))
    assert main(resolve) == 0
    assert set(blocks) == {814}
    assert len(blocks) < 237 / 2


def test_startup_loads_neither_numpy_ma_nor_numpy_random(tmp_path):
    """In a fresh process, importing the CLI and then running `sweep` and
    `resolve` on a set that `train` fitted in another process load neither
    `numpy.ma` nor `numpy.random`. A plain `np.unique` imports `numpy.ma`
    (about 12 ms of import and a slow first call), and only `train` draws
    random numbers."""
    train, sweep, resolve = generated_commands(tmp_path)
    assert main(train) == 0
    script = ("import json, sys\n"
              "loaded = lambda: [m for m in ('numpy.ma', 'numpy.random') if m in sys.modules]\n"
              "from erbound.cli import main\n"
              "imported = loaded()\n"
              "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
              "print(json.dumps([imported, codes, loaded()]))")
    done = subprocess.run([sys.executable, "-c", script, json.dumps([sweep, resolve])],
                          env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [[], [0, 0], []]
