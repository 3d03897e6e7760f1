import csv
import gc
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import erbound
from erbound import dataset, matching, pipeline, resolver
from erbound.cli import EXIT_DATA, EXIT_GATE, EXIT_OK, SWEEP_COLUMNS, _fmt, main
from erbound.dataset import GoldTruth, save_schema_json, write_gold_csv, write_records_csv
from erbound.reference import pairs_from_labels, record_table

from conftest import (assert_clustering_file, count_calls, oracle_resolution, random_records,
                      random_words)


NOT_UTF8 = b"id,label\n" + b"\xc1\xff\xfe" * 1000


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_generate(out, seed=0, extra=()):
    return main(["generate", "--out", str(out), "--seed", str(seed),
                 "--n-entities", "40", "--records-per-entity", "5",
                 "--noise-sigma", "0.05", *extra])


def run_train(data, out, extra=()):
    return main([
        "train",
        "--records", str(data / "records.csv"),
        "--gold", str(data / "gold.csv"),
        "--schema", str(data / "schema.json"),
        "--out", str(out),
        "--n-train-pairs", "40", "--n-validation-pairs", "60",
        "--seed", "0", *extra,
    ])


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data, run = root / "data", root / "run"
    assert run_generate(data) == EXIT_OK
    assert run_train(data, run) == EXIT_OK
    return data, run


def read_sweep_csv(path):
    data_lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    comments = [l for l in path.read_text().splitlines() if l.startswith("#")]
    rows = list(csv.DictReader(data_lines))
    return rows, comments


class TestGenerate:
    def test_writes_dataset_and_is_deterministic(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_generate(out1, seed=5) == EXIT_OK
        assert "200 records" in capsys.readouterr().out
        assert run_generate(out2, seed=5) == EXIT_OK
        for name in ("records.csv", "gold.csv", "schema.json"):
            assert sha256(out1 / name) == sha256(out2 / name)
        assert (out1 / "generate.effective.cfg").exists()

    def test_tiny_dataset(self, tmp_path, capsys):
        out = tmp_path / "tiny"
        assert main(["generate", "--out", str(out), "--n-entities", "1",
                     "--records-per-entity", "1"]) == EXIT_OK
        assert "1 records, 0 truth pairs" in capsys.readouterr().out

    def test_counts_truth_pairs_without_listing_them(self, tmp_path, capsys):
        """The printed truth-pair count comes from the entity sizes; no
        production module can list the pairs (`pairs_from_labels` lives in
        `reference.py` alone, which `test_layering` guards)."""
        assert main(["generate", "--out", str(tmp_path / "g"), "--n-entities", "3",
                     "--records-per-entity", "4"]) == EXIT_OK
        assert "12 records, 18 truth pairs" in capsys.readouterr().out
        _, gold = dataset.generate_synthetic(n_entities=3, records_per_entity=4)
        assert len(pairs_from_labels(gold.labels)) == 18


class TestTrain:
    def test_outputs(self, trained, capsys):
        _, run = trained
        for name in ("model.json", "validation_stats.json", "test_records.csv",
                     "test_gold.csv", "train.effective.cfg"):
            assert (run / name).exists()
        doc = json.loads((run / "validation_stats.json").read_text())
        assert doc["stats"]["precision_v"] > 0.9
        assert doc["stats"]["recall_v"] > 0.9
        assert len(doc["pairs"]) == 60
        stats = doc["stats"]
        assert stats["n_pairs"] == 60
        assert stats["n_positive"] == sum(p["label"] for p in doc["pairs"])
        assert stats["n_predicted_match"] >= stats["n_true_match"] > 0

    def test_stats_json_round_trips_bit_identically(self, trained):
        _, run = trained
        raw = (run / "validation_stats.json").read_text()
        doc = json.loads(raw)
        again = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert again == raw

    def test_infeasible_split_is_config_error(self, trained, tmp_path, capsys):
        data, _ = trained
        code = run_train(data, tmp_path / "bad", extra=("--n-train-pairs", "100000"))
        assert code == EXIT_DATA
        assert "error:" in capsys.readouterr().err

    def test_no_training_pairs_is_data_error(self, trained, tmp_path, capsys):
        data, _ = trained
        code = run_train(data, tmp_path / "none", extra=("--n-train-pairs", "0"))
        assert code == EXIT_DATA
        assert "error: n_train_pairs must be at least 2 for train, got 0" in \
            capsys.readouterr().err
        assert not (tmp_path / "none").exists()

    def test_degenerate_threshold_flags_undefined_precision(self, trained, tmp_path, capsys):
        data, _ = trained
        out = tmp_path / "deg"
        code = run_train(data, out, extra=("--threshold", "0.999999"))
        assert code == EXIT_OK
        assert "precision_v=undefined" in capsys.readouterr().out
        doc = json.loads((out / "validation_stats.json").read_text())
        assert doc["stats"]["precision_v"] is None
        assert doc["stats"]["wilson_precision"] is None
        assert doc["stats"]["wilson_recall"] is not None


class TestSweep:
    def test_csv_contract(self, trained, tmp_path):
        data, run = trained
        out = tmp_path / "sweep"
        code = main([
            "sweep", "--model", str(run / "model.json"),
            "--records", str(run / "test_records.csv"),
            "--validation-stats", str(run / "validation_stats.json"),
            "--gold", str(run / "test_gold.csv"),
            "--grid-start", "0.2", "--grid-stop", "0.9", "--grid-steps", "8",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        rows, comments = read_sweep_csv(out / "sweep.csv")
        assert list(rows[0].keys()) == SWEEP_COLUMNS
        # each row's cells are its `SweepRow` fields in field order
        assert len(SWEEP_COLUMNS) == len(fields(pipeline.SweepRow))
        assert float(rows[0]["threshold"]) == pytest.approx(0.2)
        assert len(rows) == 8
        r_pairs = [int(r["r_pairs"]) for r in rows]
        tm_pairs = [int(r["tm_pairs"]) for r in rows]
        assert r_pairs == sorted(r_pairs, reverse=True)
        assert tm_pairs == sorted(tm_pairs, reverse=True)
        assert all(r["true_prec"] != "" for r in rows)
        assert any(c.startswith("# best_threshold=") for c in comments)
        best = json.loads((out / "best.json").read_text())
        assert best["select_metric"] == "f1_lb"
        assert 0.2 <= best["threshold"] <= 0.9

    def test_without_gold_true_columns_empty(self, trained, tmp_path):
        data, run = trained
        out = tmp_path / "sweep2"
        assert main([
            "sweep", "--model", str(run / "model.json"),
            "--records", str(run / "test_records.csv"),
            "--validation-stats", str(run / "validation_stats.json"),
            "--grid-start", "0.3", "--grid-stop", "0.7", "--grid-steps", "3",
            "--out", str(out),
        ]) == EXIT_OK
        rows, _ = read_sweep_csv(out / "sweep.csv")
        assert all(r["true_prec"] == "" and r["true_rec"] == "" for r in rows)

    def test_write_clusterings(self, trained, tmp_path):
        data, run = trained
        out = tmp_path / "sweep3"
        assert main([
            "sweep", "--model", str(run / "model.json"),
            "--records", str(run / "test_records.csv"),
            "--validation-stats", str(run / "validation_stats.json"),
            "--grid-start", "0.5", "--grid-stop", "0.9", "--grid-steps", "2",
            "--write-clusterings", "--out", str(out),
        ]) == EXIT_OK
        files = sorted(out.glob("clustering_*.csv"))
        assert [f.name for f in files] == ["clustering_0.500000.csv", "clustering_0.900000.csv"]
        model = matching.load_model(run / "model.json")
        records = list(erbound.load_records_csv(run / "test_records.csv", model.schema))
        for path, threshold in zip(files, (0.5, 0.9)):
            assert_clustering_file(path, oracle_resolution(model, records, threshold))

    def test_no_defined_bound_selects_no_row(self, trained, tmp_path, capsys):
        """With every validation label flipped, TPR never exceeds FPR: no row
        has an F1 bound, so the sweep names no best threshold."""
        _, run = trained
        doc = json.loads((run / "validation_stats.json").read_text())
        for pair in doc["pairs"]:
            pair["label"] = 1 - pair["label"]
        flipped = tmp_path / "validation_stats.json"
        flipped.write_text(json.dumps(doc))
        out = tmp_path / "sweep"
        assert main(["sweep", "--model", str(run / "model.json"),
                     "--records", str(run / "test_records.csv"),
                     "--validation-stats", str(flipped), "--grid-steps", "4",
                     "--out", str(out)]) == EXIT_OK
        assert "no threshold produced a defined bound" in capsys.readouterr().out
        rows, comments = read_sweep_csv(out / "sweep.csv")
        assert len(rows) == 4 and all(r["f1_lb"] == "" for r in rows)
        assert comments == ["# select_metric=f1_lb"]
        assert json.loads((out / "best.json").read_text()) is None

    def test_bad_grid(self, trained, tmp_path, capsys):
        data, run = trained
        sweep = ["sweep", "--model", str(run / "model.json"),
                 "--records", str(run / "test_records.csv"),
                 "--validation-stats", str(run / "validation_stats.json")]
        code = main([*sweep, "--grid-start", "0", "--grid-stop", "1.2",
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_DATA
        # distinct thresholds whose clustering files would share a name;
        # equal thresholds share one file and stay allowed
        close = ["--grid-start", "0.5", "--grid-stop", "0.5000004", "--grid-steps", "3"]
        assert main([*sweep, *close, "--write-clusterings",
                     "--out", str(tmp_path / "y")]) == EXIT_DATA
        assert "--grid-steps 3" in capsys.readouterr().err
        assert not (tmp_path / "y").exists()
        assert main([*sweep, *close, "--out", str(tmp_path / "z")]) == EXIT_OK
        assert main([*sweep, "--grid-start", "0.5", "--grid-stop", "0.5", "--grid-steps", "3",
                     "--write-clusterings", "--out", str(tmp_path / "w")]) == EXIT_OK
        assert [f.name for f in (tmp_path / "w").glob("clustering_*.csv")] == \
            ["clustering_0.500000.csv"]

    @pytest.mark.parametrize("grid,shown", [
        (("--grid-steps", "0"), "--grid-steps must be at least 1, got 0"),
        (("--grid-start", "0"), "--grid-start must be at most --grid-stop, both inside (0, 1), "
                                "got 0.0 and 0.95"),
        (("--grid-stop", "1"), "--grid-start must be at most --grid-stop, both inside (0, 1), "
                               "got 0.05 and 1.0"),
        (("--grid-start", "0.9", "--grid-stop", "0.2"),
         "--grid-start must be at most --grid-stop, both inside (0, 1), got 0.9 and 0.2"),
    ])
    def test_grid_error_names_flag_and_value(self, trained, tmp_path, capsys, grid, shown):
        _, run = trained
        out = tmp_path / "out"
        assert main(["sweep", "--model", str(run / "model.json"),
                     "--records", str(run / "test_records.csv"),
                     "--validation-stats", str(run / "validation_stats.json"),
                     *grid, "--out", str(out)]) == EXIT_DATA
        assert f"error: {shown}\n" in capsys.readouterr().err
        assert not out.exists()


class TestScoreOnce:
    def test_resolve_scores_once(self, trained, tmp_path, monkeypatch):
        _, run = trained
        calls = count_calls(monkeypatch, matching.condensed_pairwise_scores)
        labellings = count_calls(monkeypatch, resolver.components_from_condensed)
        assert main([
            "resolve", "--model", str(run / "model.json"),
            "--records", str(run / "test_records.csv"),
            "--validation-stats", str(run / "validation_stats.json"),
            "--threshold", "0.8", "--out", str(tmp_path / "res"),
        ]) == EXIT_OK
        assert len(calls) == 1
        assert len(labellings) == 1

    def test_sweep_clusterings_do_not_rescore_per_grid_point(self, trained, tmp_path,
                                                            monkeypatch):
        _, run = trained
        counts = []
        for steps in ("2", "3"):
            calls = count_calls(monkeypatch, matching.condensed_pairwise_scores)
            labellings = count_calls(monkeypatch, resolver.components_from_condensed)
            assert main([
                "sweep", "--model", str(run / "model.json"),
                "--records", str(run / "test_records.csv"),
                "--validation-stats", str(run / "validation_stats.json"),
                "--grid-start", "0.5", "--grid-stop", "0.9", "--grid-steps", steps,
                "--write-clusterings", "--out", str(tmp_path / f"sweep{steps}"),
            ]) == EXIT_OK
            assert len(list((tmp_path / f"sweep{steps}").glob("clustering_*.csv"))) == \
                int(steps)
            counts.append((len(calls), len(labellings)))
            monkeypatch.undo()
        assert counts[0] == counts[1] == (1, 1)


class TestMemoryBudget:
    @pytest.mark.parametrize("command,flags", [
        ("sweep", ("--grid-start", "0.3", "--grid-stop", "0.7", "--grid-steps", "3")),
        ("resolve", ("--threshold", "0.3")),
    ], ids=["sweep", "resolve"])
    def test_over_budget_exits_3_naming_the_way_out(self, trained, tmp_path, capsys,
                                                     monkeypatch, command, flags):
        _, run = trained
        monkeypatch.setattr(matching, "MEMORY_BUDGET", 1000)
        out = tmp_path / "out"
        assert main([
            command, "--model", str(run / "model.json"),
            "--records", str(run / "test_records.csv"),
            "--validation-stats", str(run / "validation_stats.json"),
            *flags, "--out", str(out),
        ]) == EXIT_DATA
        err = capsys.readouterr().err
        n = len(erbound.load_records_csv(run / "test_records.csv",
                                         matching.load_model(run / "model.json").schema))
        assert f"scoring {n} records" in err and "at or above 0.3" in err
        assert "a higher --threshold or --grid-start keeps fewer pairs" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["generate", "--n-entities", "100000000000"],
        ["sweep", "--model", "m.json", "--records", "r.csv", "--validation-stats", "v.json",
         "--grid-steps", "1000000000000"],
    ], ids=["generate", "sweep"])
    def test_oversized_request_exits_3_without_traceback(self, tmp_path, capsys,
                                                         monkeypatch, argv):
        """The first large allocation of each request (the latents of
        `generate`, the grid of `sweep`) is made to fail as numpy fails, so
        no test allocates the array."""
        message = "Unable to allocate 7.28 TiB for an array with shape (1000000000000,)"

        def refuse(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(np, "linspace", refuse)
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: SimpleNamespace(uniform=refuse))
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err == f"error: out of memory: {message}\n"
        assert not out.exists()


class TestResolve:
    def test_gate_pass(self, trained, tmp_path):
        _, run = trained
        out = tmp_path / "res"
        code = main([
            "resolve", "--model", str(run / "model.json"),
            "--records", str(run / "test_records.csv"),
            "--validation-stats", str(run / "validation_stats.json"),
            "--threshold", "0.9", "--min-precision-lb", "0.5",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        report = json.loads((out / "bound_report.json").read_text())
        assert report["precision_lower_bound"] >= 0.5
        lines = (out / "clustering.csv").read_text().splitlines()
        assert lines[0] == "id,cluster_id"

    def test_gate_failure_still_writes_report(self, trained, tmp_path, capsys):
        _, run = trained
        out = tmp_path / "res_fail"
        code = main([
            "resolve", "--model", str(run / "model.json"),
            "--records", str(run / "test_records.csv"),
            "--validation-stats", str(run / "validation_stats.json"),
            "--threshold", "0.2", "--min-precision-lb", "0.99",
            "--out", str(out),
        ])
        assert code == EXIT_GATE
        assert (out / "bound_report.json").exists()
        assert "quality gate failed" in capsys.readouterr().err

    def test_clustering_equals_resolution_from_every_pair(self, trained, tmp_path):
        """`resolve` writes the clustering of its one-point sweep's labels;
        its partition and cluster ids are those of the reference resolver,
        which asks the thresholded score of every pair."""
        _, run = trained
        out = tmp_path / "res"
        assert main([
            "resolve", "--model", str(run / "model.json"),
            "--records", str(run / "test_records.csv"),
            "--validation-stats", str(run / "validation_stats.json"),
            "--threshold", "0.5", "--out", str(out),
        ]) == EXIT_OK
        model = matching.load_model(run / "model.json")
        records = list(erbound.load_records_csv(run / "test_records.csv", model.schema))
        expected = oracle_resolution(model, records, 0.5)
        assert len(expected) < len(records)
        assert_clustering_file(out / "clustering.csv", expected)

    def test_clustering_stable_across_reruns(self, trained, tmp_path):
        _, run = trained
        outs = [tmp_path / "r1", tmp_path / "r2"]
        for out in outs:
            assert main([
                "resolve", "--model", str(run / "model.json"),
                "--records", str(run / "test_records.csv"),
                "--validation-stats", str(run / "validation_stats.json"),
                "--threshold", "0.85", "--out", str(out),
            ]) == EXIT_OK
        assert sha256(outs[0] / "clustering.csv") == sha256(outs[1] / "clustering.csv")


    @pytest.mark.parametrize("threshold", ["1.5", "-0.5", "0", "1"])
    def test_threshold_out_of_range(self, trained, tmp_path, capsys, threshold):
        _, run = trained
        out = tmp_path / "res_bad"
        assert main([
            "resolve", "--model", str(run / "model.json"),
            "--records", str(run / "test_records.csv"),
            "--validation-stats", str(run / "validation_stats.json"),
            "--threshold", threshold, "--out", str(out),
        ]) == EXIT_DATA
        assert "--threshold" in capsys.readouterr().err
        assert not (out / "clustering.csv").exists()


    def test_undefined_bound_writes_nulls(self, trained, tmp_path, capsys):
        _, run = trained
        argv = ["resolve", "--model", str(run / "model.json"),
                "--records", str(run / "test_records.csv"),
                "--validation-stats", str(run / "validation_stats.json"),
                "--threshold", "0.99999"]
        out = tmp_path / "res_undef"
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        assert "undefined" in capsys.readouterr().err
        assert (out / "clustering.csv").exists()
        report = json.loads((out / "bound_report.json").read_text())
        for key in ("c_t_estimate", "precision_lower_bound", "f1_lower_bound"):
            assert report[key] is None
        assert report["intervals"]["precision"] is None
        assert report["intervals"]["f1"] is None
        assert report["recall_lower_bound"] is not None
        assert len(report["intervals"]["recall"]) == 2

        gated = tmp_path / "res_undef_gate"
        assert main([*argv, "--min-f1-lb", "0.5", "--out", str(gated)]) == EXIT_GATE
        assert "f1_lb=undefined" in capsys.readouterr().err
        assert (gated / "bound_report.json").exists()

    def test_uninformative_matcher_warns(self, trained, tmp_path, capsys):
        """With every validation label flipped, negatives outscore positives:
        the bound is undefined and the warning names TPR <= FPR."""
        _, run = trained
        doc = json.loads((run / "validation_stats.json").read_text())
        for pair in doc["pairs"]:
            pair["label"] = 1 - pair["label"]
        flipped = tmp_path / "validation_stats.json"
        flipped.write_text(json.dumps(doc))
        out = tmp_path / "res"
        assert main(["resolve", "--model", str(run / "model.json"),
                     "--records", str(run / "test_records.csv"),
                     "--validation-stats", str(flipped), "--out", str(out)]) == EXIT_OK
        err = capsys.readouterr().err
        assert "precision and F1 bounds undefined at threshold 0.5" in err
        assert "TPR does not exceed FPR" in err
        report = json.loads((out / "bound_report.json").read_text())
        assert report["precision_lower_bound"] is None
        assert report["recall_lower_bound"] is not None

    def test_report_equals_sweep_row(self, trained, tmp_path):
        _, run = trained
        inputs = ["--model", str(run / "model.json"),
                  "--records", str(run / "test_records.csv"),
                  "--validation-stats", str(run / "validation_stats.json")]
        assert main(["sweep", *inputs, "--grid-start", "0.5", "--grid-stop", "0.9",
                     "--grid-steps", "5", "--out", str(tmp_path / "sweep")]) == EXIT_OK
        rows, _ = read_sweep_csv(tmp_path / "sweep" / "sweep.csv")
        for row in rows:
            out = tmp_path / f"res{row['threshold']}"
            assert main(["resolve", *inputs, "--threshold", row["threshold"],
                         "--out", str(out)]) == EXIT_OK
            report = json.loads((out / "bound_report.json").read_text())
            assert set(report) == {
                "r_pairs", "tm_pairs", "c_t_estimate", "precision_lower_bound",
                "recall_lower_bound", "f1_lower_bound", "confidence_level", "intervals"}
            assert set(report["intervals"]) == {"precision", "recall", "f1"}
            assert report["confidence_level"] == 0.95
            intervals = report["intervals"]
            cells = {
                "r_pairs": report["r_pairs"], "tm_pairs": report["tm_pairs"],
                "c_t_est": report["c_t_estimate"],
                "prec_lb": report["precision_lower_bound"],
                "rec_lb": report["recall_lower_bound"],
                "f1_lb": report["f1_lower_bound"],
                "prec_lb_lo": intervals["precision"][0],
                "prec_lb_hi": intervals["precision"][1],
                "rec_lb_lo": intervals["recall"][0], "rec_lb_hi": intervals["recall"][1],
                "f1_lb_lo": intervals["f1"][0], "f1_lb_hi": intervals["f1"][1],
            }
            for column, value in cells.items():
                assert _fmt(value) == row[column], column


class TestRangeChecks:
    @pytest.mark.parametrize("command,flag,value,output", [
        ("train", "--threshold", "0", "model.json"),
        ("sweep", "--recall-floor", "7", "sweep.csv"),
        ("sweep", "--recall-floor", "-0.1", "sweep.csv"),
        ("sweep", "--confidence", "0", "sweep.csv"),
        ("sweep", "--ct", "1", "sweep.csv"),
        ("resolve", "--confidence", "1.5", "clustering.csv"),
        ("resolve", "--ct", "1.5", "clustering.csv"),
        ("resolve", "--ct", "0", "clustering.csv"),
        ("resolve", "--min-f1-lb", "nan", "clustering.csv"),
        ("resolve", "--min-precision-lb", "-1", "clustering.csv"),
        ("resolve", "--min-recall-lb", "1.5", "clustering.csv"),
    ])
    def test_probability_flag_out_of_range(self, trained, tmp_path, capsys,
                                           command, flag, value, output):
        data, run = trained
        out = tmp_path / "out"
        if command == "train":
            code = run_train(data, out, extra=(flag, value))
        else:
            code = main([command, "--model", str(run / "model.json"),
                         "--records", str(run / "test_records.csv"),
                         "--validation-stats", str(run / "validation_stats.json"),
                         flag, value, "--out", str(out)])
        assert code == EXIT_DATA
        assert flag in capsys.readouterr().err
        assert not (out / output).exists()

    @pytest.mark.parametrize("command,flag,value,shown", [
        ("train", "--n-train-pairs", "-5", "n_train_pairs must be nonnegative, got -5"),
        ("train", "--n-validation-pairs", "-1", "n_validation_pairs must be nonnegative, got -1"),
        ("train", "--n-train-pairs", "1", "n_train_pairs must be at least 2 for train, got 1"),
        ("train", "--n-validation-pairs", "1",
         "n_validation_pairs must be at least 2 for train, got 1"),
        ("train", "--epochs", "0", "epochs must be >= 1, got 0"),
        ("train", "--positive-fraction-train", "1",
         "positive_fraction_train must lie strictly inside (0, 1), got 1.0"),
        ("generate", "--n-entities", "0", "n_entities must be positive, got 0"),
        ("generate", "--records-per-entity", "0", "records_per_entity must be positive, got 0"),
        ("generate", "--dims", "0", "dims must be positive, got 0"),
    ])
    def test_count_setting_named_before_any_input(self, tmp_path, capsys,
                                                  command, flag, value, shown):
        """A bad count or split setting is named with its value before any
        input is opened: `train`'s inputs here do not exist."""
        out = tmp_path / "out"
        if command == "train":
            code = run_train(tmp_path / "missing", out, extra=(flag, value))
        else:
            code = run_generate(out, extra=(flag, value))
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert shown in err and "missing" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "train"])
    def test_negative_seed_names_the_flag(self, trained, tmp_path, capsys, command):
        """numpy's own error for a negative seed names no flag; the range
        check names it before any input is read."""
        data, _ = trained
        out = tmp_path / "out"
        extra = ("--seed", "-1")
        code = run_train(data, out, extra) if command == "train" else run_generate(out, extra=extra)
        assert code == EXIT_DATA
        assert "--seed must be non-negative, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,flag,value,field", [
        ("train", "--learning-rate", "nan", "learning_rate"),
        ("train", "--learning-rate", "inf", "learning_rate"),
        ("train", "--l2", "inf", "l2"),
        ("train", "--l2", "nan", "l2"),
        ("generate", "--noise-sigma", "nan", "noise_sigma"),
        ("generate", "--noise-sigma", "inf", "noise_sigma"),
    ])
    def test_non_finite_setting_rejected(self, trained, tmp_path, capsys,
                                         command, flag, value, field):
        """A NaN or infinite setting is named, not trained on (which gave
        all-zero weights) or blamed on the data it would produce."""
        data, _ = trained
        out = tmp_path / "out"
        if command == "train":
            code = run_train(data, out, extra=(flag, value))
        else:
            code = run_generate(out, extra=(flag, value))
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert field in err and "finite" in err and "feature" not in err
        assert not out.exists()

    def test_gate_floor_from_config_file_checked(self, trained, tmp_path, capsys):
        """A NaN floor passed every gate; read from a config file it is
        rejected like the flag, before anything is written."""
        _, run = trained
        cfg, out = tmp_path / "gate.cfg", tmp_path / "out"
        cfg.write_text("min-f1-lb=nan\n")
        assert main(["resolve", "--config", str(cfg), "--model", str(run / "model.json"),
                     "--records", str(run / "test_records.csv"),
                     "--validation-stats", str(run / "validation_stats.json"),
                     "--out", str(out)]) == EXIT_DATA
        assert "--min-f1-lb must lie in [0, 1], got nan" in capsys.readouterr().err
        assert not out.exists()

    def test_recall_floor_endpoints_accepted(self, trained, tmp_path):
        _, run = trained
        for floor in ("0", "1"):
            assert main(["sweep", "--model", str(run / "model.json"),
                         "--records", str(run / "test_records.csv"),
                         "--validation-stats", str(run / "validation_stats.json"),
                         "--grid-steps", "2", "--recall-floor", floor,
                         "--out", str(tmp_path / floor)]) == EXIT_OK


class TestMalformedInputs:
    def resolve(self, run, tmp_path, model=None, stats=None):
        return main([
            "resolve", "--model", str(model or run / "model.json"),
            "--records", str(run / "test_records.csv"),
            "--validation-stats", str(stats or run / "validation_stats.json"),
            "--out", str(tmp_path / "out"),
        ])

    def test_model_without_bias(self, trained, tmp_path, capsys):
        _, run = trained
        doc = json.loads((run / "model.json").read_text())
        del doc["bias"]
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(doc))
        assert self.resolve(run, tmp_path, model=bad) == EXIT_DATA
        err = capsys.readouterr().err
        assert str(bad) in err and "'bias'" in err
        bad.write_text("[]")
        assert self.resolve(run, tmp_path, model=bad) == EXIT_DATA
        assert str(bad) in capsys.readouterr().err

    def test_stats_pair_without_score(self, trained, tmp_path, capsys):
        _, run = trained
        doc = json.loads((run / "validation_stats.json").read_text())
        del doc["pairs"][3]["score"]
        bad = tmp_path / "validation_stats.json"
        bad.write_text(json.dumps(doc))
        assert self.resolve(run, tmp_path, stats=bad) == EXIT_DATA
        err = capsys.readouterr().err
        assert str(bad) in err and "'score'" in err
        bad.write_text("[]")
        assert self.resolve(run, tmp_path, stats=bad) == EXIT_DATA
        assert str(bad) in capsys.readouterr().err


    @pytest.mark.parametrize("field,value,shown", [
        ("weights", "heavy", "'heavy'"),
        ("threshold", 1.5, "threshold must lie"),
        # a JSON string or boolean is no number, though `float` reads one
        ("weights", "0.25", "field 'weights' must be a JSON number, got '0.25'"),
        ("threshold", "0.5", "field 'threshold' must be a JSON number, got '0.5'"),
        ("bias", True, "field 'bias' must be a JSON number, got True"),
        # the stored training config follows the same rule; epochs and seed are integers
        ("config.learning_rate", True,
         "field 'config.learning_rate' must be a JSON number, got True"),
        ("config.l2", "0.01", "field 'config.l2' must be a JSON number, got '0.01'"),
        ("config.epochs", 2.5, "field 'config.epochs' must be a JSON integer, got 2.5"),
        ("config.epochs", True, "field 'config.epochs' must be a JSON integer, got True"),
        ("config.seed", "x", "field 'config.seed' must be a JSON integer, got 'x'"),
        ("config", [1], "malformed model document"),
    ])
    def test_model_value_wrong_type_or_range(self, trained, tmp_path, capsys,
                                             field, value, shown):
        _, run = trained
        doc = json.loads((run / "model.json").read_text())
        if field == "weights":
            doc["weights"][0] = value
        elif field.startswith("config."):
            doc["config"][field.removeprefix("config.")] = value
        else:
            doc[field] = value
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(doc))
        assert self.resolve(run, tmp_path, model=bad) == EXIT_DATA
        err = capsys.readouterr().err
        assert str(bad) in err and shown in err
        assert not (tmp_path / "out" / "clustering.csv").exists()

    @pytest.mark.parametrize("field,value", [
        ("weights", float("nan")), ("weights", float("inf")), ("bias", float("nan")),
        ("bias", float("-inf")), ("feature_means", float("nan")),
        ("feature_scales", float("inf")),
        pytest.param("weights", 10 ** 400, id="weights-401-digits"),  # beyond float range
    ])
    def test_model_value_not_finite(self, trained, tmp_path, capsys, field, value):
        _, run = trained
        doc = json.loads((run / "model.json").read_text())
        if field == "bias":
            doc["bias"] = value
        else:
            key = {"weights": None, "feature_means": "mean", "feature_scales": "scale"}[field]
            (doc["standardization"][key] if key else doc["weights"])[1] = value
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(doc))
        assert self.resolve(run, tmp_path, model=bad) == EXIT_DATA
        err = capsys.readouterr().err
        assert str(bad) in err and f"{field} must be finite" in err
        assert not (tmp_path / "out" / "clustering.csv").exists()

    def test_stats_format_version_unsupported(self, trained, tmp_path, capsys):
        _, run = trained
        doc = json.loads((run / "validation_stats.json").read_text())
        doc["format_version"] = 99
        bad = tmp_path / "validation_stats.json"
        bad.write_text(json.dumps(doc))
        assert self.resolve(run, tmp_path, stats=bad) == EXIT_DATA
        assert f"{bad}: unsupported stats format_version 99" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_gold_id_repeated_after_unlabeled_row(self, trained, tmp_path, capsys):
        """A gold row's id counts whether it is labeled or not: `r1,` then
        `r1,e1` is a repeat, not a label given late."""
        data, _ = trained
        gold = tmp_path / "gold.csv"
        gold.write_text("id,label\nr1,\nr1,e1\n")
        assert main(["train", "--records", str(data / "records.csv"), "--gold", str(gold),
                     "--schema", str(data / "schema.json"),
                     "--out", str(tmp_path / "out")]) == EXIT_DATA
        assert f"{gold}:3: duplicate id 'r1'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("score", [float("nan"), float("inf"), float("-inf"), 1.7, -0.2])
    def test_stats_score_outside_unit_interval(self, trained, tmp_path, capsys, score):
        _, run = trained
        doc = json.loads((run / "validation_stats.json").read_text())
        doc["pairs"][3]["score"] = score
        bad = tmp_path / "validation_stats.json"
        bad.write_text(json.dumps(doc))
        assert self.resolve(run, tmp_path, stats=bad) == EXIT_DATA
        err = capsys.readouterr().err
        assert str(bad) in err and "'score'" in err and repr(score) in err
        assert not (tmp_path / "out" / "clustering.csv").exists()

    def test_stats_score_wrong_type(self, trained, tmp_path, capsys):
        _, run = trained
        doc = json.loads((run / "validation_stats.json").read_text())
        doc["pairs"][3]["score"] = "high"
        bad = tmp_path / "validation_stats.json"
        bad.write_text(json.dumps(doc))
        assert self.resolve(run, tmp_path, stats=bad) == EXIT_DATA
        err = capsys.readouterr().err
        assert str(bad) in err and "'high'" in err
        assert not (tmp_path / "out" / "clustering.csv").exists()

    @pytest.mark.parametrize("label", [2, -1, 0.7])
    def test_stats_label_not_zero_or_one(self, trained, tmp_path, capsys, label):
        _, run = trained
        doc = json.loads((run / "validation_stats.json").read_text())
        doc["pairs"][3]["label"] = label
        bad = tmp_path / "validation_stats.json"
        bad.write_text(json.dumps(doc))
        assert self.resolve(run, tmp_path, stats=bad) == EXIT_DATA
        err = capsys.readouterr().err
        assert str(bad) in err and "'label'" in err and repr(label) in err
        assert not (tmp_path / "out" / "clustering.csv").exists()

    @pytest.mark.parametrize("field,value", [("score", True), ("label", True), ("score", "0.87")],
                             ids=["score", "label", "score-string"])
    def test_stats_boolean_rejected(self, trained, tmp_path, capsys, field, value):
        """A JSON `true` is not read as 1, nor a JSON string as a number."""
        _, run = trained
        doc = json.loads((run / "validation_stats.json").read_text())
        doc["pairs"][3][field] = value
        bad = tmp_path / "validation_stats.json"
        bad.write_text(json.dumps(doc))
        assert self.resolve(run, tmp_path, stats=bad) == EXIT_DATA
        err = capsys.readouterr().err
        assert str(bad) in err and f"'{field}'" in err and f"got {value!r}" in err
        assert not (tmp_path / "out" / "clustering.csv").exists()

    @pytest.mark.parametrize("keep,shown", [
        (lambda pair: False, "got 0 positives of 0"),
        (lambda pair: pair["label"] == 1, "positives of"),
    ], ids=["no-pairs", "one-label"])
    def test_stats_without_both_labels_names_file(self, trained, tmp_path, capsys,
                                                  keep, shown):
        _, run = trained
        doc = json.loads((run / "validation_stats.json").read_text())
        doc["pairs"] = [pair for pair in doc["pairs"] if keep(pair)]
        bad = tmp_path / "validation_stats.json"
        bad.write_text(json.dumps(doc))
        assert self.resolve(run, tmp_path, stats=bad) == EXIT_DATA
        err = capsys.readouterr().err
        assert str(bad) in err and "both labels" in err and shown in err
        assert not (tmp_path / "out" / "clustering.csv").exists()

    @pytest.mark.parametrize("command", ["sweep", "resolve"])
    def test_one_record_names_records_file(self, trained, tmp_path, capsys, command):
        _, run = trained
        one = tmp_path / "one.csv"
        one.write_text("".join((run / "test_records.csv").read_text().splitlines(True)[:2]))
        assert main([
            command, "--model", str(run / "model.json"), "--records", str(one),
            "--validation-stats", str(run / "validation_stats.json"),
            "--out", str(tmp_path / "out"),
        ]) == EXIT_DATA
        err = capsys.readouterr().err
        assert str(one) in err and "needs at least 2 test records, got 1" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("which", ["model", "stats"])
    def test_unparseable_json_names_file(self, trained, tmp_path, capsys, which):
        _, run = trained
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert self.resolve(run, tmp_path, **{which: bad}) == EXIT_DATA
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("text,shown", [
        ("{not json", "line 1"),
        ('{"features": [{"name": "x", "kind": "blob"}]}', "'blob'"),
        ('{"features": []}', "schema has no features"),
    ])
    def test_bad_schema_names_file(self, trained, tmp_path, capsys, text, shown):
        data, _ = trained
        bad = tmp_path / "schema.json"
        bad.write_text(text)
        assert main(["train", "--records", str(data / "records.csv"),
                     "--gold", str(data / "gold.csv"), "--schema", str(bad),
                     "--out", str(tmp_path / "t")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert str(bad) in err and shown in err

    @pytest.mark.parametrize("which,content,shown", [
        ("records", NOT_UTF8, "UTF-8"), ("gold", NOT_UTF8, "UTF-8"),
        ("config", NOT_UTF8, "UTF-8"), ("records", b"", "empty file"),
        ("gold", b"", "empty file"),
    ], ids=["records-not-utf8", "gold-not-utf8", "config-not-utf8", "records-empty",
            "gold-empty"])
    def test_unreadable_input_names_file(self, trained, tmp_path, capsys,
                                         which, content, shown):
        data, run = trained
        bad = tmp_path / "bad.bin"
        bad.write_bytes(content)
        out = str(tmp_path / "out")
        if which == "records":
            code = main([
                "resolve", "--model", str(run / "model.json"), "--records", str(bad),
                "--validation-stats", str(run / "validation_stats.json"), "--out", out])
        elif which == "gold":
            code = main([
                "sweep", "--model", str(run / "model.json"),
                "--records", str(run / "test_records.csv"),
                "--validation-stats", str(run / "validation_stats.json"),
                "--gold", str(bad), "--out", out])
        else:
            code = main(["generate", "--config", str(bad), "--out", out])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert str(bad) in err and shown in err


class TestConfigFile:
    def test_file_values_and_flag_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n-entities=7\nrecords_per_entity=3\nseed=4\n")
        out = tmp_path / "gen"
        assert main(["generate", "--config", str(cfg), "--out", str(out),
                     "--seed", "9"]) == EXIT_OK
        assert "21 records" in capsys.readouterr().out
        effective = (out / "generate.effective.cfg").read_text()
        assert "n_entities=7" in effective
        assert "seed=9" in effective  # explicit flag beats the file
        # a file saved with a UTF-8 byte-order mark reads the same
        cfg.write_bytes(b"\xef\xbb\xbf" + cfg.read_bytes())
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "bom"),
                     "--seed", "9"]) == EXIT_OK
        assert (tmp_path / "bom" / "generate.effective.cfg").read_text() == \
            effective.replace(str(out), str(tmp_path / "bom"))

    def test_effective_config_replays(self, trained, tmp_path):
        """Each command's effective config, given back with `--config` and a
        fresh `--out`, rewrites every other output byte for byte; options
        left unset (`--gold`, `--ct`, the gate floors) are left out."""
        data, _ = trained
        first, again = tmp_path / "first", tmp_path / "again"
        common = ["--model", str(first / "train" / "model.json"),
                  "--records", str(first / "train" / "test_records.csv"),
                  "--validation-stats", str(first / "train" / "validation_stats.json")]
        commands = {
            "train": ["train", "--records", str(data / "records.csv"),
                      "--gold", str(data / "gold.csv"), "--schema", str(data / "schema.json"),
                      "--n-train-pairs", "40", "--n-validation-pairs", "60"],
            "sweep": ["sweep", *common, "--grid-steps", "5", "--write-clusterings"],
            "resolve": ["resolve", *common],
        }
        for command, argv in commands.items():
            out, replay = first / command, again / command
            cfg = out / f"{command}.effective.cfg"
            assert main([*argv, "--out", str(out)]) == EXIT_OK
            assert "None" not in cfg.read_text()
            assert main([command, "--config", str(cfg), "--out", str(replay)]) == EXIT_OK
            names = sorted(p.name for p in out.iterdir())
            assert sorted(p.name for p in replay.iterdir()) == names
            for path in out.iterdir():
                expected = path.read_text().replace(str(out), str(replay))
                assert (replay / path.name).read_text() == expected, path.name

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("entities=7\n")
        assert main(["generate", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == EXIT_DATA
        assert f"{cfg}:1: unknown config key 'entities'" in capsys.readouterr().err

    @pytest.mark.parametrize("command,line,shown", [
        ("generate", "seed=ten", "config key 'seed': invalid literal for int()"),
        ("sweep", "select_metric=f2", "config key 'select_metric': 'f2' not in"),
    ], ids=["bad-type", "bad-choice"])
    def test_bad_value_names_file_and_line(self, tmp_path, capsys, command, line, shown):
        """A value of the wrong type or outside the choices is reported at
        the file and line of its key, past comments and blank lines, before
        any input is read."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# a comment\n\n{line}\n")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "x")]) == EXIT_DATA
        assert f"error: {cfg}:3: {shown}" in capsys.readouterr().err

    @pytest.mark.parametrize("value,code,written", [
        ("ture", EXIT_DATA, False), ("2", EXIT_DATA, False), ("", EXIT_DATA, False),
        ("YES", EXIT_OK, True), ("1", EXIT_OK, True), ("False", EXIT_OK, False),
        ("no", EXIT_OK, False),
    ])
    def test_boolean_values(self, trained, tmp_path, capsys, value, code, written):
        """A boolean key takes 1/0/true/false/yes/no in any case; a typo is
        an error, not False."""
        _, run = trained
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"write_clusterings={value}\n")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--model", str(run / "model.json"),
                     "--records", str(run / "test_records.csv"),
                     "--validation-stats", str(run / "validation_stats.json"),
                     "--grid-steps", "2", "--out", str(out)]) == code
        assert any(out.glob("clustering_*.csv")) == written
        if code == EXIT_DATA:
            assert f"{cfg}:1: config key 'write_clusterings'" in capsys.readouterr().err

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n")
        assert main(["generate", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == EXIT_DATA


class TestUsageErrors:
    def test_missing_required_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--out", "somewhere"])
        assert exc.value.code == 2

    def test_gold_mode_option_removed(self, trained, tmp_path):
        data, _ = trained
        with pytest.raises(SystemExit) as exc:
            run_train(data, tmp_path / "t", extra=("--gold-mode", "cluster-labels"))
        assert exc.value.code == 2

    def test_train_confidence_option_removed(self, trained, tmp_path):
        """`train`'s validation summary takes its Wilson intervals at 0.95;
        the confidence of the bounds is set by `sweep` and `resolve`."""
        data, _ = trained
        with pytest.raises(SystemExit) as exc:
            run_train(data, tmp_path / "t", extra=("--confidence", "0.9"))
        assert exc.value.code == 2
        assert not (tmp_path / "t").exists()

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["conflate"])
        assert exc.value.code == 2

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        assert main([
            "resolve", "--model", str(tmp_path / "nope.json"),
            "--records", str(tmp_path / "nope.csv"),
            "--validation-stats", str(tmp_path / "nope2.json"),
            "--out", str(tmp_path / "o"),
        ]) == EXIT_DATA

    def test_directory_path_is_data_error(self, trained, tmp_path, capsys):
        _, run = trained
        assert main([
            "resolve", "--model", str(run / "model.json"), "--records", str(tmp_path),
            "--validation-stats", str(run / "validation_stats.json"),
            "--out", str(tmp_path / "o"),
        ]) == EXIT_DATA
        assert str(tmp_path) in capsys.readouterr().err


class TestEncoding:
    NAMES = ["Zoë", "José", "Łukasz", "Øystein", "Renée", "Jürgen", "Ñuño", "Åsa", "Chloé",
             "Małgorzata"]
    CITIES = ["Zürich", "Köln", "Málaga", "Québec", "Kraków"]

    def write_inputs(self, data: Path) -> None:
        """40 records of 10 entities, with ids such as `é00_0` and `李01_2`,
        a `prénom` text feature and accented values, written as UTF-8 with
        the schema's names unescaped."""
        data.mkdir()
        schema = {"features": [{"name": "prénom", "kind": "text"},
                               {"name": "ville", "kind": "categorical"},
                               {"name": "âge", "kind": "numeric"}]}
        (data / "schema.json").write_text(json.dumps(schema, ensure_ascii=False),
                                          encoding="utf-8")
        records, gold = ["id,prénom,ville,âge"], ["id,label"]
        for e, name in enumerate(self.NAMES):
            for k, variant in enumerate([name, name.lower(), name[:-1], name]):
                rid = f"{'é李'[e % 2]}{e:02d}_{k}"
                records.append(f"{rid},{variant},{self.CITIES[e % 5]},{20 + 3 * e + k % 2}")
                gold.append(f"{rid},entité{e}")
        (data / "records.csv").write_text("\n".join(records) + "\n", encoding="utf-8")
        (data / "gold.csv").write_text("\n".join(gold) + "\n", encoding="utf-8")

    def test_outputs_do_not_depend_on_the_locale(self, tmp_path):
        """Under `PYTHONUTF8=0 LC_ALL=C`, whose preferred encoding is not
        UTF-8, `train`, `sweep --gold --write-clusterings` and `resolve` on a
        set with non-ASCII ids, feature names and values, and a non-ASCII
        `--out` given in argv as a shell gives it, and a `resolve` replayed
        from the first one's effective config, whose paths hold that
        `--out`, exit and write every file as under UTF-8 mode, byte for
        byte."""
        self.write_inputs(tmp_path / "data")
        env = dict(os.environ, PYTHONPATH=str(Path(erbound.__file__).parents[1]))
        envs = {"c": dict(env, PYTHONUTF8="0", LC_ALL="C"), "utf8": dict(env, PYTHONUTF8="1")}
        done = subprocess.run(
            [sys.executable, "-c", "import locale; print(locale.getpreferredencoding(False))"],
            env=envs["c"], capture_output=True, text=True, timeout=60)
        assert done.stdout.strip().lower().replace("-", "") not in ("utf8", ""), done.stdout
        common = ["--model", "runé/model.json", "--records", "runé/test_records.csv",
                  "--validation-stats", "runé/validation_stats.json"]
        argv = [
            "train", "--out", "runé", "--records", "../data/records.csv",
            "--gold", "../data/gold.csv", "--schema", "../data/schema.json",
            "--n-train-pairs", "6", "--n-validation-pairs", "6", ";",
            "sweep", "--out", "sweep", *common, "--gold", "runé/test_gold.csv",
            "--grid-steps", "5", "--write-clusterings", ";",
            "resolve", "--out", "resolve", *common, ";",
            "resolve", "--config", "resolve/resolve.effective.cfg", "--out", "resolve2",
        ]
        script = ("import itertools, sys\nfrom erbound.cli import main\n"
                  "print([main(list(argv)) for sep, argv in itertools.groupby("
                  "sys.argv[1:], lambda a: a == ';') if not sep])")
        runs, errors = {}, {}
        for name, child_env in envs.items():
            cwd = tmp_path / name
            cwd.mkdir()
            done = subprocess.run([sys.executable, "-c", script, *argv],
                                  env=child_env, cwd=cwd, capture_output=True, timeout=120)
            files = {str(p.relative_to(cwd)): p.read_bytes()
                     for p in sorted(cwd.rglob("*")) if p.is_file()}
            runs[name], errors[name] = (done.returncode, done.stdout, files), done.stderr
        code, stdout, files = runs["utf8"]
        assert code == 0 and stdout.splitlines()[-1] == b"[0, 0, 0, 0]", errors["utf8"]
        assert all(c.encode() in files["resolve/clustering.csv"] for c in "é李")
        assert files["resolve2/clustering.csv"] == files["resolve/clustering.csv"]
        assert runs["c"] == runs["utf8"], errors["c"]


class TestImports:
    def test_commands_leave_numpy_ma_unimported(self, tmp_path, mixed_schema):
        """`train`, `sweep` and `resolve` on mixed records never import
        `numpy.ma`. A plain `np.unique` pulls it in, which would add its
        import time and memory to every command."""
        rng = np.random.default_rng(23)
        records = random_records(rng, mixed_schema, 150, words=random_words(rng, 60))
        write_records_csv(tmp_path / "records.csv", record_table(records, mixed_schema))
        write_gold_csv(tmp_path / "gold.csv",
                       GoldTruth({r.record_id: f"e{k % 50}" for k, r in enumerate(records)}))
        save_schema_json(tmp_path / "schema.json", mixed_schema)
        run = tmp_path / "run"
        common = ["--model", str(run / "model.json"), "--records",
                  str(run / "test_records.csv"), "--validation-stats",
                  str(run / "validation_stats.json")]
        argvs = [
            ["train", "--out", str(run), "--records", str(tmp_path / "records.csv"),
             "--gold", str(tmp_path / "gold.csv"), "--schema", str(tmp_path / "schema.json"),
             "--n-train-pairs", "40", "--n-validation-pairs", "40"],
            ["sweep", "--out", str(tmp_path / "sweep"), *common,
             "--gold", str(run / "test_gold.csv")],
            ["resolve", "--out", str(tmp_path / "resolve"), *common],
        ]
        script = ("import json, sys\nfrom erbound.cli import main\n"
                  "print([main(argv) for argv in json.loads(sys.argv[1])], "
                  "'numpy.ma' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=str(Path(erbound.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == f"{[EXIT_OK] * 3} False"


class TestProcessEntry:
    def test_process_matches_main(self, tmp_path, capsys, monkeypatch):
        """`python -m erbound.cli`, whose `console_main` freezes the
        collector before it exits, gives the exit codes, standard output and
        error, and output bytes of `main` called in process: `train`, `sweep
        --gold` and `resolve` with a failing gate (0, 0, 4), then a usage
        error (2). Each side runs in its own directory with the same
        relative paths, so the effective configs name the same paths.
        `main` leaves the collector unfrozen."""
        assert run_generate(tmp_path / "data") == EXIT_OK
        common = ["--model", "run/model.json", "--records", "run/test_records.csv",
                  "--validation-stats", "run/validation_stats.json"]
        argvs = [
            ["train", "--out", "run", "--records", "../data/records.csv",
             "--gold", "../data/gold.csv", "--schema", "../data/schema.json",
             "--n-train-pairs", "40", "--n-validation-pairs", "60"],
            ["sweep", "--out", "sweep", *common, "--gold", "run/test_gold.csv",
             "--grid-steps", "7"],
            ["resolve", "--out", "resolve", *common, "--threshold", "0.2",
             "--min-precision-lb", "0.99"],
            ["resolve", "--out", "usage", *common, "--no-such-flag"],
        ]
        env = dict(os.environ, PYTHONPATH=str(Path(erbound.__file__).parents[1]))
        env.pop("PYTHONUNBUFFERED", None)  # a pipe is then block-buffered until the exit flush
        cwd = tmp_path / "process"
        cwd.mkdir()
        runs = [subprocess.run([sys.executable, "-m", "erbound.cli", *argv], env=env, cwd=cwd,
                               capture_output=True, text=True, timeout=120) for argv in argvs]
        process = [(done.returncode, done.stdout, done.stderr) for done in runs]

        def in_process(argv):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage error
                code = exc.code
            return (code, *capsys.readouterr())

        capsys.readouterr()
        (tmp_path / "in_process").mkdir()
        monkeypatch.chdir(tmp_path / "in_process")
        assert [in_process(argv) for argv in argvs] == process
        assert [code for code, _, _ in process] == [EXIT_OK, EXIT_OK, EXIT_GATE, 2]
        assert "unrecognized arguments: --no-such-flag" in process[-1][2]
        assert gc.get_freeze_count() == 0
        files = {name: {str(p.relative_to(tmp_path / name)): p.read_bytes()
                        for p in sorted((tmp_path / name).rglob("*")) if p.is_file()}
                 for name in ("process", "in_process")}
        assert "resolve/resolve.effective.cfg" in files["process"]
        assert files["in_process"] == files["process"]
