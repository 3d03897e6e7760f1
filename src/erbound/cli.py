"""Command-line driver: generate, train, sweep, resolve.

Every command accepts `--config FILE` with `key=value` lines (keys are the
long flag names, dashes or underscores); explicit flags override the file.
Each run writes its effective configuration (unset options left out) next
to its outputs, and `--config` reads it back to reproduce the run.

Exit codes: 0 success, 2 usage error, 3 data/configuration error or a
request too large for memory, 4 quality-gate failure.
"""

import argparse
import csv
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import bounds, dataset, matching, pipeline, resolver
from .errors import DataError, ErboundError

EXIT_OK = 0
EXIT_DATA = 3
EXIT_GATE = 4

STATS_FORMAT_VERSION = 1

# one column per `pipeline.SweepRow` field, in field order
SWEEP_COLUMNS = [
    "threshold", "r_pairs", "tm_pairs", "c_t_est",
    "prec_lb", "prec_lb_lo", "prec_lb_hi",
    "rec_lb", "rec_lb_lo", "rec_lb_hi",
    "f1_lb", "f1_lb_lo", "f1_lb_hi",
    "true_prec", "true_rec", "true_f1",
]

# options that must be present after merging the config file
_REQUIRED = {
    "generate": ("out",),
    "train": ("out", "records", "gold", "schema"),
    "sweep": ("out", "model", "records", "validation_stats"),
    "resolve": ("out", "model", "records", "validation_stats"),
}


def _read_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from exc
    values = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ErboundError(f"{path}:{line_no}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _merge_config(args: argparse.Namespace, argv: list[str],
                  sub: argparse.ArgumentParser) -> None:
    """Fill namespace values from the config file wherever the flag was not
    given on the command line."""
    if not args.config:
        return
    raw = _read_config_file(args.config)
    actions = {a.dest: a for a in sub._actions}
    given = {tok.split("=", 1)[0] for tok in argv}  # flags given as --flag or --flag=value
    explicit = {a.dest for a in sub._actions if given.intersection(a.option_strings)}
    for key, value in raw.items():
        dest = key.replace("-", "_")
        if dest not in actions or dest in ("help", "config"):
            raise ErboundError(f"unknown config key {key!r}")
        if dest in explicit:
            continue
        action = actions[dest]
        if isinstance(action, argparse._StoreTrueAction):
            if value.lower() not in ("1", "0", "true", "false", "yes", "no"):
                raise ErboundError(f"config key {key!r}: {value!r} is not 1/0/true/false/yes/no")
            parsed = value.lower() in ("1", "true", "yes")
        elif action.type is not None:
            try:
                parsed = action.type(value)
            except ValueError as exc:
                raise ErboundError(f"config key {key!r}: {exc}") from exc
        else:
            parsed = value
        if action.choices is not None and parsed not in action.choices:
            raise ErboundError(
                f"config key {key!r}: {parsed!r} not in {sorted(action.choices)}")
        setattr(args, dest, parsed)


def _write_effective_config(out_dir: Path, command: str, args: argparse.Namespace) -> None:
    lines = [f"{key}={value}" for key, value in sorted(vars(args).items())
             if key not in ("func", "config", "command") and value is not None]
    (out_dir / f"{command}.effective.cfg").write_text("\n".join(lines) + "\n")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return "%.10g" % value
    return str(value)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _check_ranges(args) -> None:
    """Range-check the command's probability and grid flags before any work
    is done. Only --recall-floor and the gate floors may take the endpoints
    0 and 1."""
    for dest in ("threshold", "confidence", "ct", "recall_floor",
                 "min_precision_lb", "min_recall_lb", "min_f1_lb"):
        value = getattr(args, dest, None)
        closed = dest not in ("threshold", "confidence", "ct")
        if value is None or (0.0 <= value <= 1.0 if closed else 0.0 < value < 1.0):
            continue
        where = "in [0, 1]" if closed else "strictly inside (0, 1)"
        raise ErboundError(f"--{dest.replace('_', '-')} must lie {where}, got {value}")
    if args.command != "sweep":
        return
    if not (0.0 < args.grid_start <= args.grid_stop < 1.0 and args.grid_steps >= 1):
        raise ErboundError("threshold grid must lie inside (0, 1) with steps >= 1")
    grid = _grid(args).tolist()
    if args.write_clusterings and len({f"{t:.6f}" for t in grid}) < len(set(grid)):
        raise ErboundError(f"--grid-steps {args.grid_steps} gives distinct thresholds that "
                           "share a clustering file name, which has 6 decimals")


def _grid(args) -> np.ndarray:
    return np.linspace(args.grid_start, args.grid_stop, args.grid_steps)


def cmd_generate(args) -> int:
    table, gold = dataset.generate_synthetic(
        n_entities=args.n_entities,
        records_per_entity=args.records_per_entity,
        dims=args.dims,
        noise_sigma=args.noise_sigma,
        seed=args.seed,
    )
    out = _out_dir(args)
    dataset.write_records_csv(out / "records.csv", table)
    dataset.write_gold_csv(out / "gold.csv", gold)
    dataset.save_schema_json(out / "schema.json", table.schema)
    _write_effective_config(out, "generate", args)
    print(f"wrote {len(table)} records, {len(gold.truth_pairs())} truth pairs to {out}")
    return EXIT_OK


def _stats_payload(split: dataset.Split, scores: np.ndarray, ids: list[str],
                   threshold: float, confidence: float) -> dict:
    """The validation stats file: each validation pair, its records named
    by the table's `ids` in sorted order, and the confusion at `threshold`."""
    rows, cols, labels = split.validation_pairs
    stats, = bounds.ValidationStats.from_scores(scores, labels, [threshold])
    summary = {
        **asdict(stats),
        "c_v": stats.c_v,
        "recall_v": stats.recall_v,
        "wilson_recall": list(bounds.wilson_interval(
            stats.n_true_match, stats.n_positive, confidence)),
        "precision_v": stats.precision_v,
        "wilson_precision": None if stats.precision_v is None else list(
            bounds.wilson_interval(stats.n_true_match, stats.n_predicted_match, confidence)),
    }
    return {
        "format_version": STATS_FORMAT_VERSION,
        "threshold": threshold,
        "confidence": confidence,
        "pairs": [
            {"id_a": min(ids[i], ids[j]), "id_b": max(ids[i], ids[j]),
             "label": label, "score": score}
            for i, j, label, score in zip(rows.tolist(), cols.tolist(), labels.tolist(),
                                          scores.tolist())
        ],
        "stats": summary,
    }


def load_validation_stats(path) -> tuple[np.ndarray, np.ndarray]:
    """Validation pair scores and 0/1 labels from a `train` stats file."""
    try:
        doc = json.loads(Path(path).read_text())
        if not isinstance(doc, dict):
            raise DataError(f"{path}: validation stats are not a JSON object")
        if doc.get("format_version") != STATS_FORMAT_VERSION:
            raise DataError(f"{path}: unsupported stats format_version "
                            f"{doc.get('format_version')!r}")
        scores = [p["score"] for p in doc["pairs"]]
        labels = [p["label"] for p in doc["pairs"]]
    except KeyError as exc:
        raise DataError(f"{path}: validation stats have no field {exc}") from exc
    except (TypeError, ValueError, IndexError) as exc:
        raise DataError(f"{path}: malformed validation stats: {exc}") from exc
    # a JSON string or boolean is no number, though numpy reads "0.5" and true as one
    bad = [s for s in scores if type(s) not in (int, float) or not 0.0 <= s <= 1.0]
    if bad:
        raise DataError(f"{path}: validation stats field 'score' must be a number in [0, 1], "
                        f"got {bad[0]!r}")
    bad = [label for label in labels if isinstance(label, bool) or label not in (0, 1)]
    if bad:
        raise DataError(f"{path}: validation stats field 'label' must be 0 or 1, "
                        f"got {bad[0]!r}")
    positives = sum(labels)
    if not 0 < positives < len(labels):
        raise DataError(f"{path}: validation pairs must include both labels "
                        f"(got {positives} positives of {len(labels)})")
    return np.array(scores, dtype=float), np.array(labels, dtype=int)


def cmd_train(args) -> int:
    schema = dataset.load_schema_json(args.schema)
    records = dataset.load_records_csv(args.records, schema)
    gold = dataset.load_gold(args.gold, valid_ids=records.ids)
    spec = dataset.SplitSpec(
        n_train_pairs=args.n_train_pairs,
        n_validation_pairs=args.n_validation_pairs,
        positive_fraction_train=args.positive_fraction_train,
        positive_fraction_validation=args.positive_fraction_validation,
        seed=args.seed,
    )
    config = matching.TrainConfig(learning_rate=args.learning_rate,
                                  epochs=args.epochs, l2=args.l2, seed=args.seed)
    model, split, scores = pipeline.train_pipeline(records, gold, spec, config,
                                                   threshold=args.threshold)
    out = _out_dir(args)
    matching.save_model(out / "model.json", model)
    payload = _stats_payload(split, scores, records.ids, args.threshold, args.confidence)
    (out / "validation_stats.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")
    dataset.write_records_csv(out / "test_records.csv", split.test_records)
    dataset.write_gold_csv(out / "test_gold.csv", split.test_gold)
    _write_effective_config(out, "train", args)

    s = payload["stats"]
    prec = "undefined" if s["precision_v"] is None else "%.4f" % s["precision_v"]
    print(f"trained on {len(split.train_pairs.labels)} pairs; "
          f"validation n={s['n_pairs']} c_v={s['c_v']:.3f} "
          f"precision_v={prec} recall_v={s['recall_v']:.4f}")
    print(f"test set: {len(split.test_records)} records")
    return EXIT_OK


def _load_test_records(args, model: matching.MatchModel) -> matching.PairColumns:
    records = dataset.load_records_csv(args.records, model.schema)
    if len(records) < 2:
        raise DataError(f"{args.records}: needs at least 2 test records, got {len(records)}")
    return records


def cmd_sweep(args) -> int:
    model = matching.load_model(args.model)
    records = _load_test_records(args, model)
    val_scores, val_labels = load_validation_stats(args.validation_stats)
    gold = dataset.load_gold(args.gold, valid_ids=records.ids) if args.gold else None
    sweep = pipeline.sweep_thresholds(model, records, val_scores, val_labels, _grid(args),
                                      gold=gold, c_t_override=args.ct,
                                      confidence=args.confidence)
    out = _out_dir(args)
    rows = []
    for row, labels in sweep:
        if args.write_clusterings:
            resolver.write_clustering_csv(out / f"clustering_{row.threshold:.6f}.csv", records.ids,
                                          resolver.resolve_from_condensed(records.ids, labels))
        rows.append(row)
    metric = args.select_metric
    best = pipeline.select_best_row(rows, metric, args.recall_floor)
    with open(out / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        for row in reversed(rows):  # the sweep yields the highest threshold first
            writer.writerow(_fmt(getattr(row, f.name)) for f in fields(row))
        fh.write(f"# select_metric={metric}\n")
        if args.recall_floor is not None:
            fh.write(f"# recall_floor={_fmt(args.recall_floor)}\n")
        if best is not None:
            fh.write(f"# best_threshold={_fmt(best.threshold)}\n")
            fh.write(f"# best_{metric}={_fmt(getattr(best, metric))}\n")
    best_doc = None if best is None else {
        "threshold": best.threshold,
        "select_metric": metric,
        "value": getattr(best, metric),
        "recall_floor": args.recall_floor,
    }
    (out / "best.json").write_text(json.dumps(best_doc, indent=2, sort_keys=True) + "\n")
    _write_effective_config(out, "sweep", args)
    if best is None:
        print("sweep finished; no threshold produced a defined bound")
    else:
        print(f"sweep finished; best {metric}={_fmt(getattr(best, metric))} "
              f"at threshold {_fmt(best.threshold)}")
    return EXIT_OK


def _shown(value: float | None) -> str:
    return "undefined" if value is None else "%.4f" % value


def _bound_report_doc(row: pipeline.SweepRow, confidence: float) -> dict:
    """The bound report of one sweep row; precision and F1 fields are null
    where the row leaves the bound undefined."""
    def interval(low, high):
        return None if low is None else [low, high]

    return {
        "r_pairs": row.r_pairs,
        "tm_pairs": row.tm_pairs,
        "c_t_estimate": row.c_t,
        "precision_lower_bound": row.precision_lb,
        "recall_lower_bound": row.recall_lb,
        "f1_lower_bound": row.f1_lb,
        "confidence_level": confidence,
        "intervals": {
            "precision": interval(row.precision_lb_lo, row.precision_lb_hi),
            "recall": interval(row.recall_lb_lo, row.recall_lb_hi),
            "f1": interval(row.f1_lb_lo, row.f1_lb_hi),
        },
    }


def cmd_resolve(args) -> int:
    model = matching.load_model(args.model)
    records = _load_test_records(args, model)
    val_scores, val_labels = load_validation_stats(args.validation_stats)
    threshold = model.threshold if args.threshold is None else args.threshold
    row, labels = next(pipeline.sweep_thresholds(model, records, val_scores, val_labels,
                                                 [threshold], c_t_override=args.ct,
                                                 confidence=args.confidence))
    cluster_ids = resolver.resolve_from_condensed(records.ids, labels)
    out = _out_dir(args)
    resolver.write_clustering_csv(out / "clustering.csv", records.ids, cluster_ids)
    (out / "bound_report.json").write_text(
        json.dumps(_bound_report_doc(row, args.confidence), indent=2, sort_keys=True) + "\n")
    _write_effective_config(out, "resolve", args)
    print(f"resolved {len(records)} records into {len(set(cluster_ids))} clusters "
          f"at threshold {_fmt(threshold)}")
    gates = [
        ("precision_lb", args.min_precision_lb, row.precision_lb),
        ("recall_lb", args.min_recall_lb, row.recall_lb),
        ("f1_lb", args.min_f1_lb, row.f1_lb),
    ]
    print(" ".join(f"{name}={_shown(value)}" for name, _, value in gates))
    if row.precision_lb is None:
        why = ("the validation pairs predict no match" if not (val_scores >= threshold).any()
               else "validation TPR does not exceed FPR, so C_T cannot be estimated")
        print(f"warning: precision and F1 bounds undefined at threshold {_fmt(threshold)}: "
              f"{why}", file=sys.stderr)

    failed = [(name, floor, value) for name, floor, value in gates
              if floor is not None and (value is None or value < floor)]
    for name, floor, value in failed:
        print(f"quality gate failed: {name}={_shown(value)}, required >= {floor}",
              file=sys.stderr)
    return EXIT_GATE if failed else EXIT_OK


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="erbound",
        description="Pairwise entity resolution with estimated performance lower bounds.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key=value file; flags override it")
        p.add_argument("--out", help="output directory")

    g = sub.add_parser("generate", help="write a synthetic dataset", allow_abbrev=False)
    add_common(g)
    g.add_argument("--n-entities", type=int, default=100)
    g.add_argument("--records-per-entity", type=int, default=10)
    g.add_argument("--dims", type=int, default=10)
    g.add_argument("--noise-sigma", type=float, default=0.02)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=cmd_generate)

    t = sub.add_parser("train", help="split, train the match model, score validation",
                       allow_abbrev=False)
    add_common(t)
    t.add_argument("--records")
    t.add_argument("--gold")
    t.add_argument("--schema")
    t.add_argument("--n-train-pairs", type=int, default=100)
    t.add_argument("--n-validation-pairs", type=int, default=100)
    t.add_argument("--positive-fraction-train", type=float, default=0.5)
    t.add_argument("--positive-fraction-validation", type=float, default=0.5)
    t.add_argument("--learning-rate", type=float, default=0.1)
    t.add_argument("--epochs", type=int, default=500)
    t.add_argument("--l2", type=float, default=0.01)
    t.add_argument("--threshold", type=float, default=0.5)
    t.add_argument("--confidence", type=float, default=0.95)
    t.add_argument("--seed", type=int, default=0)
    t.set_defaults(func=cmd_train)

    s = sub.add_parser("sweep", help="bound curves across a threshold grid",
                       allow_abbrev=False)
    add_common(s)
    s.add_argument("--model")
    s.add_argument("--records")
    s.add_argument("--validation-stats")
    s.add_argument("--gold", help="optional gold CSV to add true metrics")
    s.add_argument("--grid-start", type=float, default=0.05)
    s.add_argument("--grid-stop", type=float, default=0.95)
    s.add_argument("--grid-steps", type=int, default=19)
    s.add_argument("--confidence", type=float, default=0.95)
    s.add_argument("--ct", type=float, default=None,
                   help="fixed test class balance; default: estimate it")
    s.add_argument("--select-metric", choices=pipeline.SELECT_METRICS, default="f1_lb")
    s.add_argument("--recall-floor", type=float, default=None)
    s.add_argument("--write-clusterings", action="store_true")
    s.set_defaults(func=cmd_sweep)

    r = sub.add_parser("resolve", help="resolve at one threshold and gate on bounds",
                       allow_abbrev=False)
    add_common(r)
    r.add_argument("--model")
    r.add_argument("--records")
    r.add_argument("--validation-stats")
    r.add_argument("--threshold", type=float, default=None,
                   help="default: the model's stored threshold")
    r.add_argument("--confidence", type=float, default=0.95)
    r.add_argument("--ct", type=float, default=None)
    r.add_argument("--min-precision-lb", type=float, default=None)
    r.add_argument("--min-recall-lb", type=float, default=None)
    r.add_argument("--min-f1-lb", type=float, default=None)
    r.set_defaults(func=cmd_resolve)
    return parser, sub.choices


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, sub_map = build_parser()
    args = parser.parse_args(argv)
    sub = sub_map[args.command]
    try:
        _merge_config(args, argv, sub)
        for dest in _REQUIRED[args.command]:
            if getattr(args, dest) is None:
                sub.error(f"the following argument is required: --{dest.replace('_', '-')}")
        _check_ranges(args)
        return args.func(args)
    except (ErboundError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:  # numpy's names the array it could not allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_DATA


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
