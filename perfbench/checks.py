"""Checks on the files each CLI stage writes, and a file fingerprint for
the byte-identical rerun check.

Every check reads only the output files (and the stage's stdout for the
train dev accuracy); it never imports the package under test.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

LABELS = ("content_dense", "non_content_dense")
N_FOLDS = 10
N_CONFIDENCE_STRATA = 4
N_CUTOFFS = 6
BASELINES = ("baseline_always_dense", "baseline_article_length")
_DEV_ACCURACY = re.compile(r"^dev accuracy (\d+\.\d+) -> ", re.M)


class CheckError(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _rows(path: Path, n_cols: int, skip: int = 0) -> list[list[str]]:
    _require(path.is_file(), f"{path.name} missing")
    lines = path.read_text(encoding="utf-8").splitlines()[skip:]
    rows = [line.split("\t") for line in lines]
    for k, row in enumerate(rows):
        _require(len(row) == n_cols,
                 f"{path.name} row {k + skip + 1}: {len(row)} columns, "
                 f"expected {n_cols}")
    return rows


def _unit(text: str, what: str, high: float = 1.0) -> float:
    value = float(text)
    _require(math.isfinite(value) and 0.0 <= value <= high,
             f"{what} {text} outside [0, {high:g}]")
    return value


def _corpus_ids(path: Path) -> list[str]:
    _require(path.is_file(), f"{path.name} missing")
    ids = []
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            _require(isinstance(rec, dict) and "id" in rec,
                     f"{path.name}: record without id")
            ids.append(rec["id"])
    _require(len(set(ids)) == len(ids), f"{path.name}: duplicate ids")
    return ids


def _check_generate(out: Path, workload) -> None:
    ids = _corpus_ids(out / "data" / "corpus.jsonl")
    _require(len(ids) == workload.n_leads,
             f"corpus has {len(ids)} leads, expected {workload.n_leads}")
    labels = _rows(out / "data" / "labels.tsv", 2)
    _require([r[0] for r in labels] == ids, "labels.tsv ids differ from corpus")
    counts = [sum(r[1] == lab for r in labels) for lab in LABELS]
    _require(sum(counts) == len(ids) and min(counts) > 0,
             f"labels.tsv label counts {counts}")
    _require((out / "data" / "lexicon.txt").stat().st_size > 0,
             "lexicon.txt is empty")


def _check_label(out: Path, workload) -> None:
    scores = _rows(out / "labeled" / "scores.tsv", 2)
    _require(len(scores) == workload.n_leads,
             f"scores.tsv has {len(scores)} rows")
    for lead_id, score in scores:
        _unit(score, f"score of {lead_id}")
    labels = _rows(out / "labeled" / "labels.tsv", 2)
    scored = {r[0] for r in scores}
    _require(all(r[0] in scored and r[1] in LABELS for r in labels),
             "labels.tsv has an unscored id or unknown label")
    _require({r[1] for r in labels} == set(LABELS),
             "labels.tsv lacks a class")


def _check_train(out: Path, workload, stdout: str) -> float:
    model = json.loads((out / "model" / "model.json").read_text("utf-8"))
    _require(model.get("format") == "contentdense-model"
             and model.get("mode") == "decision_fusion",
             "model.json is not a decision_fusion model")
    _require(set(model["first_layer"]) == {"MRC", "MI", "PR"}
             and "second_layer" in model, "model.json lacks a layer")
    found = _DEV_ACCURACY.search(stdout)
    _require(found is not None, "train printed no dev accuracy")
    return _unit(found.group(1), "dev accuracy")


def _check_predict(out: Path, workload) -> None:
    ids = _corpus_ids(out / "data" / "corpus.jsonl")
    rows = _rows(out / "preds" / "predictions.tsv", 3)
    _require([r[0] for r in rows] == ids,
             "predictions.tsv is not one row per lead in corpus order")
    for lead_id, proba, label in rows:
        _unit(proba, f"probability of {lead_id}")
        _require(label in LABELS, f"unknown label {label!r}")


def _check_combine(out: Path, workload) -> None:
    rows = _rows(out / "comb" / "combination.tsv", 8, skip=2)
    _require(len(rows) == N_CUTOFFS, f"{len(rows)} cutoff rows")
    for row in rows:
        n_total, n_system, n_correct = int(row[1]), int(row[2]), int(row[6])
        _require(n_total == workload.n_pairs, f"n_total {n_total}")
        _require(0 <= n_system <= n_total and 0 <= n_correct <= n_total,
                 f"cutoff {row[0]}: counts out of range")
        _require(sum(int(v) for v in row[3:6]) == n_system,
                 f"cutoff {row[0]}: preference breakdown does not add up")
        _unit(row[7], "pct_correct", high=100.0)


def _check_evaluate(out: Path, workload) -> float:
    report = out / "report"
    summary = {r[0]: r for r in _rows(report / "summary.tsv", 3, skip=1)}
    _require(set(summary) == set(workload.modes) | set(BASELINES),
             f"summary.tsv rows {sorted(summary)}")
    for mode, row in summary.items():
        _unit(row[1], f"{mode} mean accuracy")
        _unit(row[2], f"{mode} overall accuracy")
    folds = _rows(report / "folds.tsv", 5, skip=1)
    for mode in workload.modes:
        mine = [r for r in folds if r[0] == mode]
        _require(len(mine) == N_FOLDS, f"folds.tsv: {len(mine)} {mode} rows")
        _require(sum(int(r[2]) for r in mine) == workload.n_leads,
                 f"folds.tsv: {mode} test folds do not cover the corpus")
    strata = _rows(report / "accuracy_by_confidence.tsv", 5, skip=1)
    _require(len(strata) == N_CONFIDENCE_STRATA * len(workload.modes),
             f"accuracy_by_confidence.tsv has {len(strata)} rows")
    if workload.sizes:
        sizes = _rows(report / "accuracy_by_size.tsv", 3, skip=1)
        _require([(r[0], int(r[1])) for r in sizes]
                 == [(m, s) for m in workload.modes for s in workload.sizes],
                 "accuracy_by_size.tsv does not match the requested sizes")
        for row in sizes:
            _unit(row[2], "learning-curve accuracy")
    return float(summary[workload.accuracy_mode][2])


def check_stage(stage: dict, out: Path, workload) -> tuple[str | None, float | None]:
    """(error or None, the accuracy train or evaluate printed, else None)."""
    name = stage["stage"]
    if stage["code"] != 0:
        return f"{name} exited {stage['code']}: {stage['stderr'].strip()}", None
    try:
        if name == "train":
            accuracy = _check_train(out, workload, stage["stdout"])
        elif name == "evaluate":
            accuracy = _check_evaluate(out, workload)
        else:
            accuracy = None
            {"generate": _check_generate, "label": _check_label,
             "predict": _check_predict, "combine": _check_combine}[name](
                out, workload)
    except (CheckError, OSError, ValueError, KeyError) as err:
        return f"{name}: {err}", None
    return None, accuracy


def fingerprint(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by relative path."""
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}
