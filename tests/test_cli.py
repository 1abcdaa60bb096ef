"""End-to-end tests for the command-line interface."""

import argparse
import contextlib
import dataclasses
import functools
import gc
import hashlib
import io
import json
import operator
import os
import pickle
import re
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contentdense import cli, combine, evaluation, learn
from contentdense.cli import _EXIT_CODES, _exit_code, main
from contentdense.combine import (
    PREF_LEAD,
    PREF_SYSTEM,
    PREF_TIE,
    SummaryPair,
    load_pairs,
    save_pairs,
    score_pairs,
)
from contentdense.corpus import (
    AnnotatedLead,
    Sentence,
    WordPosTuple,
    lead_to_record,
    load_corpus,
    parse_ptb_tree,
    save_corpus,
)
from contentdense.errors import (
    ContentDenseError,
    DataLeakError,
    NumericError,
    SingleClassError,
)
from contentdense.evaluation import (
    cross_validate,
    make_folds,
    map_line_ranges,
)
from contentdense.features import FeatureBundle, FeatureTable
from contentdense.learn import MODES, load_classifier
from contentdense.synthetic import generate_corpus


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A generated corpus on disk, plus labels and lexicon files."""
    root = tmp_path_factory.mktemp("cliws")
    code = main(["generate", "--n", "120", "--profile", "standard",
                 "--seed", "3", "--out", str(root / "gen")])
    assert code == 0
    return {
        "root": root,
        "corpus": str(root / "gen" / "corpus.jsonl"),
        "labels": str(root / "gen" / "labels.tsv"),
        "lexicon": str(root / "gen" / "lexicon.txt"),
    }


def read(path) -> str:
    return Path(path).read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def model_path(workspace):
    out = workspace["root"] / "model_mi"
    code = main(["train", "--corpus", workspace["corpus"],
                 "--lexicon", workspace["lexicon"], "--mode", "mi",
                 "--c-grid", "1.0", "--seed", "0", "--out", str(out)])
    assert code == 0
    return out / "model.json"


@pytest.fixture(scope="module")
def report(workspace):
    out = workspace["root"] / "eval"
    code = main(["evaluate", "--corpus", workspace["corpus"],
                 "--lexicon", workspace["lexicon"],
                 "--labels", workspace["labels"], "--mode", "mrc",
                 "--c-grid", "16.0", "--seed", "0",
                 "--sizes", "40,90", "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def pairs_path(workspace):
    corp = generate_corpus(40, "standard", seed=19)
    prefs = (PREF_SYSTEM, PREF_LEAD, PREF_TIE)
    pairs = [
        SummaryPair(article_id=f"art{k:03d}",
                    lead_summary=corp.leads[2 * k],
                    system_summary=corp.leads[2 * k + 1],
                    human_preference=prefs[k % 3])
        for k in range(20)
    ]
    path = workspace["root"] / "pairs.jsonl"
    save_pairs(pairs, path)
    return str(path)


@pytest.fixture(scope="module")
def model_for_pairs(workspace):
    out = workspace["root"] / "model_ff"
    code = main(["train", "--corpus", workspace["corpus"],
                 "--lexicon", workspace["lexicon"],
                 "--mode", "feature-fusion", "--c-grid", "1.0",
                 "--seed", "0", "--out", str(out)])
    assert code == 0
    return str(out / "model.json")


@pytest.fixture(scope="module")
def fusion_model_path(workspace):
    out = workspace["root"] / "model_df"
    code = main(["train", "--corpus", workspace["corpus"],
                 "--lexicon", workspace["lexicon"],
                 "--mode", "decision-fusion", "--c-grid", "1.0",
                 "--seed", "0", "--out", str(out)])
    assert code == 0
    return out / "model.json"


def _edit_record(edit):
    def corrupt(text):
        rec = json.loads(text)
        edit(rec)
        return json.dumps(rec)
    return corrupt


# name -> (model the corruption starts from, text -> corrupted text)
MODEL_CORRUPTIONS = {
    "missing_weights": ("mi", _edit_record(
        lambda rec: rec["model"].pop("weights"))),
    "truncated": ("mi", lambda text: text[:len(text) // 2]),
    "short_mi_weights": ("mi", _edit_record(
        lambda rec: rec["model"]["weights"].pop())),
    "two_weight_second_layer": ("decision_fusion", _edit_record(
        lambda rec: rec["second_layer"]["weights"].pop())),
    "nan_platt": ("decision_fusion", _edit_record(
        lambda rec: rec["second_layer"].update(platt=[float("nan"), 0.0]))),
    "infinite_bias": ("mi", _edit_record(
        lambda rec: rec["model"].update(bias=float("inf")))),
    "boolean_l2_c": ("mi", _edit_record(
        lambda rec: rec["model"].update(l2_c=True))),
    "huge_integer_weight": ("decision_fusion", _edit_record(
        lambda rec: rec["first_layer"]["PR"]["weights"].__setitem__(0, 10**400))),
}


def set_model_value(*path, value):
    """A damage that sets one value of a model file, e.g. a non-JSON NaN."""
    def damage(data: bytes) -> bytes:
        rec = json.loads(data)
        functools.reduce(operator.getitem, path[:-1], rec)[path[-1]] = value
        return json.dumps(rec).encode("utf-8")
    return damage


class TestGenerate:
    def test_writes_three_files(self, workspace):
        root = workspace["root"]
        assert (root / "gen" / "corpus.jsonl").exists()
        assert (root / "gen" / "labels.tsv").exists()
        assert (root / "gen" / "lexicon.txt").exists()

    def test_corpus_round_trips(self, workspace):
        leads = load_corpus(workspace["corpus"])
        assert len(leads) == 120

    def test_labels_file_is_balanced(self, workspace):
        lines = read(workspace["labels"]).splitlines()
        assert len(lines) == 120
        dense = sum(1 for l in lines if l.endswith("\tcontent_dense"))
        assert dense == 60

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        assert main(["generate", "--n", "120", "--profile", "standard",
                     "--seed", "3", "--out", str(tmp_path / "again")]) == 0
        for name in ("corpus.jsonl", "labels.tsv", "lexicon.txt"):
            assert read(tmp_path / "again" / name) == read(
                workspace["root"] / "gen" / name
            )


class TestLabel:
    def test_writes_scores_and_labels(self, workspace, tmp_path, capsys):
        code = main(["label", "--corpus", workspace["corpus"],
                     "--percentiles", "30,70", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "0 skipped" in out
        scores = read(tmp_path / "scores.tsv").splitlines()
        assert len(scores) == 120
        lead_id, score = scores[0].split("\t")
        assert lead_id == "syn00000"
        assert 0.0 <= float(score) <= 1.0
        labels = read(tmp_path / "labels.tsv").splitlines()
        assert 0 < len(labels) < 120
        assert all(l.split("\t")[1] in ("content_dense", "non_content_dense")
                   for l in labels)

    def test_counts_summaryless_leads_as_skipped(self, workspace, tmp_path,
                                                 capsys):
        leads = load_corpus(workspace["corpus"])
        stripped = [dataclasses.replace(leads[0], summary=None)] + leads[1:]
        corpus2 = tmp_path / "holes.jsonl"
        save_corpus(stripped, corpus2)
        code = main(["label", "--corpus", str(corpus2), "--out",
                     str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "scored 119 of 120" in out
        assert "1 skipped" in out

    def test_empty_corpus_fails(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["label", "--corpus", str(empty),
                     "--out", str(tmp_path / "o")]) == 6


class TestTrainAndPredict:
    def test_model_file_loads_and_predicts(self, workspace, model_path):
        clf = load_classifier(model_path)
        assert clf.mode == "mi"
        lead = load_corpus(workspace["corpus"])[0]
        assert 0.0 < clf.predict_proba(lead) < 1.0

    def test_decision_fusion_model_has_four_models(self, workspace, tmp_path):
        code = main(["train", "--corpus", workspace["corpus"],
                     "--lexicon", workspace["lexicon"],
                     "--mode", "decision-fusion", "--c-grid", "1.0",
                     "--seed", "0", "--out", str(tmp_path)])
        assert code == 0
        record = json.loads(read(tmp_path / "model.json"))
        assert set(record["first_layer"]) == {"MRC", "MI", "PR"}
        assert record["second_layer"]["loss"] == "hinge"

    def test_train_rerun_is_byte_identical(self, workspace, tmp_path):
        args = ["train", "--corpus", workspace["corpus"],
                "--lexicon", workspace["lexicon"], "--mode",
                "decision-fusion", "--seed", "7"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert read(tmp_path / "a" / "model.json") == read(
            tmp_path / "b" / "model.json"
        )

    def test_unknown_mode_is_a_usage_error(self, workspace, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--corpus", workspace["corpus"],
                  "--lexicon", workspace["lexicon"], "--mode", "bogus",
                  "--out", str(tmp_path)])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_predict_writes_probability_table(self, workspace, model_path,
                                              tmp_path):
        code = main(["predict", "--corpus", workspace["corpus"],
                     "--model", str(model_path), "--out", str(tmp_path)])
        assert code == 0
        rows = read(tmp_path / "predictions.tsv").splitlines()
        assert len(rows) == 120
        lead_id, proba, label = rows[0].split("\t")
        assert lead_id == "syn00000"
        assert 0.0 <= float(proba) <= 1.0
        assert label in ("content_dense", "non_content_dense")

    def test_predict_rerun_is_byte_identical(self, workspace, model_path,
                                             tmp_path):
        args = ["predict", "--corpus", workspace["corpus"],
                "--model", str(model_path)]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert read(tmp_path / "a" / "predictions.tsv") == read(
            tmp_path / "b" / "predictions.tsv"
        )


class TestEvaluate:
    def test_fold_table_has_ten_rows(self, report):
        rows = read(report / "folds.tsv").splitlines()
        assert rows[0] == "mode\tfold\tn_test\tn_correct\taccuracy"
        assert len(rows) == 11
        folds = [int(r.split("\t")[1]) for r in rows[1:]]
        assert folds == list(range(10))
        assert sum(int(r.split("\t")[2]) for r in rows[1:]) == 120

    def test_summary_includes_baselines(self, report):
        rows = read(report / "summary.tsv").splitlines()
        names = [r.split("\t")[0] for r in rows[1:]]
        assert names == ["mrc", "baseline_always_dense",
                         "baseline_article_length"]
        dense_frac = float(rows[2].split("\t")[1])
        assert dense_frac == 0.5

    def test_article_length_row_pools_unequal_folds(self, workspace,
                                                    tmp_path):
        """Heuristic labels label 36 of the 120 leads, so the folds hold 4
        or 3: the baseline's overall_accuracy pools its 14 correct test
        leads of 36, as a mode's does, and differs from the fold mean."""
        assert main(["evaluate", "--corpus", workspace["corpus"],
                     "--lexicon", workspace["lexicon"], "--mode", "mrc",
                     "--c-grid", "1", "--seed", "0",
                     "--out", str(tmp_path)]) == 0
        rows = read(tmp_path / "summary.tsv").splitlines()
        assert rows[-1] == "baseline_article_length\t0.391667\t0.388889"

    def test_confidence_table_covers_percentiles(self, report):
        rows = read(report / "accuracy_by_confidence.tsv").splitlines()
        pcts = [r.split("\t")[1] for r in rows[1:]]
        assert pcts == ["10", "25", "50", "100"]
        full = rows[4].split("\t")
        assert int(full[2]) == 120

    def test_size_table_matches_requested_sizes(self, report):
        rows = read(report / "accuracy_by_size.tsv").splitlines()
        assert [r.split("\t")[1] for r in rows[1:]] == ["40", "90"]

    def test_rerun_is_byte_identical(self, workspace, report, tmp_path):
        code = main(["evaluate", "--corpus", workspace["corpus"],
                     "--lexicon", workspace["lexicon"],
                     "--labels", workspace["labels"], "--mode", "mrc",
                     "--c-grid", "16.0", "--seed", "0",
                     "--sizes", "40,90", "--out", str(tmp_path)])
        assert code == 0
        for name in ("folds.tsv", "summary.tsv", "accuracy_by_confidence.tsv",
                     "accuracy_by_size.tsv"):
            assert read(tmp_path / name) == read(report / name)

    def test_bad_label_file_maps_to_format_error(self, workspace, tmp_path,
                                                 capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("syn00000\tsomething_else\n")
        code = main(["evaluate", "--corpus", workspace["corpus"],
                     "--lexicon", workspace["lexicon"], "--labels", str(bad),
                     "--mode", "mrc", "--out", str(tmp_path)])
        assert code == 4
        assert "line 1" in capsys.readouterr().err

    def test_failed_run_writes_no_file(self, workspace, tmp_path):
        """A curve that fails (a 2-lead training set of one class) leaves
        the reports of an earlier run in the same directory as they were."""
        args = ["evaluate", "--corpus", workspace["corpus"],
                "--lexicon", workspace["lexicon"], "--mode", "mrc",
                "--c-grid", "1", "--out", str(tmp_path)]
        assert main(args + ["--seed", "1"]) == 0
        before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
        code, err = run_quietly(args + ["--seed", "2", "--sizes", "2"])
        assert code == 10
        assert "training labels cover a single class" in err
        assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before

    def test_run_without_sizes_removes_an_earlier_curve(self, workspace,
                                                        tmp_path):
        """A run without --sizes leaves its reports only, as in an empty
        directory, not beside an earlier run's learning curve."""
        args = ["evaluate", "--corpus", workspace["corpus"],
                "--lexicon", workspace["lexicon"], "--mode", "mrc",
                "--c-grid", "1", "--out"]
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        assert main(args + [str(reused), "--seed", "1", "--sizes", "40"]) == 0
        assert (reused / "accuracy_by_size.tsv").exists()
        assert main(args + [str(reused), "--seed", "4"]) == 0
        assert main(args + [str(fresh), "--seed", "4"]) == 0
        assert ({f.name: f.read_bytes() for f in reused.iterdir()}
                == {f.name: f.read_bytes() for f in fresh.iterdir()})

    def test_size_below_two_fails_before_training(self, workspace, tmp_path,
                                                  monkeypatch, capsys):
        monkeypatch.setattr(evaluation, "train_modes", None)  # never reached
        out = tmp_path / "out"
        code = main(["evaluate", "--corpus", workspace["corpus"],
                     "--lexicon", workspace["lexicon"],
                     "--labels", workspace["labels"], "--mode", "mrc",
                     "--sizes", "1,100", "--out", str(out)])
        assert code == 6
        assert "every size must be at least 2" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


@pytest.fixture(scope="module")
def pinned_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("pinned")
    assert main(["generate", "--n", "400", "--profile", "standard",
                 "--seed", "7", "--out", str(root / "gen")]) == 0
    return root


# sha256 of model.json from `train --mode <key>` on the pinned corpus.
MODEL_DIGESTS = {
    "mrc": "a2b91e46da664df0c36cbf6765b7e80a549270d62f6305df456aea21b6189a0f",
    "mi": "53cfb13eaa65df23c6db39e09e11a6996727803dacb4c9d7ae67dfa27742549a",
    "pr": "e5488e6dc1ea02ae46f5826e47a21ab2ee586889939da6a5783b788c1cdd29bc",
    "feature-fusion":
        "1e21337f4bd8faa3f3543cc95fc6cc44879adbfcab9fb82b29ec476a9e32ca4e",
    "decision-fusion":
        "e9cbb92dccd4f4551b39ca0643bec71af364cb7c62bb1d49e1ef9c0f0a276928",
}


class TestPinnedOutputs:
    """Outputs on a 400-lead seed-7 corpus, recorded from a run of the
    CLI; a refactor that keeps outputs byte-identical keeps these."""

    def args(self, root, command, *extra, out=None):
        gen = root / "gen"
        return [command, "--corpus", str(gen / "corpus.jsonl"),
                "--lexicon", str(gen / "lexicon.txt"), *extra,
                "--seed", "0", "--out", str(root / (out or command))]

    def test_article_length_baseline_row(self, pinned_corpus):
        assert main(self.args(pinned_corpus, "evaluate", "--labels",
                              str(pinned_corpus / "gen" / "labels.tsv"),
                              "--mode", "mrc", "--c-grid", "1.0")) == 0
        rows = read(pinned_corpus / "evaluate" / "summary.tsv").splitlines()
        assert rows[-1] == "baseline_article_length\t0.607500\t0.607500"

    @pytest.mark.parametrize("mode", MODEL_DIGESTS)
    def test_model_bytes(self, pinned_corpus, mode):
        out = f"train-{mode}"
        assert main(self.args(pinned_corpus, "train", "--mode", mode,
                              out=out)) == 0
        model = (pinned_corpus / out / "model.json").read_bytes()
        assert hashlib.sha256(model).hexdigest() == MODEL_DIGESTS[mode]

    def test_all_modes_summary_and_curve(self, pinned_corpus):
        assert main(self.args(pinned_corpus, "evaluate", "--labels",
                              str(pinned_corpus / "gen" / "labels.tsv"),
                              "--sizes", "100,300", out="evaluate-all")) == 0
        report = pinned_corpus / "evaluate-all"
        assert read(report / "summary.tsv") == (
            "mode\tmean_accuracy\toverall_accuracy\n"
            "mrc\t0.725000\t0.725000\n"
            "mi\t0.555000\t0.555000\n"
            "pr\t0.695000\t0.695000\n"
            "feature_fusion\t0.672500\t0.672500\n"
            "decision_fusion\t0.717500\t0.717500\n"
            "baseline_always_dense\t0.500000\t0.500000\n"
            "baseline_article_length\t0.607500\t0.607500\n")
        assert read(report / "accuracy_by_size.tsv") == (
            "mode\tn_train\tmean_accuracy\n"
            "mrc\t100\t0.692500\n"
            "mrc\t300\t0.727500\n"
            "mi\t100\t0.477500\n"
            "mi\t300\t0.590000\n"
            "pr\t100\t0.692500\n"
            "pr\t300\t0.695000\n"
            "feature_fusion\t100\t0.667500\n"
            "feature_fusion\t300\t0.697500\n"
            "decision_fusion\t100\t0.695000\n"
            "decision_fusion\t300\t0.710000\n")

    def test_all_modes_summary_and_curve_one_value_grid(self, pinned_corpus):
        """At a one-value c grid the single modes and feature fusion train
        on the whole prefix and decision fusion on its 5:4 split."""
        assert main(self.args(pinned_corpus, "evaluate", "--labels",
                              str(pinned_corpus / "gen" / "labels.tsv"),
                              "--c-grid", "16", "--sizes", "100,300",
                              out="evaluate-all-c16")) == 0
        report = pinned_corpus / "evaluate-all-c16"
        assert read(report / "summary.tsv") == (
            "mode\tmean_accuracy\toverall_accuracy\n"
            "mrc\t0.725000\t0.725000\n"
            "mi\t0.540000\t0.540000\n"
            "pr\t0.695000\t0.695000\n"
            "feature_fusion\t0.595000\t0.595000\n"
            "decision_fusion\t0.715000\t0.715000\n"
            "baseline_always_dense\t0.500000\t0.500000\n"
            "baseline_article_length\t0.607500\t0.607500\n")
        assert read(report / "accuracy_by_size.tsv") == (
            "mode\tn_train\tmean_accuracy\n"
            "mrc\t100\t0.717500\n"
            "mrc\t300\t0.725000\n"
            "mi\t100\t0.530000\n"
            "mi\t300\t0.612500\n"
            "pr\t100\t0.687500\n"
            "pr\t300\t0.695000\n"
            "feature_fusion\t100\t0.605000\n"
            "feature_fusion\t300\t0.640000\n"
            "decision_fusion\t100\t0.705000\n"
            "decision_fusion\t300\t0.707500\n")


def test_every_evaluate_fit_converges(pinned_corpus, monkeypatch):
    """Every fit of an `evaluate --mode all` with a learning curve, in one
    process so that fold fits are seen too, reports converged: the
    per-space, fusion and baseline fits (logistic) and decision fusion's
    second layer and its calibration fits (squared hinge)."""
    monkeypatch.setattr(evaluation, "_usable_cpus", lambda: 1)
    results, losses = [], set()
    solver, objective = learn.minimize_lbfgs, learn.objective_and_grad

    def fit(*args, **kwargs):
        results.append(solver(*args, **kwargs))
        return results[-1]

    def objective_at(*args):
        losses.add(args[-1])
        return objective(*args)

    monkeypatch.setattr(learn, "minimize_lbfgs", fit)
    monkeypatch.setattr(learn, "objective_and_grad", objective_at)
    gen = pinned_corpus / "gen"
    assert main(["evaluate", "--corpus", str(gen / "corpus.jsonl"),
                 "--labels", str(gen / "labels.tsv"), "--mode", "all",
                 "--sizes", "100,300", "--seed", "0",
                 "--out", str(pinned_corpus / "evaluate-converged")]) == 0
    assert losses == {"logistic", "hinge"}
    unconverged = [k for k, res in enumerate(results) if not res.converged]
    assert results and not unconverged, (len(results), unconverged)


class TestFoldWorkers:
    """`evaluate` trains each fold in a forked child, one child per usable
    CPU; forcing the CPU count to 1 runs them in the calling process.
    Outputs, errors and exit codes are the same either way, and no child
    process outlives the command."""

    def run(self, monkeypatch, cpus, argv, out):
        monkeypatch.setattr(evaluation, "_usable_cpus", lambda: cpus)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = main([*argv, "--out", str(out)])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        files = ({p.name: p.read_bytes() for p in out.iterdir()}
                 if out.exists() else None)
        return (code, stdout.getvalue().replace(str(out), "OUT"),
                stderr.getvalue(), files)

    def test_outputs_do_not_depend_on_the_worker_count(self, workspace,
                                                       tmp_path, monkeypatch):
        argv = ["evaluate", "--corpus", workspace["corpus"],
                "--lexicon", workspace["lexicon"],
                "--labels", workspace["labels"], "--c-grid", "1,16",
                "--seed", "0", "--sizes", "40,90"]
        runs = {cpus: self.run(monkeypatch, cpus, argv, tmp_path / str(cpus))
                for cpus in (1, 2)}
        assert runs[1] == runs[2]
        assert runs[1][0] == 0
        assert "accuracy_by_size.tsv" in runs[1][3]

    def test_a_dead_fold_child_changes_nothing(self, workspace, tmp_path,
                                               monkeypatch):
        """Fold children that exit 1 without sending anything make
        `evaluate` train the folds in its own process, with the files,
        stdout, stderr and exit code of a one-CPU run."""
        argv = ["evaluate", "--corpus", workspace["corpus"],
                "--lexicon", workspace["lexicon"],
                "--labels", workspace["labels"], "--mode", "mrc",
                "--c-grid", "1", "--seed", "0", "--sizes", "40"]
        runs = {1: self.run(monkeypatch, 1, argv, tmp_path / "1")}
        monkeypatch.setattr(evaluation, "_send_from_child",
                            lambda work, share, fd: os._exit(1))
        runs[2] = self.run(monkeypatch, 2, argv, tmp_path / "2")
        assert runs[1] == runs[2]
        assert runs[1][0] == 0
        assert "accuracy_by_size.tsv" in runs[1][3]

    def test_a_failing_fold_reports_the_lowest_index(self, workspace,
                                                     tmp_path, monkeypatch):
        """Folds 3 and 6 fail, fold 3 only after a pause: with two
        children fold 6 fails first, and fold 3 is still the one
        reported."""
        leads = load_corpus(workspace["corpus"])
        plan = make_folds([lead.id for lead in leads], k=10, seed=0)
        # A fold's training leads start with the fold after it.
        fold_of = {plan.folds[(t + 1) % 10][0]: t for t in range(10)}
        train_modes = evaluation.train_modes

        def failing(modes, train_rows, dev_rows, y, lexicon, table, *args):
            t = fold_of[table.leads[train_rows[0]].id]
            if t in (3, 6):
                time.sleep(0.5 if t == 3 else 0.0)
                raise SingleClassError(f"planted in fold {t}")
            return train_modes(modes, train_rows, dev_rows, y, lexicon, table,
                               *args)

        monkeypatch.setattr(evaluation, "train_modes", failing)
        argv = ["evaluate", "--corpus", workspace["corpus"],
                "--lexicon", workspace["lexicon"],
                "--labels", workspace["labels"], "--mode", "mrc",
                "--c-grid", "1", "--seed", "0"]
        runs = {cpus: self.run(monkeypatch, cpus, argv, tmp_path / str(cpus))
                for cpus in (1, 2)}
        assert runs[1] == runs[2]
        assert runs[1] == (_exit_code(SingleClassError()), "",
                           "error: fold 3: planted in fold 3\n", None)

    def test_a_curve_failure_below_a_cv_failure_is_reported(self, workspace,
                                                            tmp_path,
                                                            monkeypatch):
        """Each fold trains its cross-validation, baseline and curve in
        turn, so the curve of fold 2 fails before the cross-validation of
        fold 5, whichever process trains them."""
        def failing(method, planted, what):
            def run(self, t, *args):
                if t == planted:
                    raise SingleClassError(f"planted in the {what} of fold {t}")
                return method(self, t, *args)
            return run

        run_type = evaluation.FoldRun
        monkeypatch.setattr(run_type, "cv", failing(run_type.cv, 5, "cv"))
        monkeypatch.setattr(run_type, "curve",
                            failing(run_type.curve, 2, "curve"))
        argv = ["evaluate", "--corpus", workspace["corpus"],
                "--lexicon", workspace["lexicon"],
                "--labels", workspace["labels"], "--mode", "mrc",
                "--c-grid", "1", "--seed", "0", "--sizes", "40"]
        runs = {cpus: self.run(monkeypatch, cpus, argv, tmp_path / str(cpus))
                for cpus in (1, 2)}
        assert runs[1] == runs[2]
        assert runs[1] == (_exit_code(SingleClassError()), "",
                           "error: fold 2: planted in the curve of fold 2\n",
                           None)

    def test_one_set_of_children_and_no_fit_here(self, workspace, tmp_path,
                                                 monkeypatch):
        """`evaluate --sizes` maps its folds once: with two CPUs one set of
        children fits every model, the article-length baseline's and the
        curve's included, and this process fits none; with one CPU this
        process fits them all."""
        maps, fit_pids = [], []
        fork_map = evaluation.fork_map

        def spy(work, items):
            maps.append(list(items))
            return fork_map(work, items)

        monkeypatch.setattr(evaluation, "fork_map", spy)
        for module in (learn, combine):
            def fit(*args, train_linear=module.train_linear, **kwargs):
                fit_pids.append(os.getpid())
                return train_linear(*args, **kwargs)
            monkeypatch.setattr(module, "train_linear", fit)
        argv = ["evaluate", "--corpus", workspace["corpus"],
                "--lexicon", workspace["lexicon"],
                "--labels", workspace["labels"], "--c-grid", "1",
                "--seed", "0", "--sizes", "40,90"]
        for cpus, here in ((2, set()), (1, {os.getpid()})):
            maps.clear()
            fit_pids.clear()
            code = self.run(monkeypatch, cpus, argv, tmp_path / str(cpus))[0]
            assert code == 0
            assert maps == [list(range(10))]
            assert set(fit_pids) == here


@pytest.fixture(scope="module")
def pr_model_path(workspace):
    out = workspace["root"] / "model_pr"
    code = main(["train", "--corpus", workspace["corpus"],
                 "--lexicon", workspace["lexicon"], "--mode", "pr",
                 "--c-grid", "1.0", "--seed", "0", "--out", str(out)])
    assert code == 0
    return out / "model.json"


def record_spans(path) -> list[tuple[int, int]]:
    """(start, stop) byte offsets of each line of a file."""
    ends = np.cumsum([len(line) for line in
                      Path(path).read_bytes().splitlines(keepends=True)])
    return list(zip([0, *ends[:-1].tolist()], ends.tolist()))


def cut_at(spans, cuts) -> list[tuple[int, int]]:
    """The byte ranges that cutting before each record index in ``cuts``
    makes of a file whose records lie at ``spans``."""
    edges = [0, *sorted(cuts), len(spans)]
    return [(spans[a][0], spans[b - 1][1]) for a, b in zip(edges, edges[1:])]


def without_parses(record_line: str) -> str:
    rec = json.loads(record_line)
    for sentence in rec.get("sentences", rec.get("system_summary", {}).get(
            "sentences", [])):
        sentence.pop("parse", None)
    return json.dumps(rec) + "\n"


class TestRangeWorkers:
    """`label`, `predict` and `combine` cut their input file into one line
    range per usable CPU and decode and score each range in its own
    process; forcing the CPU count to 1 runs the single whole-file pass.
    Files, stdout, stderr and exit codes are the same either way: a failed
    range, or an id in two ranges, falls back to the whole-file pass and
    its error. No child process outlives a command."""

    @pytest.fixture
    def ranges(self, monkeypatch):
        """What each of the CLI's map_line_ranges calls gave back."""
        seen = []

        def spy(path, work):
            seen.append(map_line_ranges(path, work))
            return seen[-1]
        monkeypatch.setattr(cli, "map_line_ranges", spy)
        return seen

    def run(self, monkeypatch, cpus, argv, out):
        monkeypatch.setattr(evaluation, "_usable_cpus", lambda: cpus)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = main([*argv, "--out", str(out)])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        files = ({p.name: p.read_bytes() for p in out.iterdir()}
                 if out.exists() else None)
        return (code, stdout.getvalue().replace(str(out), "OUT"),
                stderr.getvalue(), files)

    def argv(self, command, corpus, pairs, model):
        return {"label": ["label", "--corpus", str(corpus)],
                "predict": ["predict", "--corpus", str(corpus),
                            "--model", str(model)],
                "combine": ["combine", "--pairs", str(pairs),
                            "--model", str(model)]}[command]

    @pytest.mark.parametrize("command", ["label", "predict", "combine"])
    def test_outputs_do_not_depend_on_the_cpu_count(
            self, workspace, pairs_path, fusion_model_path, tmp_path,
            monkeypatch, ranges, command):
        argv = self.argv(command, workspace["corpus"], pairs_path,
                         fusion_model_path)
        runs = {cpus: self.run(monkeypatch, cpus, argv, tmp_path / str(cpus))
                for cpus in (1, 2)}
        assert runs[1] == runs[2]
        assert runs[1][0] == 0 and runs[1][2] == "" and runs[1][3]
        assert ranges[0] is None and len(ranges[1]) == 2

    # name -> (commands, text of the corpus lines -> damaged text, code)
    DAMAGE = {
        "malformed_last_record": (("label", "predict", "combine"),
                                  lambda lines: [*lines, "{not json\n"], 4),
        "id_in_two_ranges": (("label", "predict"),
                             lambda lines: [*lines, lines[0]], 5),
        "empty": (("label", "predict", "combine"), lambda lines: [], 6),
        "blank_lines": (("label", "predict", "combine"),
                        lambda lines: ["\n"] * 40, 6),
        "last_record_unparsed": (
            ("predict", "combine"),
            lambda lines: [*lines[:-1], without_parses(lines[-1])], 11),
    }

    @pytest.mark.parametrize("command, damage", [
        (command, damage) for damage, (commands, _, _) in DAMAGE.items()
        for command in commands])
    def test_errors_do_not_depend_on_the_cpu_count(
            self, workspace, pairs_path, pr_model_path, tmp_path, monkeypatch,
            ranges, command, damage):
        _, edit, code = self.DAMAGE[damage]
        source = pairs_path if command == "combine" else workspace["corpus"]
        damaged = tmp_path / "input.jsonl"
        damaged.write_text("".join(edit(
            read(source).splitlines(keepends=True))), encoding="utf-8")
        argv = self.argv(command, damaged, damaged, pr_model_path)
        runs = {cpus: self.run(monkeypatch, cpus, argv, tmp_path / str(cpus))
                for cpus in (1, 2)}
        assert runs[1] == runs[2]
        assert runs[1][0] == code
        assert runs[1][2].startswith("error: ")
        assert runs[1][2].count("\n") == 1
        if damage == "id_in_two_ranges":  # each range alone is well-formed
            assert len(ranges[-1]) == 2
        elif damage == "blank_lines":  # every range holds no record
            assert len(ranges[-1]) == 2
            assert not any(v for part in ranges[-1] for v in part)

    def test_a_child_failure_is_its_exit_status(self, tmp_path, monkeypatch):
        """A child that sent a whole result but exits nonzero fails the
        ranges as one that sent nothing does."""
        path = tmp_path / "lines.txt"
        path.write_bytes(b"one\ntwo\n")
        monkeypatch.setattr(evaluation, "_usable_cpus", lambda: 2)
        assert map_line_ranges(path, lambda span: span) == [(0, 4), (4, 8)]

        def send_then_fail(work, share, fd):
            with open(fd, "wb") as fh:
                pickle.dump([work(span) for span in share], fh)
            os._exit(1)
        monkeypatch.setattr(evaluation, "_send_from_child", send_then_fail)
        assert map_line_ranges(path, lambda span: span) is None
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_an_interrupt_reaps_every_child(self, workspace, tmp_path,
                                            monkeypatch):
        """An interrupt while this process waits for its first child kills
        and reaps every child, and no output is written."""
        monkeypatch.setattr(evaluation, "_usable_cpus", lambda: 2)
        waitpid, waits = os.waitpid, []

        def interrupted(pid, options):
            waits.append(pid)
            if len(waits) == 1:
                raise KeyboardInterrupt
            return waitpid(pid, options)
        monkeypatch.setattr(os, "waitpid", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["label", "--corpus", workspace["corpus"],
                  "--out", str(tmp_path)])
        assert len(waits) == 3  # the interrupted wait, then one per child
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert not (tmp_path / "scores.tsv").exists()

    @settings(max_examples=25, deadline=None)
    @given(cuts=st.sets(st.integers(1, 119), max_size=6),
           block=st.integers(1, 130))
    def test_lead_scores_do_not_depend_on_where_the_file_is_cut(
            self, workspace, fusion_model_path, cuts, block):
        """Cut at any record boundaries, with any scoring block size, the
        ranges' margins and probabilities are the whole file's, bit for
        bit."""
        path = workspace["corpus"]
        classifier = load_classifier(fusion_model_path)
        whole = classifier.margins(load_corpus(path))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(learn, "SCORE_BLOCK", block)
            parts = np.concatenate([
                classifier.margins(load_corpus(path, span))
                for span in cut_at(record_spans(path), cuts)])
        assert parts.tobytes() == whole.tobytes()
        assert (classifier.proba_from_margins(parts).tobytes()
                == classifier.proba_from_margins(whole).tobytes())

    @settings(max_examples=10, deadline=None)
    @given(cuts=st.sets(st.integers(1, 19), max_size=4))
    def test_pair_scores_do_not_depend_on_where_the_file_is_cut(
            self, pairs_path, fusion_model_path, cuts):
        classifier = load_classifier(fusion_model_path)
        whole = score_pairs(load_pairs(pairs_path), classifier)
        parts = [score for span in cut_at(record_spans(pairs_path), cuts)
                 for score in score_pairs(load_pairs(pairs_path, span),
                                          classifier)]
        assert parts == whole


class TestDevelopmentMatrices:
    """Training takes the matrix of the development rows once per space:
    the margins that pick c also make decision fusion's second-layer rows
    and train's dev accuracy. Calls on the training rows are not counted."""

    @pytest.fixture(scope="class")
    def readme_corpus(self, tmp_path_factory):
        """The README walkthrough's corpus: 1000 leads, seed 7."""
        root = tmp_path_factory.mktemp("readme")
        assert main(["generate", "--n", "1000", "--profile", "standard",
                     "--seed", "7", "--out", str(root)]) == 0
        return root

    def record_matrices(self, monkeypatch):
        """Every FeatureBundle.matrix call's (row set, space names)."""
        calls = []
        matrix = FeatureBundle.matrix

        def recording(bundle, rows, names):
            calls.append((frozenset(rows.tolist()), tuple(names)))
            return matrix(bundle, rows, names)

        monkeypatch.setattr(FeatureBundle, "matrix", recording)
        return calls

    @pytest.mark.parametrize("mode,expected", [
        ("decision-fusion", {("MRC",): 1, ("MI",): 1, ("PR",): 1}),
        ("mi", {("MI",): 1}),
        ("feature-fusion", {("MRC", "MI", "PR"): 1}),
    ])
    def test_readme_train(self, readme_corpus, tmp_path, monkeypatch, mode,
                          expected):
        calls = self.record_matrices(monkeypatch)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(["train", "--corpus",
                         str(readme_corpus / "corpus.jsonl"), "--seed", "7",
                         "--mode", mode, "--out", str(tmp_path)]) == 0
        n_dev = int(re.search(r"\((\d+) dev\)", stdout.getvalue())[1])
        assert n_dev == 168
        dev = Counter(names for rows, names in calls if len(rows) == n_dev)
        assert dev == expected

    def test_cross_validation_fold(self, readme_corpus, monkeypatch):
        """One fold of every mode: decision fusion's first layer is the
        single-space models, whose development margins it reuses."""
        monkeypatch.setattr(evaluation, "_usable_cpus", lambda: 1)
        leads = load_corpus(readme_corpus / "corpus.jsonl")
        labels = dict(line.split("\t") for line in read(
            readme_corpus / "labels.tsv").splitlines())
        plan = make_folds([lead.id for lead in leads], k=10, seed=7)
        dev_ids = {i for f in plan.roles(0)[2] for i in plan.folds[f]}
        dev_rows = frozenset(r for r, lead in enumerate(leads)
                             if lead.id in dev_ids)
        calls = self.record_matrices(monkeypatch)
        cross_validate(leads, labels, list(MODES),
                       lexicon=read(readme_corpus / "lexicon.txt").split(),
                       seed=7, fold_subset=[0], table=FeatureTable(leads))
        dev = Counter(names for rows, names in calls if rows == dev_rows)
        assert dev == {("MRC",): 1, ("MI",): 1, ("PR",): 1,
                       ("MRC", "MI", "PR"): 1}


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_blocks() -> list[tuple[str, list[str]]]:
    """(the prose before it, its lines) for each fenced block of README."""
    parts = read(README).split("```")
    return [(parts[k - 1], parts[k].strip("\n").splitlines())
            for k in range(1, len(parts), 2)]


def test_readme_walkthrough(tmp_path, monkeypatch):
    """Runs README's walkthrough in a fresh directory and checks every line
    each command prints, and the accuracy_by_confidence.tsv rows it shows,
    against README itself. The `combine` block is left out: README does not
    say how to make the `pairs.jsonl` it reads."""
    monkeypatch.chdir(tmp_path)
    blocks = readme_blocks()
    commands = [lines for _, lines in blocks
                if lines and lines[0].startswith("$ contentdense ")]
    ran = []
    for command, *expected in commands:
        argv = command.split()[2:]
        if argv[0] == "combine":
            continue
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(argv) == 0, command
        assert stdout.getvalue().splitlines() == expected, command
        ran.append(argv[0])
    assert ran == ["generate", "label", "train", "predict", "evaluate"]

    [shown] = [lines for prose, lines in blocks
               if prose.rstrip().endswith("(`report/accuracy_by_confidence.tsv`):")]
    rows = [line.split("\t") for line in
            read(tmp_path / "report" / "accuracy_by_confidence.tsv").splitlines()]
    assert shown and all(line.split() in rows for line in shown)


class TestCombine:
    def test_report_shape_and_monotonicity(self, workspace, pairs_path,
                                           model_for_pairs, tmp_path):
        code = main(["combine", "--pairs", pairs_path,
                     "--model", model_for_pairs,
                     "--cutoffs", "0.0,0.2,0.4", "--out", str(tmp_path)])
        assert code == 0
        rows = read(tmp_path / "combination.tsv").splitlines()
        assert rows[0].startswith("#")
        assert rows[1].split("\t")[0] == "cutoff"
        body = [r.split("\t") for r in rows[2:]]
        assert len(body) == 3
        chosen = [int(r[2]) for r in body]
        assert chosen == sorted(chosen, reverse=True)
        for r in body:
            assert int(r[3]) + int(r[4]) + int(r[5]) == int(r[2])

    def test_rerun_is_byte_identical(self, pairs_path, model_for_pairs,
                                     tmp_path):
        args = ["combine", "--pairs", pairs_path, "--model", model_for_pairs]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert read(tmp_path / "a" / "combination.tsv") == read(
            tmp_path / "b" / "combination.tsv"
        )


class TestExitCodes:
    def test_missing_input_file(self, tmp_path, capsys):
        code = main(["label", "--corpus", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path)])
        assert code == 14
        capsys.readouterr()

    def test_corrupt_corpus_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        code = main(["label", "--corpus", str(bad), "--out", str(tmp_path)])
        assert code == 4
        assert "line 1" in capsys.readouterr().err

    def test_duplicate_lead_id(self, tmp_path, capsys):
        corp = generate_corpus(4, "standard", seed=0)
        dup = tmp_path / "dup.jsonl"
        save_corpus(list(corp.leads) + [corp.leads[0]], dup)
        code = main(["label", "--corpus", str(dup), "--out", str(tmp_path)])
        assert code == 5
        capsys.readouterr()

    @pytest.mark.parametrize("corruption", sorted(MODEL_CORRUPTIONS))
    def test_malformed_model_file(self, workspace, model_path,
                                  fusion_model_path, pairs_path, tmp_path,
                                  capsys, corruption):
        source, corrupt = MODEL_CORRUPTIONS[corruption]
        bad = tmp_path / "model.json"
        bad.write_text(corrupt(read(model_path if source == "mi"
                                    else fusion_model_path)))
        code = main(["predict", "--corpus", workspace["corpus"],
                     "--model", str(bad), "--out", str(tmp_path / "o")])
        assert code == 4
        assert str(bad) in capsys.readouterr().err
        code = main(["combine", "--pairs", pairs_path,
                     "--model", str(bad), "--out", str(tmp_path / "c")])
        assert code == 4
        assert str(bad) in capsys.readouterr().err

    # (file, edit of its first record, what the error names)
    @pytest.mark.parametrize("source, edit, message", [
        ("corpus", lambda rec: rec.pop("domain"),
         "line 1: record missing field 'domain'"),
        ("corpus", lambda rec: rec.update(article_word_count=True),
         "line 1: field 'article_word_count' of record must be a JSON "
         "integer, not boolean"),
        ("corpus", lambda rec: rec["sentences"][1].pop("pos"),
         "line 1: sentence 1 missing field 'pos'"),
        ("corpus", lambda rec: rec["sentences"][1].update(tokens=["a", 5]),
         "line 1: field 'tokens' of sentence 1 must be a JSON array of "
         "strings, not integer at entry 1"),
        ("corpus", lambda rec: rec["summary"].__setitem__(2, ["cat"]),
         "line 1: field 'summary' of record must be a JSON array of "
         "[string, string] arrays, not array at entry 2"),
        ("corpus", lambda rec: rec["summary"].__setitem__(2, [5, "CD"]),
         "line 1: field 'summary' of record must be a JSON array of "
         "[string, string] arrays, not array at entry 2"),
        ("pairs", lambda rec: rec["lead_summary"].pop("id"),
         "line 1: lead_summary: record missing field 'id'"),
        ("pairs", lambda rec: rec.update(human_preference=3),
         "line 1: field 'human_preference' of record must be a JSON "
         "string, not integer"),
        ("model", lambda rec: rec["first_layer"]["MI"].pop("bias"),
         "first_layer MI missing field 'bias'"),
        ("model", lambda rec: rec["second_layer"].update(l2_c=True),
         "field 'l2_c' of second_layer must be a JSON number, not boolean"),
    ], ids=["lead-missing", "lead-mistyped", "sentence-missing",
            "sentence-mistyped", "summary-entry-missing",
            "summary-entry-mistyped", "pair-missing", "pair-mistyped",
            "model-layer-missing", "model-layer-mistyped"])
    def test_record_error_names_line_record_and_field(
            self, workspace, pairs_path, model_for_pairs, fusion_model_path,
            tmp_path, source, edit, message):
        clean = {"corpus": workspace["corpus"], "pairs": pairs_path,
                 "model": fusion_model_path}[source]
        lines = read(clean).splitlines()
        lines[0] = _edit_record(edit)(lines[0])
        bad = tmp_path / "bad"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = {"corpus": ["label", "--corpus", str(bad)],
                "pairs": ["combine", "--pairs", str(bad),
                          "--model", model_for_pairs],
                "model": ["predict", "--corpus", workspace["corpus"],
                          "--model", str(bad)]}[source]
        code, err = run_quietly([*argv, "--out", str(tmp_path / "out")])
        assert code == 4
        assert message in err
        if source == "model":
            assert str(bad) in err

    @pytest.mark.parametrize("argv", [
        ["train", "--c-grid", "1,nan"],
        ["evaluate", "--c-grid", "inf"],
        ["label", "--percentiles", "20,inf"],
        ["combine", "--pairs", "p.jsonl", "--model", "m.json",
         "--cutoffs", "0,nan"],
    ], ids=["train-c-grid", "evaluate-c-grid", "label-percentiles",
            "combine-cutoffs"])
    def test_non_finite_number_is_a_usage_error(self, workspace, tmp_path,
                                                capsys, argv):
        if argv[0] != "combine":
            argv = [*argv, "--corpus", workspace["corpus"]]
        with pytest.raises(SystemExit) as exit_:
            main([*argv, "--out", str(tmp_path)])
        assert exit_.value.code == 2
        assert "expected finite numbers" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["generate", "--n", "10", "--seed", "-1"],
        ["train", "--seed", "-1"],
        ["evaluate", "--seed", "-3", "--mode", "mrc", "--c-grid", "1"],
    ], ids=["generate", "train", "evaluate"])
    def test_negative_seed_exits_6(self, workspace, tmp_path, argv):
        if argv[0] != "generate":
            argv = [*argv, "--corpus", workspace["corpus"]]
        seed = argv[argv.index("--seed") + 1]
        code, err = run_quietly([*argv, "--out", str(tmp_path / "out")])
        assert code == 6
        assert err == f"error: seed must be a non-negative integer, got {seed}\n"
        assert not (tmp_path / "out").exists()

    def test_article_word_count_beyond_int64_exits_6(self, workspace,
                                                     tmp_path):
        lines = read(workspace["corpus"]).splitlines()
        rec = json.loads(lines[5])
        rec["article_word_count"] = 10 ** 20
        lines[5] = json.dumps(rec)
        bad = tmp_path / "big.jsonl"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, err = run_quietly(["evaluate", "--corpus", str(bad),
                                 "--labels", workspace["labels"],
                                 "--mode", "mrc", "--c-grid", "1",
                                 "--out", str(tmp_path / "out")])
        assert code == 6
        assert err == (f"error: {bad}: line 6: lead {rec['id']}: "
                       f"article_word_count {10 ** 20} above 2**63 - 1\n")

    def test_overflowing_margins_exit_12(self, workspace, tmp_path,
                                         fusion_model_path):
        """Count features times weights of +-1e308 overflow to +inf and
        -inf in one row, whose margin is NaN; second-layer weights of
        1e308 give an infinite margin that a zero Platt slope turns into
        NaN. Either way the error line is all that reaches stderr."""
        assert main(["train", "--corpus", workspace["corpus"],
                     "--lexicon", workspace["lexicon"], "--mode", "pr",
                     "--c-grid", "1.0", "--out", str(tmp_path / "m")]) == 0
        pr_model = tmp_path / "m" / "model.json"
        rec = json.loads(read(pr_model))
        weights = rec["model"]["weights"]
        rec["model"]["weights"] = [(-1e308, 1e308)[k % 2]
                                   for k in range(len(weights))]
        pr_model.write_text(json.dumps(rec), encoding="utf-8")
        platt_model = tmp_path / "platt.json"
        rec = json.loads(read(fusion_model_path))
        rec["second_layer"].update(weights=[1e308] * 3, platt=[0.0, 0.0])
        platt_model.write_text(json.dumps(rec), encoding="utf-8")
        for model, error in (
                (pr_model, "error: PR model gave a NaN margin"),
                (platt_model, "error: META Platt calibration gave a NaN")):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, err = run_quietly(["predict",
                                         "--corpus", workspace["corpus"],
                                         "--model", str(model),
                                         "--out", str(tmp_path / "p")])
            assert code == 12, err
            assert err.splitlines() == [error]
            assert not (tmp_path / "p" / "predictions.tsv").exists()

    def test_every_error_class_has_a_distinct_code(self):
        codes = [code for _, code in _EXIT_CODES]
        assert len(set(codes)) == len(codes)
        assert _exit_code(DataLeakError("x")) == 13
        assert _exit_code(SingleClassError("x")) == 10
        assert _exit_code(NumericError("x")) == 12
        assert _exit_code(ContentDenseError("x")) == 1


MODE_CHOICES = ("mrc", "mi", "pr", "feature-fusion", "decision-fusion")
C_GRID = (0.03125, 0.125, 0.5, 2.0, 8.0, 32.0)
LEXICON_HELP = "word-list file (default: bundled concrete-word list)"


def option_tables() -> dict:
    """command -> (its help, its function, {flags: (dest, default, type,
    choices, metavar, required, help)}) as build_parser declares them."""
    sub = next(action for action in cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    helps = {action.dest: action.help for action in sub._choices_actions}
    return {
        command: (helps[command], parser.get_default("func"), {
            tuple(a.option_strings): (
                a.dest, a.default, a.type,
                None if a.choices is None else tuple(a.choices),
                a.metavar, a.required, a.help)
            for a in parser._actions if not isinstance(a, argparse._HelpAction)
        })
        for command, parser in sub.choices.items()
    }


class TestOptionTables:
    """Each subcommand's options, whatever order the parser declares them
    in: flags, dest, default, type, choices, metavar, required and help."""

    def test_every_option_is_declared_as_documented(self):
        lexicon = cli.default_lexicon_path()
        floats, percentiles = cli._floats_arg, cli._percentiles_arg
        common = {
            ("--seed",): ("seed", 0, int, None, None, False, None),
            ("--c-grid",): ("c_grid", C_GRID, floats, None, "C1,C2,...",
                            False, None),
            ("--percentiles",): ("percentiles", (20.0, 80.0), percentiles,
                                 None, "LOW,HIGH", False, None),
            ("--min-summary-words",): ("min_summary_words", 25, int, None,
                                       None, False, None),
            ("--lexicon",): ("lexicon", lexicon, None, None, None, False,
                             LEXICON_HELP),
            ("--corpus",): ("corpus", None, None, None, None, True, None),
            ("--model",): ("model", None, None, None, None, True, None),
            ("--out",): ("out", None, None, None, None, True, None),
        }

        def shared(*flags):
            return {(flag,): common[(flag,)] for flag in flags}

        assert option_tables() == {
            "generate": ("write a synthetic corpus", cli.cmd_generate, {
                ("--n",): ("n", 1000, int, None, None, False,
                           "number of leads"),
                ("--profile",): ("profile", "standard", None,
                                 ("separable", "standard", "zero"), None,
                                 False, None),
                **shared("--seed"),
                ("--out",): ("out", None, None, None, None, True,
                             "output directory"),
            }),
            "label": ("heuristic density scores and labels", cli.cmd_label,
                      shared("--corpus", "--percentiles",
                             "--min-summary-words", "--out")),
            "train": ("fit a classifier and save it", cli.cmd_train, {
                **shared("--corpus", "--lexicon", "--seed", "--c-grid",
                         "--percentiles", "--min-summary-words", "--out"),
                ("--mode",): ("mode", "decision-fusion", None, MODE_CHOICES,
                              None, False, None),
            }),
            "predict": ("score a corpus with a saved model", cli.cmd_predict,
                        shared("--corpus", "--model", "--out")),
            "evaluate": ("10-fold cross-validation report", cli.cmd_evaluate, {
                **shared("--corpus", "--lexicon", "--seed", "--c-grid",
                         "--percentiles", "--min-summary-words", "--out"),
                ("--labels",): (
                    "labels", None, None, None, None, False,
                    "lead_id<TAB>label file; omitted = heuristic labels"),
                ("--mode",): ("mode", "all", None, MODE_CHOICES + ("all",),
                              None, False, None),
                ("--sizes",): ("sizes", None, cli._ints_arg, None,
                               "N1,N2,...", False,
                               "training-set sizes for the learning curve"),
            }),
            "combine": ("summary-combination cutoff sweep", cli.cmd_combine, {
                **shared("--model", "--out"),
                ("--pairs",): ("pairs", None, None, None, None, True, None),
                ("--cutoffs",): ("cutoffs", (0.0, 0.1, 0.2, 0.3, 0.4, 0.5),
                                 floats, None, "T1,T2,...", False, None),
            }),
        }


# Every code of README's exit table; 1 means an unexpected error.
DOCUMENTED_EXIT_CODES = {0} | set(range(2, 15))


def run_quietly(argv) -> tuple[int, str]:
    """Exit code and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def deep_lead(depth: int) -> AnnotatedLead:
    text = "(X (DT a) " * (depth - 1) + "(NN w)" + ")" * (depth - 1)
    return AnnotatedLead(
        id="deep", domain="general", lead_text="a w",
        sentences=(Sentence(tokens=("a",) * (depth - 1) + ("w",),
                            pos=("DT",) * (depth - 1) + ("NN",),
                            parse=parse_ptb_tree(text)),),
        summary=(WordPosTuple("a", "DT"),) * 30, article_word_count=depth)


class TestHostileCorpora:
    def test_deep_parse_labels(self, workspace, tmp_path):
        corpus = tmp_path / "deep.jsonl"
        save_corpus(load_corpus(workspace["corpus"]) + [deep_lead(1200)],
                    corpus)
        code, err = run_quietly(["label", "--corpus", str(corpus),
                                 "--out", str(tmp_path / "out")])
        assert code == 0, err
        assert "deep\t" in read(tmp_path / "out" / "scores.tsv")

    @pytest.mark.parametrize("field, value", [
        ("article_word_count", "many"),
        ("article_word_count", 12.5),
        ("id", 7),
        ("sentences", {"tokens": []}),
        ("tokens", 5),
        ("pos", ["DT", 3, "VBD"]),
        ("lemmas", "the"),
        ("parse", ["S"]),
        ("summary", [["cat", "NN", "x"]]),
        ("summary", ["cat"]),
        ("summary", [[5, "CD"]]),
    ])
    def test_mistyped_field_exits_4(self, tmp_path, field, value):
        rec = lead_to_record(generate_corpus(2, seed=0).leads[0])
        target = rec["sentences"][0] if field in (
            "tokens", "pos", "lemmas", "parse") else rec
        target[field] = value
        corpus = tmp_path / "bad.jsonl"
        corpus.write_text(json.dumps(rec) + "\n", encoding="utf-8")
        code, err = run_quietly(["label", "--corpus", str(corpus),
                                 "--out", str(tmp_path / "out")])
        assert code == 4
        assert f"line 1: field {field!r}" in err

    def test_unknown_domain_exits_6(self, tmp_path):
        """A domain outside corpus.DOMAINS (FORMAT.md) is invalid data."""
        rec = lead_to_record(generate_corpus(2, seed=0).leads[0])
        rec["domain"] = "weather"
        corpus = tmp_path / "bad.jsonl"
        corpus.write_text(json.dumps(rec) + "\n", encoding="utf-8")
        code, err = run_quietly(["label", "--corpus", str(corpus),
                                 "--out", str(tmp_path / "out")])
        assert code == 6
        assert err.endswith(
            "bad.jsonl: line 1: unknown domain 'weather'; expected one of "
            "business, science, sports, politics, general\n")

    @pytest.mark.parametrize("bad_id", [b"syn\xff1", b"syn\\ud8001"])
    def test_text_that_is_not_utf8_exits_4(self, tmp_path, bad_id):
        corpus = tmp_path / "bad.jsonl"
        save_corpus(generate_corpus(2, seed=0).leads, corpus)
        corpus.write_bytes(corpus.read_bytes().replace(b"syn00001", bad_id))
        code, err = run_quietly(["label", "--corpus", str(corpus),
                                 "--out", str(tmp_path / "out")])
        assert code == 4
        assert "line 2" in err

    @pytest.mark.parametrize("role", ["corpus", "labels", "lexicon"])
    def test_byte_order_mark_exits_4(self, workspace, tmp_path, role):
        """A BOM would otherwise become part of the first id or word."""
        files = {name: workspace[name]
                 for name in ("corpus", "labels", "lexicon")}
        marked = tmp_path / Path(files[role]).name
        marked.write_bytes(b"\xef\xbb\xbf" + Path(files[role]).read_bytes())
        files[role] = str(marked)
        code, err = run_quietly(["evaluate", "--corpus", files["corpus"],
                                 "--lexicon", files["lexicon"],
                                 "--labels", files["labels"], "--mode", "mrc",
                                 "--c-grid", "1", "--out",
                                 str(tmp_path / "out")])
        assert code == 4
        assert "line 1: starts with a UTF-8 byte-order mark" in err

    def test_label_file_that_is_not_utf8_exits_4(self, workspace, tmp_path):
        labels = tmp_path / "labels.tsv"
        lines = Path(workspace["labels"]).read_bytes().splitlines(keepends=True)
        labels.write_bytes(b"".join(lines[:2]) + b"syn\xff\tcontent_dense\n")
        code, err = run_quietly(["evaluate", "--corpus", workspace["corpus"],
                                 "--lexicon", workspace["lexicon"],
                                 "--labels", str(labels), "--mode", "mrc",
                                 "--out", str(tmp_path / "out")])
        assert code == 4
        assert "line 3" in err

    def test_lexicon_that_is_not_utf8_exits_4(self, workspace, tmp_path):
        lexicon = tmp_path / "lexicon.txt"
        lexicon.write_bytes(b"stone\n# comment\nr\xffver\n")
        code, err = run_quietly(["train", "--corpus", workspace["corpus"],
                                 "--lexicon", str(lexicon), "--mode", "mrc",
                                 "--out", str(tmp_path / "out")])
        assert code == 4
        assert "line 3" in err

    # (file, damage to its bytes, the message after "<path>: ")
    @pytest.mark.parametrize("role, damage, message", [
        ("labels", lambda data: b"\xef\xbb\xbf" + data,
         "line 1: starts with a UTF-8 byte-order mark (U+FEFF)"),
        ("lexicon", lambda data: b"stone\nr\xffver\n",
         "line 2: not UTF-8: "),
        ("corpus", lambda data: b"{" + data,
         "line 1: invalid JSON: "),
        ("corpus", lambda data: data.replace(b'"domain":', b'"realm":', 1),
         "line 1: record missing field 'domain'"),
        ("labels", lambda data: data.replace(b"content_dense", b"dense", 1),
         "line 1: unknown label 'dense'"),
        ("pairs", lambda data: data.replace(b'"human_preference":"system"',
                                            b'"human_preference":3', 1),
         "line 1: field 'human_preference' of record must be a JSON "
         "string, not integer"),
    ], ids=["text_lines", "load_lexicon", "json_lines", "load_corpus",
            "labels_tsv", "load_pairs"])
    def test_error_names_its_file_once(self, workspace, pairs_path,
                                       model_path, tmp_path, role, damage,
                                       message):
        files = {name: workspace[name]
                 for name in ("corpus", "labels", "lexicon")}
        files["pairs"] = pairs_path
        bad = tmp_path / Path(files[role]).name
        bad.write_bytes(damage(Path(files[role]).read_bytes()))
        files[role] = str(bad)
        if role == "pairs":
            argv = ["combine", "--pairs", files["pairs"],
                    "--model", str(model_path)]
        else:
            argv = ["evaluate", "--corpus", files["corpus"],
                    "--lexicon", files["lexicon"], "--labels", files["labels"],
                    "--mode", "mrc", "--c-grid", "1"]
        code, err = run_quietly(argv + ["--out", str(tmp_path / "out")])
        assert code == 4
        assert err.startswith(f"error: {bad}: {message}")
        assert err.count(str(bad)) == 1


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**20, 10**20) | st.floats()
    | st.text(st.characters(exclude_categories=()), max_size=6),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=5)


def _json_paths(value, path=()):
    """Every (container path, key) inside a parsed JSON value."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield path, key
        yield from _json_paths(child, path + (key,))


@st.composite
def corruptions(draw):
    """A function that damages a JSON-lines file's bytes or one of its values."""
    if draw(st.booleans()):
        at = draw(st.integers(0, 10**7))
        cut = draw(st.integers(0, 3))
        junk = draw(st.binary(max_size=3))

        def damage(data: bytes) -> bytes:
            k = at % (len(data) + 1)
            return data[:k] + junk + data[k + cut:]
        return damage
    line_pick, path_pick = draw(st.integers(0, 10**6)), draw(st.integers(0, 10**7))
    value, delete = draw(JSON_VALUES), draw(st.booleans())

    def damage(data: bytes) -> bytes:
        lines = data.decode("utf-8").splitlines()
        k = line_pick % len(lines)
        rec = json.loads(lines[k])
        paths = list(_json_paths(rec))
        path, key = paths[path_pick % len(paths)]
        parent = rec
        for step in path:
            parent = parent[step]
        if delete:
            del parent[key]
        else:
            parent[key] = value
        lines[k] = json.dumps(rec)
        return "\n".join(lines).encode("utf-8") + b"\n"
    return damage


@pytest.fixture(scope="module")
def clean_files(workspace, pairs_path):
    corpus = workspace["root"] / "small.jsonl"
    save_corpus(generate_corpus(12, "standard", seed=5).leads, corpus)
    pairs = Path(pairs_path).read_bytes().splitlines(keepends=True)
    return {"corpus": corpus.read_bytes(), "pairs": b"".join(pairs[:6]),
            "dir": workspace["root"]}


class TestCorruptedFiles:
    @settings(max_examples=150, deadline=None)
    @given(damage=corruptions())
    def test_label_exits_with_a_documented_code(self, clean_files, damage):
        bad = clean_files["dir"] / "damaged.jsonl"
        bad.write_bytes(damage(clean_files["corpus"]))
        code, err = run_quietly(["label", "--corpus", str(bad), "--out",
                                 str(clean_files["dir"] / "damaged_label")])
        assert code in DOCUMENTED_EXIT_CODES, err

    @settings(max_examples=100, deadline=None)
    @given(damage=corruptions())
    def test_combine_exits_with_a_documented_code(self, clean_files,
                                                  model_for_pairs, damage):
        bad = clean_files["dir"] / "damaged_pairs.jsonl"
        bad.write_bytes(damage(clean_files["pairs"]))
        code, err = run_quietly(["combine", "--pairs", str(bad),
                                 "--model", model_for_pairs, "--out",
                                 str(clean_files["dir"] / "damaged_comb")])
        assert code in DOCUMENTED_EXIT_CODES, err

    @settings(max_examples=100, deadline=None)
    @given(damage=corruptions(), fusion=st.booleans(),
           stage=st.sampled_from(("predict", "combine")))
    @example(damage=set_model_value("second_layer", "platt",
                                    value=[float("nan"), 0.0]),
             fusion=True, stage="predict")
    @example(damage=set_model_value("model", "bias", value=float("inf")),
             fusion=False, stage="predict")
    @example(damage=set_model_value("model", "l2_c", value=True),
             fusion=False, stage="predict")
    def test_damaged_model_exits_with_a_documented_code(
            self, clean_files, model_for_pairs, fusion_model_path, pairs_path,
            damage, fusion, stage):
        model = Path(fusion_model_path if fusion else model_for_pairs)
        bad = clean_files["dir"] / "damaged_model.json"
        bad.write_bytes(damage(model.read_bytes()))
        corpus = clean_files["dir"] / "clean_small.jsonl"
        corpus.write_bytes(clean_files["corpus"])
        inputs = (["--corpus", str(corpus)] if stage == "predict"
                  else ["--pairs", pairs_path])
        out = clean_files["dir"] / "damaged_model_out"
        code, err = run_quietly([stage, *inputs, "--model", str(bad), "--out",
                                 str(out)])
        assert code in DOCUMENTED_EXIT_CODES, err
        if code == 0 and stage == "predict":
            probs = [float(row.split("\t")[1])
                     for row in read(out / "predictions.tsv").splitlines()]
            assert all(0.0 <= p <= 1.0 for p in probs), probs


@contextlib.contextmanager
def collector_disabled():
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class TestGarbageCollector:
    """Each command runs with the cyclic collector off; main restores the
    caller's setting on every way out."""

    @pytest.fixture
    def seen(self, monkeypatch):
        """Record gc.isenabled() inside every command that runs."""
        states = []
        for name in ("cmd_generate", "cmd_label"):
            command = getattr(cli, name)

            def spy(args, command=command):
                states.append(gc.isenabled())
                command(args)
            monkeypatch.setattr(cli, name, spy)
        return states

    def test_off_during_a_command_and_back_on_after(self, seen, tmp_path,
                                                    capsys):
        assert main(["generate", "--n", "4", "--out", str(tmp_path)]) == 0
        assert seen == [False]
        assert gc.isenabled()
        capsys.readouterr()

    def test_restored_after_a_format_error(self, seen, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        assert main(["label", "--corpus", str(bad), "--out",
                     str(tmp_path)]) == 4
        assert seen == [False]
        assert gc.isenabled()
        capsys.readouterr()

    @pytest.mark.parametrize("error, code", [(RuntimeError("boom"), 1),
                                             (KeyboardInterrupt(), None)])
    def test_restored_when_a_command_raises(self, monkeypatch, tmp_path,
                                            capsys, error, code):
        seen = []

        def fail(args):
            seen.append(gc.isenabled())
            raise error
        monkeypatch.setattr(cli, "cmd_generate", fail)
        argv = ["generate", "--out", str(tmp_path)]
        if code is None:
            with pytest.raises(KeyboardInterrupt):
                main(argv)
        else:
            assert main(argv) == code
        assert seen == [False]
        assert gc.isenabled()
        capsys.readouterr()

    def test_restored_after_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["generate", "--no-such-flag"])
        assert exit_.value.code == 2
        assert gc.isenabled()
        capsys.readouterr()

    def test_a_caller_that_disabled_it_keeps_it_disabled(self, seen, tmp_path,
                                                         capsys):
        with collector_disabled():
            assert main(["generate", "--n", "4", "--out", str(tmp_path)]) == 0
            assert not gc.isenabled()
        assert seen == [False]
        capsys.readouterr()

    def test_garbage_cycles_do_not_grow_with_the_corpus(self, tmp_path,
                                                        capsys):
        """With the collector off for a whole command, a reference cycle
        made per lead would be held until the process ends. The cycles a
        train and an evaluate leave must be a fixed set, not one per lead."""
        def leftover(n, run):
            out = tmp_path / f"run{run}"
            assert main(["generate", "--n", str(n), "--seed", "5",
                         "--out", str(out / "gen")]) == 0
            corpus = str(out / "gen" / "corpus.jsonl")
            lexicon = str(out / "gen" / "lexicon.txt")
            # Off around both commands, so that no automatic collection
            # between them hides what the first one left.
            with collector_disabled():
                gc.collect()
                assert main(["train", "--corpus", corpus, "--lexicon", lexicon,
                             "--mode", "decision-fusion", "--c-grid", "1.0",
                             "--out", str(out / "model")]) == 0
                assert main(["evaluate", "--corpus", corpus,
                             "--lexicon", lexicon,
                             "--labels", str(out / "gen" / "labels.tsv"),
                             "--mode", "all", "--c-grid", "1.0",
                             "--sizes", "100,150",
                             "--out", str(out / "eval")]) == 0
                return gc.collect()

        leftover(200, 0)  # first uses (imports, caches) leave one-time cycles
        assert leftover(200, 1) == leftover(600, 2)
        capsys.readouterr()
