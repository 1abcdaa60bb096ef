"""Command-line interface.

Subcommands cover the full pipeline: ``generate`` (synthetic corpus),
``label`` (heuristic density scores and percentile labels), ``train``
(fit and save a classifier), ``predict`` (score a corpus with a saved
model), ``evaluate`` (cross-validation report files), and ``combine``
(summary-combination cutoff sweep).

All randomness flows from ``--seed``; re-running any subcommand with the
same inputs and seed writes byte-identical files. Output files are
written atomically (temp file + rename). Exit codes: 0 success, 2 usage,
a distinct code per package error class (see ``_EXIT_CODES``), 14 for
file-system errors, 1 for anything unexpected.
"""

from __future__ import annotations

import argparse
import gc
import sys
from math import fsum, isfinite
from os import replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .combine import (
    DEFAULT_CUTOFFS,
    baseline_always_dense,
    baseline_article_length,
    load_pairs,
    sweep_cutoffs,
)
from .corpus import (
    default_lexicon_path,
    load_corpus,
    load_lexicon,
    save_corpus,
    text_lines,
)
from .errors import (
    ContentDenseError,
    CorpusFormatError,
    DataLeakError,
    DegenerateDistributionError,
    DuplicateIdError,
    EmptyLeadError,
    EmptySummaryError,
    MissingParseError,
    NumericError,
    ParseError,
    SingleClassError,
    ValidationError,
)
from .evaluation import (
    cross_validate,
    curve_sizes,
    learning_curve,
    make_folds,
    split_train_dev,
    strata_from_predictions,
    train_modes,
)
from .features import (
    SPACE_ORDER,
    FeatureTable,
    build_feature_bundle,  # unused here; kept for perfbench's tracer
)
from .labeling import (
    LABELS,
    MIN_SUMMARY_WORDS,
    labels_to_mapping,
    percentile_label,
    score_leads,
)
from .learn import (
    DEFAULT_C_GRID,
    MODE_DECISION_FUSION,
    MODES,
    TrainConfig,
    accuracy,
    label_vector,
    load_classifier,
    margin_label,
    save_classifier,
    # unused here; kept for perfbench's tracer, which wraps them on cli
    train_decision_fusion,
    train_feature_fusion,
    train_single,
)

from .synthetic import PROFILES, generate_corpus

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_USAGE = 2
EXIT_IO = 14

# Most specific class first; isinstance walks this in order.
_EXIT_CODES = (
    (ParseError, 3),
    (DuplicateIdError, 5),
    (CorpusFormatError, 4),
    (EmptySummaryError, 7),
    (EmptyLeadError, 9),
    (MissingParseError, 11),
    (ValidationError, 6),
    (DegenerateDistributionError, 8),
    (SingleClassError, 10),
    (DataLeakError, 13),
    (NumericError, 12),
)

_CLI_MODES = tuple(mode.replace("_", "-") for mode in MODES)

_STRATA_PERCENTILES = (10.0, 25.0, 50.0, 100.0)


def _exit_code(err: ContentDenseError) -> int:
    for cls, code in _EXIT_CODES:
        if isinstance(err, cls):
            return code
    return EXIT_UNEXPECTED


def _internal_mode(cli_mode: str) -> str:
    return cli_mode.replace("-", "_")


def _write_atomic(path: Path, content: str | Callable[[Path], None]) -> None:
    """Write ``content`` (text, or a function that writes the file at a
    path it is given) next to ``path``, then rename it over ``path``."""
    tmp = path.with_name(path.name + ".tmp")
    if callable(content):
        content(tmp)
    else:
        tmp.write_text(content, encoding="utf-8")
    replace(tmp, path)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _list_arg(text: str, kind: Callable[[str], object], noun: str) -> tuple:
    """The non-blank comma-separated items of ``text``, each read by
    ``kind``; ``noun`` names one item in usage messages."""
    try:
        values = tuple(kind(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated {noun}s, got {text!r}"
        )
    if not values:
        raise argparse.ArgumentTypeError(f"expected at least one {noun}")
    return values


def _floats_arg(text: str) -> tuple[float, ...]:
    values = _list_arg(text, float, "number")
    if not all(map(isfinite, values)):
        raise argparse.ArgumentTypeError(f"expected finite numbers, got {text!r}")
    return values


def _ints_arg(text: str) -> tuple[int, ...]:
    return _list_arg(text, int, "integer")


def _percentiles_arg(text: str) -> tuple[float, float]:
    values = _floats_arg(text)
    if len(values) != 2:
        raise argparse.ArgumentTypeError(
            f"expected 'low,high', got {text!r}"
        )
    return values[0], values[1]


def _load_labels_tsv(path: str) -> dict[str, str]:
    """Read a UTF-8 lead_id<TAB>label table written by generate or label;
    a bad row raises an error naming the file and the line."""
    mapping: dict[str, str] = {}
    for lineno, line in text_lines(path):
        line = line.rstrip("\r\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise CorpusFormatError(
                f"{path}: line {lineno}: expected 'lead_id<TAB>label'"
            )
        lead_id, label = parts
        if label not in LABELS:
            raise CorpusFormatError(
                f"{path}: line {lineno}: unknown label {label!r}")
        if lead_id in mapping:
            raise DuplicateIdError(
                f"{path}: line {lineno}: duplicate lead id {lead_id!r}")
        mapping[lead_id] = label
    if not mapping:
        raise CorpusFormatError(f"{path}: no label rows")
    return mapping


def _labelled_table(args, labels_path: str | None = None) -> tuple:
    """What train and evaluate start from. Loads ``--corpus`` and
    ``--lexicon``, labels the leads (from ``labels_path``, else by summary
    overlap and ``--percentiles``) and counts the labelled ones, in corpus
    order, into one table. Returns (lexicon, leads loaded, leads left
    unscored, label mapping, table, y); ``table.leads`` are the labelled
    leads and ``y`` their ±1 labels by table row."""
    leads = load_corpus(args.corpus)
    lexicon = load_lexicon(args.lexicon)
    if labels_path is not None:
        mapping, n_skipped = _load_labels_tsv(labels_path), 0
    else:
        scores, skipped = score_leads(leads, args.min_summary_words)
        mapping = labels_to_mapping(percentile_label(scores, *args.percentiles))
        n_skipped = len(skipped)
    table = FeatureTable([lead for lead in leads if lead.id in mapping])
    return lexicon, len(leads), n_skipped, mapping, table, label_vector(
        table, mapping)


def cmd_generate(args) -> None:
    corpus = generate_corpus(args.n, args.profile, args.seed)
    out = _out_dir(args)
    _write_atomic(out / "corpus.jsonl", lambda p: save_corpus(corpus.leads, p))
    _write_atomic(out / "labels.tsv", "".join(
        f"{lead.id}\t{corpus.true_labels[lead.id]}\n" for lead in corpus.leads
    ))
    _write_atomic(out / "lexicon.txt",
                  "".join(f"{w}\n" for w in corpus.lexicon_words))
    n_dense = sum(1 for v in corpus.true_labels.values() if v == LABELS[0])
    print(f"generated {args.n} leads ({n_dense} {LABELS[0]} / "
          f"{args.n - n_dense} {LABELS[1]}) with profile "
          f"{args.profile!r} -> {out}")


def cmd_label(args) -> None:
    leads = load_corpus(args.corpus)
    if not leads:
        raise ValidationError(f"{args.corpus}: corpus is empty")
    scores, skipped = score_leads(leads, args.min_summary_words)
    labels = percentile_label(scores, *args.percentiles)
    out = _out_dir(args)
    _write_atomic(out / "scores.tsv", "".join(
        f"{s.lead_id}\t{s.score:.6f}\n" for s in scores
    ))
    _write_atomic(out / "labels.tsv", "".join(
        f"{hl.lead_id}\t{hl.label}\n" for hl in labels
    ))
    print(f"scored {len(scores)} of {len(leads)} leads "
          f"({len(skipped)} skipped: missing or short summary)")
    n_dense = sum(1 for hl in labels if hl.label == LABELS[0])
    print(f"labeled {n_dense} {LABELS[0]} / {len(labels) - n_dense} "
          f"{LABELS[1]} -> {out}")


def cmd_train(args) -> None:
    lexicon, n_leads, n_skipped, _, table, y = _labelled_table(args)
    n_labelled = len(table.leads)
    if n_labelled < 2:
        raise ValidationError(
            f"only {n_labelled} labeled leads; need at least 2"
        )
    config = TrainConfig(c_grid=tuple(args.c_grid), seed=args.seed)
    order = np.random.default_rng(args.seed).permutation(n_labelled)
    train_rows, dev_rows = split_train_dev(order)

    mode = _internal_mode(args.mode)
    classifier = train_modes([mode], train_rows, dev_rows, y, lexicon, table,
                             config)[mode]
    model = classifier.model
    if mode == MODE_DECISION_FUSION:
        chosen = ", ".join(
            f"{name}: c={model.first_layer[name].l2_c:g}"
            for name in SPACE_ORDER
        ) + f", second: c={model.second_layer.l2_c:g}"
        dev_margins = model.second_layer.dev_margins
    else:
        chosen = f"c={model.l2_c:g}"
        dev_margins = model.dev_margins

    out = _out_dir(args)
    _write_atomic(out / "model.json", lambda p: save_classifier(classifier, p))

    dev_accuracy = accuracy(dev_margins, y[dev_rows])
    print(f"labeled {n_labelled} of {n_leads} leads "
          f"({n_skipped} skipped: missing or short summary)")
    print(f"trained {args.mode} on {len(train_rows)} leads "
          f"({len(dev_rows)} dev); {chosen}")
    print(f"dev accuracy {dev_accuracy:.4f} -> {out / 'model.json'}")


def cmd_predict(args) -> None:
    classifier = load_classifier(args.model)
    leads = load_corpus(args.corpus)
    if not leads:
        raise ValidationError(f"{args.corpus}: corpus is empty")
    out = _out_dir(args)
    z = classifier.margins(leads)
    lines = [f"{lead.id}\t{p:.6f}\t{margin_label(m)}\n"
             for lead, m, p in zip(leads, z.tolist(),
                                   classifier.proba_from_margins(z).tolist())]
    _write_atomic(out / "predictions.tsv", "".join(lines))
    print(f"predicted {len(leads)} leads with {classifier.mode} model "
          f"-> {out / 'predictions.tsv'}")


def _length_baseline_by_folds(table: FeatureTable, y: np.ndarray,
                              seed: int) -> tuple[float, float]:
    """Mean and pooled article-length baseline accuracy over the 10-fold
    protocol; make_folds deals the table's rows as it deals their ids."""
    plan = make_folds(range(len(table.leads)), k=10, seed=seed)
    accs, n_correct = [], 0
    for t in range(plan.n_folds):
        test_fold, train_folds, dev_folds = plan.roles(t)
        test_rows = np.array(plan.folds[test_fold])
        accs.append(baseline_article_length(
            np.concatenate([plan.folds[f] for f in train_folds + dev_folds]),
            test_rows, y, table))
        n_correct += round(accs[-1] * len(test_rows))
    return fsum(accs) / len(accs), n_correct / len(table.leads)


def cmd_evaluate(args) -> None:
    lexicon, n_leads, n_skipped, mapping, table, y = _labelled_table(
        args, args.labels)
    labeled = table.leads
    modes = list(MODES) if args.mode == "all" else [_internal_mode(args.mode)]
    config = TrainConfig(c_grid=tuple(args.c_grid), seed=args.seed)
    sizes = None if args.sizes is None else curve_sizes(args.sizes)

    results = cross_validate(labeled, mapping, modes, lexicon=lexicon,
                             k=10, seed=args.seed, config=config, table=table)

    fold_lines = ["mode\tfold\tn_test\tn_correct\taccuracy\n"]
    conf_lines = ["mode\tpercent\tn_used\tn_correct\taccuracy\n"]
    summary_lines = ["mode\tmean_accuracy\toverall_accuracy\n"]
    stdout_rows = []
    for mode in modes:
        result = results[mode]
        for fa in result.folds:
            fold_lines.append(f"{mode}\t{fa.fold}\t{fa.n_test}\t"
                              f"{fa.n_correct}\t{fa.accuracy:.6f}\n")
        for stratum in strata_from_predictions(result.predictions,
                                               percentiles=_STRATA_PERCENTILES):
            conf_lines.append(
                f"{mode}\t{stratum.percent:g}\t{stratum.n_used}\t"
                f"{stratum.n_correct}\t{stratum.accuracy:.6f}\n"
            )
        summary_lines.append(f"{mode}\t{result.mean_accuracy:.6f}\t"
                             f"{result.overall_accuracy:.6f}\n")
        stdout_rows.append(f"{mode:16s} mean={result.mean_accuracy:.4f} "
                           f"overall={result.overall_accuracy:.4f}")

    dense_fraction = baseline_always_dense(mapping[lead.id] for lead in labeled)
    length_acc, length_pooled = _length_baseline_by_folds(table, y, args.seed)
    summary_lines.append(f"baseline_always_dense\t{dense_fraction:.6f}\t"
                         f"{dense_fraction:.6f}\n")
    summary_lines.append(f"baseline_article_length\t{length_acc:.6f}\t"
                         f"{length_pooled:.6f}\n")

    # Written once the curve has run: a failed run writes no file.
    reports = {"folds.tsv": "".join(fold_lines),
               "accuracy_by_confidence.tsv": "".join(conf_lines)}
    if sizes is not None:
        curves = learning_curve(labeled, mapping, modes, lexicon, sizes,
                                k=10, seed=args.seed, config=config,
                                table=table)
        size_lines = ["mode\tn_train\tmean_accuracy\n"] + [
            f"{mode}\t{point.n_train}\t{point.mean_accuracy:.6f}\n"
            for mode in modes for point in curves[mode]]
        reports["accuracy_by_size.tsv"] = "".join(size_lines)
    reports["summary.tsv"] = "".join(summary_lines)
    out = _out_dir(args)
    if sizes is None:  # an earlier run's curve is not this run's
        (out / "accuracy_by_size.tsv").unlink(missing_ok=True)
    for name, text in reports.items():
        _write_atomic(out / name, text)

    print(f"evaluated {len(labeled)} labeled leads "
          f"({n_leads - len(labeled)} unlabeled, {n_skipped} unscored)")
    for row in stdout_rows:
        print(row)
    print(f"baseline always-dense {dense_fraction:.4f}, "
          f"article-length {length_acc:.4f} -> {out}")


def cmd_combine(args) -> None:
    pairs = load_pairs(args.pairs)
    classifier = load_classifier(args.model)
    rows = sweep_cutoffs(pairs, classifier, cutoffs=tuple(args.cutoffs))
    out = _out_dir(args)
    lines = [
        "# human-preference ties count as correct for either system choice\n",
        "cutoff\tn_total\tn_system_chosen\tchosen_pref_system\t"
        "chosen_pref_lead\tchosen_pref_tie\tn_correct\tpct_correct\n",
    ]
    for row in rows:
        lines.append(
            f"{row.cutoff:.6f}\t{row.n_total}\t{row.n_system_chosen}\t"
            f"{row.chosen_pref_system}\t{row.chosen_pref_lead}\t"
            f"{row.chosen_pref_tie}\t{row.n_correct}\t{row.pct_correct:.6f}\n"
        )
    _write_atomic(out / "combination.tsv", "".join(lines))
    best = max(rows, key=lambda r: (r.pct_correct, -r.cutoff))
    print(f"swept {len(rows)} cutoffs over {len(pairs)} pairs "
          f"-> {out / 'combination.tsv'}")
    print(f"best cutoff {best.cutoff:g}: {best.pct_correct:.2f}% correct "
          f"({best.n_system_chosen} system picks)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contentdense",
        description="Content-density detection for news leads.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Options of several subcommands, each declared once. A parent parser
    # would put them ahead of a subcommand's own options, and the usage
    # line every usage error prints shows them in the order added.
    shared = {
        "--corpus": dict(required=True),
        "--lexicon": dict(
            default=default_lexicon_path(),
            help="word-list file (default: bundled concrete-word list)"),
        "--seed": dict(type=int, default=0),
        "--c-grid": dict(type=_floats_arg, default=DEFAULT_C_GRID,
                         metavar="C1,C2,..."),
        "--percentiles": dict(type=_percentiles_arg, default=(20.0, 80.0),
                              metavar="LOW,HIGH"),
        "--min-summary-words": dict(type=int, default=MIN_SUMMARY_WORDS),
        "--model": dict(required=True),
        "--out": dict(required=True),
    }

    def add_shared(p, *flags, **changes):
        for flag in flags:
            p.add_argument(flag, **{**shared[flag], **changes})

    p = sub.add_parser("generate", help="write a synthetic corpus")
    p.add_argument("--n", type=int, default=1000, help="number of leads")
    p.add_argument("--profile", choices=sorted(PROFILES), default="standard")
    add_shared(p, "--seed")
    add_shared(p, "--out", help="output directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("label", help="heuristic density scores and labels")
    add_shared(p, "--corpus", "--percentiles", "--min-summary-words", "--out")
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("train", help="fit a classifier and save it")
    add_shared(p, "--corpus", "--lexicon")
    p.add_argument("--mode", choices=_CLI_MODES, default="decision-fusion")
    add_shared(p, "--seed", "--c-grid", "--percentiles",
               "--min-summary-words", "--out")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="score a corpus with a saved model")
    add_shared(p, "--corpus", "--model", "--out")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="10-fold cross-validation report")
    add_shared(p, "--corpus", "--lexicon")
    p.add_argument("--labels",
                   help="lead_id<TAB>label file; omitted = heuristic labels")
    p.add_argument("--mode", choices=_CLI_MODES + ("all",), default="all")
    add_shared(p, "--seed", "--c-grid", "--percentiles", "--min-summary-words")
    p.add_argument("--sizes", type=_ints_arg, metavar="N1,N2,...",
                   help="training-set sizes for the learning curve")
    add_shared(p, "--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("combine", help="summary-combination cutoff sweep")
    p.add_argument("--pairs", required=True)
    add_shared(p, "--model")
    p.add_argument("--cutoffs", type=_floats_arg, default=DEFAULT_CUTOFFS,
                   metavar="T1,T2,...")
    add_shared(p, "--out")
    p.set_defaults(func=cmd_combine)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # A command's heap (leads, parse nodes, summary tuples) holds no
    # reference cycles, so the cyclic collector would only re-walk it.
    # Library calls keep the caller's setting; the process boundary is
    # the one place that turns it off.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        args.func(args)
    except ContentDenseError as err:
        print(f"error: {err}", file=sys.stderr)
        return _exit_code(err)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    except Exception as err:  # last-resort guard so scripts get a code
        print(f"unexpected error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_UNEXPECTED
    finally:
        if gc_was_enabled:
            gc.enable()
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
