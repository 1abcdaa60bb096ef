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
    AnnotatedLead,
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


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    replace(tmp, path)


def _save_atomic(path: Path, writer: Callable[[Path], None]) -> None:
    tmp = path.with_name(path.name + ".tmp")
    writer(tmp)
    replace(tmp, path)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _floats_arg(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}"
        )
    if not values:
        raise argparse.ArgumentTypeError("expected at least one number")
    if not all(map(isfinite, values)):
        raise argparse.ArgumentTypeError(f"expected finite numbers, got {text!r}")
    return values


def _ints_arg(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        )
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


def _percentiles_arg(text: str) -> tuple[float, float]:
    values = _floats_arg(text)
    if len(values) != 2:
        raise argparse.ArgumentTypeError(
            f"expected 'low,high', got {text!r}"
        )
    return values[0], values[1]


def _load_labels_tsv(path: str) -> dict[str, str]:
    """Read a UTF-8 lead_id<TAB>label table written by generate or label."""
    mapping: dict[str, str] = {}
    for lineno, line in text_lines(path):
        line = line.rstrip("\r\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise CorpusFormatError(
                f"line {lineno}: expected 'lead_id<TAB>label'"
            )
        lead_id, label = parts
        if label not in LABELS:
            raise CorpusFormatError(f"line {lineno}: unknown label {label!r}")
        if lead_id in mapping:
            raise DuplicateIdError(f"line {lineno}: duplicate lead id {lead_id!r}")
        mapping[lead_id] = label
    if not mapping:
        raise CorpusFormatError(f"{path}: no label rows")
    return mapping


def _heuristic_labels(leads: Sequence[AnnotatedLead], low: float, high: float,
                      min_summary_words: int) -> tuple[dict[str, str], int]:
    """Score summaries and percentile-label the tails; returns (mapping, n_skipped)."""
    scores, skipped = score_leads(leads, min_summary_words)
    mapping = labels_to_mapping(percentile_label(scores, low, high))
    return mapping, len(skipped)


def _labeled_subset(leads: Sequence[AnnotatedLead],
                    mapping: dict[str, str]) -> list[AnnotatedLead]:
    return [lead for lead in leads if lead.id in mapping]


def cmd_generate(args) -> None:
    corpus = generate_corpus(args.n, args.profile, args.seed)
    out = _out_dir(args)
    _save_atomic(out / "corpus.jsonl", lambda p: save_corpus(corpus.leads, p))
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
    low, high = args.percentiles
    labels = percentile_label(scores, low, high)
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
    leads = load_corpus(args.corpus)
    lexicon = load_lexicon(args.lexicon)
    low, high = args.percentiles
    mapping, n_skipped = _heuristic_labels(leads, low, high,
                                           args.min_summary_words)
    labeled = _labeled_subset(leads, mapping)
    if len(labeled) < 2:
        raise ValidationError(
            f"only {len(labeled)} labeled leads; need at least 2"
        )

    order = np.random.default_rng(args.seed).permutation(len(labeled))
    train_leads, dev_leads = split_train_dev([labeled[i] for i in order])

    mode = _internal_mode(args.mode)
    config = TrainConfig(c_grid=tuple(args.c_grid), seed=args.seed)
    classifier = train_modes([mode], train_leads, dev_leads, mapping, lexicon,
                             FeatureTable(labeled), config)[mode]
    model = classifier.model
    if mode == MODE_DECISION_FUSION:
        chosen = ", ".join(
            f"{name}: c={model.first_layer[name].l2_c:g}"
            for name in SPACE_ORDER
        ) + f", second: c={model.second_layer.l2_c:g}"
    else:
        chosen = f"c={model.l2_c:g}"

    out = _out_dir(args)
    _save_atomic(out / "model.json", lambda p: save_classifier(classifier, p))

    n_correct = sum(
        margin_label(m) == mapping[lead.id]
        for lead, m in zip(dev_leads, classifier.margins(dev_leads).tolist())
    )
    print(f"labeled {len(labeled)} of {len(leads)} leads "
          f"({n_skipped} skipped: missing or short summary)")
    print(f"trained {args.mode} on {len(train_leads)} leads "
          f"({len(dev_leads)} dev); {chosen}")
    print(f"dev accuracy {n_correct / len(dev_leads):.4f} -> {out / 'model.json'}")


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


def _length_baseline_by_folds(labeled: Sequence[AnnotatedLead],
                              mapping: dict[str, str], seed: int) -> float:
    """Mean article-length baseline accuracy over the 10-fold protocol."""
    by_id = {lead.id: lead for lead in labeled}
    plan = make_folds([lead.id for lead in labeled], k=10, seed=seed)
    accs = []
    for t in range(plan.n_folds):
        test_fold, train_folds, dev_folds = plan.roles(t)
        train_ids = [i for f in train_folds + dev_folds for i in plan.folds[f]]
        test_ids = list(plan.folds[test_fold])
        accs.append(baseline_article_length(
            [by_id[i] for i in train_ids], [by_id[i] for i in test_ids], mapping,
        ))
    return fsum(accs) / len(accs)


def cmd_evaluate(args) -> None:
    leads = load_corpus(args.corpus)
    lexicon = load_lexicon(args.lexicon)
    low, high = args.percentiles
    if args.labels is not None:
        mapping = _load_labels_tsv(args.labels)
        n_skipped = 0
    else:
        mapping, n_skipped = _heuristic_labels(leads, low, high,
                                               args.min_summary_words)
    labeled = _labeled_subset(leads, mapping)
    n_unlabeled = len(leads) - len(labeled)
    cli_modes = _CLI_MODES if args.mode == "all" else (args.mode,)
    modes = [_internal_mode(m) for m in cli_modes]
    config = TrainConfig(c_grid=tuple(args.c_grid), seed=args.seed)

    results = cross_validate(labeled, mapping, modes, lexicon=lexicon,
                             k=10, seed=args.seed, config=config)

    out = _out_dir(args)
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
    length_acc = _length_baseline_by_folds(labeled, mapping, args.seed)
    summary_lines.append(f"baseline_always_dense\t{dense_fraction:.6f}\t"
                         f"{dense_fraction:.6f}\n")
    summary_lines.append(f"baseline_article_length\t{length_acc:.6f}\t"
                         f"{length_acc:.6f}\n")

    _write_atomic(out / "folds.tsv", "".join(fold_lines))
    _write_atomic(out / "accuracy_by_confidence.tsv", "".join(conf_lines))

    if args.sizes is not None:
        size_lines = ["mode\tn_train\tmean_accuracy\n"]
        for mode in modes:
            points = learning_curve(labeled, mapping, mode, lexicon=lexicon,
                                    sizes=list(args.sizes), k=10,
                                    seed=args.seed, config=config)
            for point in points:
                size_lines.append(f"{mode}\t{point.n_train}\t"
                                  f"{point.mean_accuracy:.6f}\n")
        _write_atomic(out / "accuracy_by_size.tsv", "".join(size_lines))

    _write_atomic(out / "summary.tsv", "".join(summary_lines))

    print(f"evaluated {len(labeled)} labeled leads "
          f"({n_unlabeled} unlabeled, {n_skipped} unscored)")
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

    p = sub.add_parser("generate", help="write a synthetic corpus")
    p.add_argument("--n", type=int, default=1000, help="number of leads")
    p.add_argument("--profile", choices=sorted(PROFILES), default="standard")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("label", help="heuristic density scores and labels")
    p.add_argument("--corpus", required=True)
    p.add_argument("--percentiles", type=_percentiles_arg, default=(20.0, 80.0),
                   metavar="LOW,HIGH")
    p.add_argument("--min-summary-words", type=int, default=MIN_SUMMARY_WORDS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("train", help="fit a classifier and save it")
    p.add_argument("--corpus", required=True)
    p.add_argument("--lexicon", default=default_lexicon_path(),
                   help="word-list file (default: bundled concrete-word list)")
    p.add_argument("--mode", choices=_CLI_MODES, default="decision-fusion")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--c-grid", type=_floats_arg, default=DEFAULT_C_GRID,
                   metavar="C1,C2,...")
    p.add_argument("--percentiles", type=_percentiles_arg, default=(20.0, 80.0),
                   metavar="LOW,HIGH")
    p.add_argument("--min-summary-words", type=int, default=MIN_SUMMARY_WORDS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="score a corpus with a saved model")
    p.add_argument("--corpus", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="10-fold cross-validation report")
    p.add_argument("--corpus", required=True)
    p.add_argument("--lexicon", default=default_lexicon_path(),
                   help="word-list file (default: bundled concrete-word list)")
    p.add_argument("--labels", default=None,
                   help="lead_id<TAB>label file; omitted = heuristic labels")
    p.add_argument("--mode", choices=_CLI_MODES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--c-grid", type=_floats_arg, default=DEFAULT_C_GRID,
                   metavar="C1,C2,...")
    p.add_argument("--percentiles", type=_percentiles_arg, default=(20.0, 80.0),
                   metavar="LOW,HIGH")
    p.add_argument("--min-summary-words", type=int, default=MIN_SUMMARY_WORDS)
    p.add_argument("--sizes", type=_ints_arg, default=None,
                   metavar="N1,N2,...",
                   help="training-set sizes for the learning curve")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("combine", help="summary-combination cutoff sweep")
    p.add_argument("--pairs", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--cutoffs", type=_floats_arg, default=DEFAULT_CUTOFFS,
                   metavar="T1,T2,...")
    p.add_argument("--out", required=True)
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
