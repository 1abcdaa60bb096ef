"""Cross-validation protocol, learning curves, agreement metrics, and
annotation handling.

The protocol is 10-fold with a 5/4/1 role split per iteration: five folds
train the per-space models, four folds serve as development data (model
selection and the fusion second layer), one fold is held out for testing.
The test fold for iteration t is the same regardless of which classifier
modes are evaluated, so accuracies are comparable across modes.

``cross_validate`` and ``learning_curve`` train each fold, and
``map_line_ranges`` runs each byte range of a file, in a forked child
(``fork_map``), one per usable CPU; the calling process only gathers the
results. With one CPU, or where the platform cannot fork, the folds run in
the calling process. No result depends on the number of children.
"""

from __future__ import annotations

import math
import os
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .corpus import AnnotatedLead, line_spans
from .errors import ContentDenseError, NumericError, ValidationError, prefixed
from .features import (
    SPACE_MRC,
    SPACE_ORDER,
    SPACE_PR,
    FeatureSpace,
    FeatureTable,
    build_feature_bundle,
    mrc_space,
)
from .labeling import CONTENT_DENSE, LABELS, NON_CONTENT_DENSE
from .learn import (
    MODE_DECISION_FUSION,
    MODE_FEATURE_FUSION,
    MODE_SPACES,
    MODES,
    LeadClassifier,
    TrainConfig,
    accuracy,
    label_vector,
    margin_label,
    train_decision_fusion,
    train_feature_fusion,
    train_single,
)

CONDITION_IN_DOMAIN = "in_domain"
CONDITION_GENERAL = "general"
CONDITIONS = (CONDITION_IN_DOMAIN, CONDITION_GENERAL)


@dataclass(frozen=True)
class FoldPlan:
    """A partition of lead ids into folds, with per-iteration roles."""

    folds: tuple[tuple[str, ...], ...]

    @property
    def n_folds(self) -> int:
        return len(self.folds)

    def roles(self, t: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """(test fold, first-layer training folds, second-layer folds).

        The k-1 non-test folds split into floor(k/2) first-layer folds and
        the rest for the second layer; at k=10 that is the 5/4/1 split.
        """
        k = self.n_folds
        if not 0 <= t < k:
            raise ValidationError(f"fold index {t} outside 0..{k - 1}")
        n_first = k // 2
        others = [(t + 1 + j) % k for j in range(k - 1)]
        return t, tuple(others[:n_first]), tuple(others[n_first:])


def make_folds(ids: Sequence[str], k: int = 10, seed: int = 0) -> FoldPlan:
    """Shuffle ids by seed and deal them round-robin into k folds.

    Fold sizes differ by at most one. The same seed always yields the same
    plan, which keeps the held-out test fold fixed across runs that only
    change classifier configuration.
    """
    if len(set(ids)) != len(ids):
        raise ValidationError("duplicate ids in fold assignment")
    if k < 2:
        raise ValidationError("need at least two folds")
    if len(ids) < k:
        raise ValidationError(f"{len(ids)} ids cannot fill {k} folds")
    if seed < 0:
        raise ValidationError(
            f"seed must be a non-negative integer, got {seed}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ids))
    folds: list[list[str]] = [[] for _ in range(k)]
    for j, pos in enumerate(order):
        folds[j % k].append(ids[pos])
    return FoldPlan(folds=tuple(tuple(f) for f in folds))


@dataclass(frozen=True)
class Prediction:
    lead_id: str
    fold: int
    proba: float
    predicted: str
    actual: str


@dataclass(frozen=True)
class FoldAccuracy:
    fold: int
    n_test: int
    n_correct: int

    @property
    def accuracy(self) -> float:
        return self.n_correct / self.n_test


@dataclass
class CrossValidationResult:
    mode: str
    folds: list[FoldAccuracy]
    predictions: list[Prediction]

    @property
    def mean_accuracy(self) -> float:
        return math.fsum(f.accuracy for f in self.folds) / len(self.folds)

    @property
    def overall_accuracy(self) -> float:
        total = sum(f.n_test for f in self.folds)
        return sum(f.n_correct for f in self.folds) / total


def split_train_dev(items: Sequence) -> tuple[Sequence, Sequence]:
    """The 5:4 training/development split of an ordered sequence, as two
    slices of it: the first floor(5n/9) items (at least one) train, the
    rest are for development. Two or more items leave both non-empty."""
    n_train = max(1, (5 * len(items)) // 9)
    return items[:n_train], items[n_train:]


def train_modes(modes: Sequence[str],
                train_rows: np.ndarray,
                dev_rows: np.ndarray,
                y: np.ndarray,
                lexicon: Iterable[str] | None,
                table: FeatureTable,
                config: TrainConfig,
                top_k: int = 500) -> dict[str, LeadClassifier]:
    """A classifier per mode, trained on rows of ``table`` with classes
    ``y`` (``label_vector``). All share one bundle of the spaces the modes
    need, built from ``train_rows``; each per-space model is trained once,
    for its single-space mode and the decision-fusion first layer alike.
    ``dev_rows`` pick c and train the second layer; without decision
    fusion and with a one-value c grid they may be empty. A
    ValidationError names the first lead ``y`` leaves unlabelled, before
    anything trains."""
    table.check_labelled(np.concatenate([train_rows, dev_rows]), y)
    bundle = build_feature_bundle(
        train_rows, y, lexicon,
        include=[s for s in SPACE_ORDER
                 if any(s in MODE_SPACES[m] for m in modes)],
        top_k=top_k, table=table)
    shared = {s for m in modes if m != MODE_FEATURE_FUSION
              for s in MODE_SPACES[m]}
    space_models = {name: train_single(train_rows, y, bundle, name, config,
                                       dev_rows)
                    for name in SPACE_ORDER if name in shared}
    classifiers = {}
    for mode in modes:
        if mode == MODE_FEATURE_FUSION:
            model = train_feature_fusion(train_rows, y, bundle, config,
                                         dev_rows)
        elif mode == MODE_DECISION_FUSION:
            model = train_decision_fusion(train_rows, dev_rows, y, bundle,
                                          config, first_layer=space_models)
        else:
            model = space_models[MODE_SPACES[mode][0]]
        classifiers[mode] = LeadClassifier(mode=mode, bundle=bundle,
                                           model=model)
    return classifiers


def _plan_folds(modes: str | Sequence[str], leads: Sequence[AnnotatedLead],
                labels: Mapping[str, str], lexicon: Iterable[str] | None,
                k: int, seed: int, fold_subset: Sequence[int] | None,
                table: FeatureTable | None):
    """(mode list, fold plan, folds to run in increasing order, each
    fold's rows in ``table``, ``label_vector(table, labels)``, lexicon,
    table), after checking the modes, the labels, every fold index and
    that ``table`` (a new one over ``leads`` when None) holds every lead,
    so that a bad argument fails before anything trains. The table has
    counted what the modes need, for forked fold children to inherit. When
    a mode needs the MRC space, the returned lexicon is that space, built
    once for every fold."""
    mode_list = [modes] if isinstance(modes, str) else list(modes)
    for mode in mode_list:
        if mode not in MODES:
            raise ValidationError(f"unknown mode {mode!r}")
    if len(set(mode_list)) != len(mode_list):
        raise ValidationError("duplicate modes requested")
    missing = [l.id for l in leads if l.id not in labels]
    if missing:
        raise ValidationError(f"{len(missing)} lead(s) have no label, "
                              f"e.g. {missing[0]!r}")
    plan = make_folds([l.id for l in leads], k=k, seed=seed)
    fold_iter = list(range(k) if fold_subset is None
                     else sorted(set(fold_subset)))
    if not fold_iter:
        raise ValidationError("fold_subset names no fold")
    for t in fold_iter:
        plan.roles(t)
    if table is None:
        table = FeatureTable(leads)
    rows = table.rows(leads)  # raises for a lead the table lacks
    # make_folds deals positions 0..n-1 as it deals the ids at them
    fold_rows = [rows[list(fold)]
                 for fold in make_folds(range(len(leads)), k, seed).folds]
    y = label_vector(table, labels)
    spaces = {s for m in mode_list for s in MODE_SPACES[m]}
    if spaces - {SPACE_PR}:
        table.words
    if SPACE_PR in spaces:
        table.rules
    if (lexicon is not None and not isinstance(lexicon, FeatureSpace)
            and SPACE_MRC in spaces):
        lexicon = mrc_space(lexicon)
    return mode_list, plan, fold_iter, fold_rows, y, lexicon, table


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _map_folds(work: Callable[[int], object],
               fold_iter: Sequence[int]) -> list:
    """``work(t)`` for every fold t of ``fold_iter``, in that order, each
    in a forked child (``fork_map``). Where that runs nothing or a fold
    fails, the folds run here, in order: a ContentDenseError re-raises as
    its own type with the fold index in its message, the lowest first."""
    results = fork_map(work, fold_iter)
    if results is not None:
        return results
    results = []
    for t in fold_iter:
        try:
            results.append(work(t))
        except ContentDenseError as e:
            raise prefixed(e, f"fold {t}")
    return results


def map_line_ranges(path, work: Callable[[tuple[int, int]], object],
                    ) -> list | None:
    """``work(span)`` for each byte range ``corpus.line_spans`` cuts the
    file at ``path`` into, one range per usable CPU, in file order, each
    range in a forked child (``fork_map``). None, having run no range,
    when the file cannot be cut or gives fewer than two ranges, and
    wherever ``fork_map`` gives None."""
    try:
        spans = line_spans(path, _usable_cpus())
    except Exception:
        return None
    return fork_map(work, spans)


def fork_map(work: Callable[[object], object], items: Sequence,
             ) -> list | None:
    """``[work(item) for item in items]``, each item run in a forked
    child; this process only gathers the results.

    n = min(usable CPUs, items) children fork, and child i runs the share
    ``items[i::n]``, so no result depends on n. A child inherits ``work``
    through the fork, writes nothing to stdout or stderr, sends its
    results pickled through a pipe, leaves through ``os._exit`` and
    reports a failure by its exit status alone. Returns None, having run
    nothing, when n < 2 or processes cannot fork, and when a child could
    not start, exited nonzero or sent a short result. Every child is
    reaped on every way out, and killed first on a failure or interrupt.
    """
    import pickle
    import signal

    n = min(_usable_cpus(), len(items))
    if n < 2 or not hasattr(os, "fork"):
        return None
    pids: list[int] = []
    pipes: list[int] = []  # read ends, one per child
    try:
        for i in range(n):
            r, w = os.pipe()
            pipes.append(r)
            # SIGINT waits until the child's pid is recorded here; the
            # child keeps it blocked and is killed if this process stops.
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                pid = os.fork()
                if not pid:
                    _send_from_child(work, items[i::n], w)
                pids.append(pid)
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                os.close(w)
        results = [None] * len(items)
        for i, r in enumerate(pipes):
            with open(r, "rb", closefd=False) as fh:
                data = fh.read()
            status = os.waitpid(pids[0], 0)[1]
            del pids[0]  # reaped
            if os.waitstatus_to_exitcode(status) != 0:
                return None
            # a share of the wrong length raises ValueError here
            results[i::n] = pickle.loads(data)
        return results
    except Exception:
        return None
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for r in pipes:
            os.close(r)


def _send_from_child(work: Callable[[object], object], share: Sequence,
                     fd: int):
    """In a forked child: write ``[work(item) for item in share]`` pickled
    to ``fd``, then leave through ``os._exit``, with status 0 only when
    all of it was written. No exit handler or buffered output of the
    parent's runs."""
    import pickle
    import sys

    code = 1
    try:
        sys.stdout = sys.stderr = None  # print and warnings write nothing
        with open(fd, "wb") as fh:
            pickle.dump([work(item) for item in share], fh,
                        pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def cross_validate(leads: Sequence[AnnotatedLead],
                   labels: Mapping[str, str],
                   modes: str | Sequence[str],
                   lexicon: Iterable[str] | None = None,
                   k: int = 10,
                   seed: int = 0,
                   config: TrainConfig | None = None,
                   fold_subset: Sequence[int] | None = None,
                   top_k: int = 500,
                   table: FeatureTable | None = None):
    """Cross-validated accuracy for one mode (str) or several at once.

    Evaluating several modes together shares the per-fold feature spaces
    and the per-space first-layer models, so the test fold and everything
    trained from the first-layer folds is identical across modes. Returns
    one CrossValidationResult for a single mode, or a dict keyed by mode.
    Counts come from ``table`` (one over ``leads`` when none is given),
    which must hold every lead. Each fold trains in a forked child (see
    the module notes).

    Training failures carry the fold index in their message.
    """
    config = config or TrainConfig()
    mode_list, plan, fold_iter, fold_rows, y, lexicon, table = _plan_folds(
        modes, leads, labels, lexicon, k, seed, fold_subset, table)

    def test_scores(t: int) -> dict[str, tuple[list[float], list[float]]]:
        """Each mode's margins and probabilities on test fold t."""
        _, first, second = plan.roles(t)
        train_rows = np.concatenate([fold_rows[f] for f in first])
        dev_rows = np.concatenate([fold_rows[f] for f in second])
        classifiers = train_modes(mode_list, train_rows, dev_rows, y,
                                  lexicon, table, config, top_k)
        scores = {}
        for mode, clf in classifiers.items():
            z = clf.model.score(clf.bundle, fold_rows[t])
            scores[mode] = (z.tolist(), clf.proba_from_margins(z).tolist())
        return scores

    results = {m: CrossValidationResult(m, [], []) for m in mode_list}
    for t, scores in zip(fold_iter, _map_folds(test_scores, fold_iter)):
        for mode, (margins, probas) in scores.items():
            correct = 0
            for lead_id, m, p in zip(plan.folds[t], margins, probas):
                predicted = margin_label(m)
                correct += predicted == labels[lead_id]
                results[mode].predictions.append(Prediction(
                    lead_id=lead_id, fold=t, proba=p,
                    predicted=predicted, actual=labels[lead_id]))
            results[mode].folds.append(FoldAccuracy(
                fold=t, n_test=len(plan.folds[t]), n_correct=correct))
    return results[modes] if isinstance(modes, str) else results


@dataclass(frozen=True)
class LearningCurvePoint:
    n_train: int
    mean_accuracy: float
    fold_accuracies: tuple[float, ...]


def curve_sizes(sizes: Iterable[int]) -> list[int]:
    """The distinct sizes, increasing; each must be at least 2 to split."""
    wanted = sorted({int(s) for s in sizes})
    if any(s < 2 for s in wanted):
        raise ValidationError("every size must be at least 2")
    return wanted


def learning_curve(leads: Sequence[AnnotatedLead],
                   labels: Mapping[str, str],
                   modes: str | Sequence[str],
                   lexicon: Iterable[str] | None = None,
                   sizes: Sequence[int] = range(100, 6501, 100),
                   k: int = 10,
                   seed: int = 0,
                   fold_subset: Sequence[int] | None = None,
                   config: TrainConfig | None = None,
                   top_k: int = 500,
                   table: FeatureTable | None = None):
    """Accuracy by training set size, averaged over folds, for one mode
    (str; a list of points) or several (a dict keyed by mode).

    For each fold the non-test leads are shuffled once (seeded by the run
    seed and the fold index); each requested size trains on a prefix of
    that shuffle, so successive points grow by adding leads to the pool,
    never by resampling it. When a mode needs development data (fusion
    second layer, or a c grid with several values), the prefix splits 5:4
    into training and development parts; otherwise the whole prefix
    trains. Modes that split it alike train together, as in
    ``cross_validate``. Sizes beyond the available pool are dropped; if
    none fit the curve has a single point at the full pool size. Counts
    come from ``table`` (one over ``leads`` when none is given), which
    must hold every lead. Each fold trains in a forked child (see the
    module notes).
    """
    config = config or TrainConfig()
    mode_list, plan, fold_iter, fold_rows, y, lexicon, table = _plan_folds(
        modes, leads, labels, lexicon, k, seed, fold_subset, table)
    pool_min = min(len(leads) - len(plan.folds[t]) for t in fold_iter)
    usable = [s for s in curve_sizes(sizes) if s <= pool_min] or [pool_min]
    by_split: dict[bool, list[str]] = {}  # needs development data -> modes
    for mode in mode_list:
        by_split.setdefault(mode == MODE_DECISION_FUSION
                            or len(config.sorted_c_grid) > 1, []).append(mode)

    def size_accuracies(t: int) -> dict[str, list[float]]:
        """Each mode's test-fold accuracy at each usable size, fold t."""
        pool = np.concatenate([fold_rows[f] for f in range(k) if f != t])
        pool = pool[np.random.default_rng([seed, t]).permutation(len(pool))]
        test_rows = fold_rows[t]
        accs: dict[str, list[float]] = {m: [] for m in mode_list}
        for size in usable:
            prefix = pool[:size]
            for needs_dev, group in by_split.items():
                train_rows, dev_rows = (split_train_dev(prefix) if needs_dev
                                        else (prefix, prefix[:0]))
                classifiers = train_modes(group, train_rows, dev_rows, y,
                                          lexicon, table, config, top_k)
                for mode, clf in classifiers.items():
                    accs[mode].append(accuracy(
                        clf.model.score(clf.bundle, test_rows), y[test_rows]))
        return accs

    per_fold = _map_folds(size_accuracies, fold_iter)
    curves = {m: [LearningCurvePoint(n_train=s,
                                     mean_accuracy=math.fsum(a) / len(a),
                                     fold_accuracies=a)
                  for s, a in zip(usable, zip(*(f[m] for f in per_fold)))]
              for m in mode_list}
    return curves[modes] if isinstance(modes, str) else curves


def pearson_correlation(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample Pearson correlation; raises NumericError on zero variance."""
    if len(x) != len(y):
        raise ValidationError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise ValidationError("need at least two points")
    xs = [float(v) for v in x]
    ys = [float(v) for v in y]
    if not all(math.isfinite(v) for v in xs + ys):
        raise ValidationError("inputs must be finite")
    n = len(xs)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxx = math.fsum((v - mx) ** 2 for v in xs)
    syy = math.fsum((v - my) ** 2 for v in ys)
    sxy = math.fsum((a - mx) * (b - my) for a, b in zip(xs, ys))
    if sxx == 0.0 or syy == 0.0:
        raise NumericError("correlation undefined for a constant vector")
    return sxy / math.sqrt(sxx * syy)


def percent_agreement_and_kappa(a: Sequence, b: Sequence) -> tuple[float, float]:
    """Fraction of equal labels and Cohen's kappa for two annotators.

    Kappa corrects the observed agreement p_o by the chance agreement p_e
    of the two marginal label distributions. When both annotators are
    constant with the same label, p_e is 1 and kappa has no value.
    """
    if len(a) != len(b):
        raise ValidationError(f"length mismatch: {len(a)} vs {len(b)}")
    if not a:
        raise ValidationError("need at least one pair of labels")
    n = len(a)
    p_o = sum(u == v for u, v in zip(a, b)) / n
    count_a = Counter(a)
    count_b = Counter(b)
    p_e = math.fsum(count_a[label] / n * count_b.get(label, 0) / n
                    for label in count_a)
    if p_e == 1.0:
        raise NumericError(
            "both annotators are constant and equal; kappa is undefined"
        )
    kappa = (p_o - p_e) / (1.0 - p_e)
    return p_o, kappa


@dataclass(frozen=True)
class AnnotationRecord:
    """One crowd judgment of one lead."""

    lead_id: str
    annotator_id: str
    binary_label: str
    score: float
    elapsed_seconds: float
    condition: str = CONDITION_GENERAL

    def __post_init__(self):
        if self.binary_label not in LABELS:
            raise ValidationError(f"unknown label {self.binary_label!r}")
        if not (math.isfinite(self.score) and 0.0 <= self.score <= 100.0):
            raise ValidationError(f"score {self.score!r} outside [0, 100]")
        if not (math.isfinite(self.elapsed_seconds)
                and self.elapsed_seconds >= 0.0):
            raise ValidationError("elapsed_seconds must be a nonnegative real")
        if self.condition not in CONDITIONS:
            raise ValidationError(f"unknown condition {self.condition!r}")


def _consistent(record: AnnotationRecord, midpoint: float) -> bool:
    if record.binary_label == CONTENT_DENSE:
        return record.score >= midpoint
    return record.score < midpoint


def filter_amt_annotators(records: Sequence[AnnotationRecord],
                          min_mean_seconds: float = 40.0,
                          midpoint: float = 50.0) -> list[AnnotationRecord]:
    """Drop every record of an annotator who fails either quality gate.

    An annotator survives only if their mean annotation time is strictly
    above ``min_mean_seconds`` and every one of their (label, score) pairs
    is consistent: content_dense requires score >= midpoint, the other
    label requires score < midpoint. Record order is preserved.
    """
    by_annotator: dict[str, list[AnnotationRecord]] = defaultdict(list)
    for rec in records:
        by_annotator[rec.annotator_id].append(rec)
    kept = set()
    for annotator, recs in by_annotator.items():
        mean_elapsed = math.fsum(r.elapsed_seconds for r in recs) / len(recs)
        if mean_elapsed <= min_mean_seconds:
            continue
        if all(_consistent(r, midpoint) for r in recs):
            kept.add(annotator)
    return [r for r in records if r.annotator_id in kept]


@dataclass(frozen=True)
class AggregatedAnnotation:
    label: str
    mean_score: float
    n_records: int


def aggregate_annotations(records: Sequence[AnnotationRecord],
                          ) -> dict[str, AggregatedAnnotation]:
    """Majority label and mean score per lead; label ties go content_dense."""
    if not records:
        raise ValidationError("no annotation records to aggregate")
    by_lead: dict[str, list[AnnotationRecord]] = defaultdict(list)
    for rec in records:
        by_lead[rec.lead_id].append(rec)
    out = {}
    for lead_id, recs in by_lead.items():
        n_dense = sum(r.binary_label == CONTENT_DENSE for r in recs)
        label = (CONTENT_DENSE if n_dense >= len(recs) - n_dense
                 else NON_CONTENT_DENSE)
        mean_score = math.fsum(r.score for r in recs) / len(recs)
        out[lead_id] = AggregatedAnnotation(label=label, mean_score=mean_score,
                                            n_records=len(recs))
    return out


@dataclass(frozen=True)
class ConfidenceStratum:
    percent: float
    n_used: int
    n_correct: int

    @property
    def accuracy(self) -> float:
        return self.n_correct / self.n_used


def confidence_stratified_accuracy(probs: Sequence[float],
                                   labels: Sequence[str],
                                   percentiles: Sequence[float] = (10, 25, 50, 100),
                                   ids: Sequence[str] | None = None,
                                   predicted: Sequence[str] | None = None,
                                   ) -> list[ConfidenceStratum]:
    """Accuracy over the most confident slice of predictions per percentile.

    Confidence is max(p, 1-p). Correctness uses the classifier's own
    decisions when `predicted` is given; otherwise a prediction counts as
    content_dense when p >= 0.5. Pass `predicted` whenever the labels the
    classifier actually emitted are available: a Platt-calibrated hinge
    model crosses probability 0.5 at a nonzero margin, so thresholding p
    would score a slightly different classifier than the one whose
    accuracy is reported elsewhere.

    Predictions sort by descending confidence (ties by id, or by position
    when ids are absent). Each slice takes ceil(pct*N/100) predictions and
    then grows to include every prediction whose confidence equals the
    boundary value, so equally confident predictions are never split. At
    100% the slice is the whole input, giving plain accuracy exactly.
    """
    n = len(probs)
    if n == 0:
        raise ValidationError("no predictions to stratify")
    if (len(labels) != n or (ids is not None and len(ids) != n)
            or (predicted is not None and len(predicted) != n)):
        raise ValidationError("probs, labels, ids, and predicted must align")
    for p in probs:
        if not (math.isfinite(p) and 0.0 <= p <= 1.0):
            raise ValidationError(f"probability {p!r} outside [0, 1]")
    for label in labels:
        if label not in LABELS:
            raise ValidationError(f"unknown label {label!r}")
    keys = ids if ids is not None else range(n)
    conf = [max(p, 1.0 - p) for p in probs]
    if predicted is None:
        decided = [CONTENT_DENSE if p >= 0.5 else NON_CONTENT_DENSE
                   for p in probs]
    else:
        for label in predicted:
            if label not in LABELS:
                raise ValidationError(f"unknown label {label!r}")
        decided = list(predicted)
    correct = [d == label for d, label in zip(decided, labels)]
    order = sorted(range(n), key=lambda i: (-conf[i], keys[i]))
    strata = []
    for pct in percentiles:
        if not 0.0 < pct <= 100.0:
            raise ValidationError(f"percentile {pct!r} outside (0, 100]")
        m = math.ceil(pct * n / 100.0)
        boundary = conf[order[m - 1]]
        while m < n and conf[order[m]] == boundary:
            m += 1
        taken = order[:m]
        strata.append(ConfidenceStratum(
            percent=float(pct), n_used=m,
            n_correct=sum(correct[i] for i in taken)))
    return strata


def strata_from_predictions(predictions: Sequence[Prediction],
                            percentiles: Sequence[float] = (10, 25, 50, 100),
                            ) -> list[ConfidenceStratum]:
    """Confidence strata over pooled cross-validation predictions.

    Correctness comes from each prediction's stored label, so the 100%
    stratum matches the pooled fold accuracy exactly.
    """
    return confidence_stratified_accuracy(
        [p.proba for p in predictions],
        [p.actual for p in predictions],
        percentiles,
        ids=[p.lead_id for p in predictions],
        predicted=[p.predicted for p in predictions],
    )
