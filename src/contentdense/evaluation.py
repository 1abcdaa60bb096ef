"""Cross-validation protocol, learning curves, agreement metrics, and
annotation handling.

The protocol is 10-fold with a 5/4/1 role split per iteration: five folds
train the per-space models, four folds serve as development data (model
selection and the fusion second layer), one fold is held out for testing.
The test fold for iteration t is the same regardless of which classifier
modes are evaluated, so accuracies are comparable across modes.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import AnnotatedLead
from .errors import ContentDenseError, NumericError, ValidationError
from .features import SPACE_ORDER, FeatureTable, build_feature_bundle
from .labeling import CONTENT_DENSE, LABELS, NON_CONTENT_DENSE
from .learn import (
    MODE_DECISION_FUSION,
    MODE_FEATURE_FUSION,
    MODES,
    SINGLE_MODE_SPACE,
    LeadClassifier,
    LinearModel,
    TrainConfig,
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


def _needed_spaces(modes: Sequence[str]) -> tuple[str, ...]:
    needed: set[str] = set()
    for mode in modes:
        if mode in SINGLE_MODE_SPACE:
            needed.add(SINGLE_MODE_SPACE[mode])
        else:
            needed.update(SPACE_ORDER)
    return tuple(s for s in SPACE_ORDER if s in needed)


def split_train_dev(items: Sequence) -> tuple[list, list]:
    """The 5:4 training/development split of an ordered sequence: the
    first floor(5n/9) items (at least one) train, the rest are for
    development. Two or more items leave both parts non-empty."""
    n_train = max(1, (5 * len(items)) // 9)
    return list(items[:n_train]), list(items[n_train:])


def train_modes(modes: Sequence[str],
                train_leads: Sequence[AnnotatedLead],
                dev_leads: Sequence[AnnotatedLead],
                labels: Mapping[str, str],
                lexicon: Iterable[str] | None,
                table: FeatureTable,
                config: TrainConfig,
                min_count: int = 5,
                top_k: int = 500,
                pr_value: str = "count") -> dict[str, LeadClassifier]:
    """A classifier per mode, trained on one split. All share one bundle
    of the spaces the modes need, built from ``train_leads``; each
    per-space model is trained once, for its single-space mode and the
    decision-fusion first layer alike. ``dev_leads`` picks c and trains
    the second layer; without decision fusion and with a one-value c
    grid it may be empty."""
    bundle = build_feature_bundle(
        train_leads, labels, lexicon, include=_needed_spaces(modes),
        min_count=min_count, top_k=top_k, pr_value=pr_value, table=table)
    space_models: dict[str, LinearModel] = {}

    def space_model(name: str) -> LinearModel:
        if name not in space_models:
            space_models[name] = train_single(train_leads, labels, bundle,
                                              name, config, dev_leads)
        return space_models[name]

    classifiers = {}
    for mode in modes:
        if mode in SINGLE_MODE_SPACE:
            model = space_model(SINGLE_MODE_SPACE[mode])
        elif mode == MODE_FEATURE_FUSION:
            model = train_feature_fusion(train_leads, labels, bundle, config,
                                         dev_leads)
        else:
            model = train_decision_fusion(
                train_leads, dev_leads, labels, bundle, config,
                first_layer={name: space_model(name) for name in SPACE_ORDER})
        classifiers[mode] = LeadClassifier(mode=mode, bundle=bundle,
                                           model=model)
    return classifiers


def _check_modes_and_labels(mode_list: Sequence[str],
                            leads: Sequence[AnnotatedLead],
                            labels: Mapping[str, str]) -> None:
    for mode in mode_list:
        if mode not in MODES:
            raise ValidationError(f"unknown mode {mode!r}")
    if len(set(mode_list)) != len(mode_list):
        raise ValidationError("duplicate modes requested")
    missing = [l.id for l in leads if l.id not in labels]
    if missing:
        raise ValidationError(
            f"{len(missing)} lead(s) have no label, e.g. {missing[0]!r}"
        )


def cross_validate(leads: Sequence[AnnotatedLead],
                   labels: Mapping[str, str],
                   modes: str | Sequence[str],
                   lexicon: Iterable[str] | None = None,
                   k: int = 10,
                   seed: int = 0,
                   config: TrainConfig | None = None,
                   fold_subset: Sequence[int] | None = None,
                   min_count: int = 5,
                   top_k: int = 500,
                   pr_value: str = "count"):
    """Cross-validated accuracy for one mode (str) or several at once.

    Evaluating several modes together shares the per-fold feature spaces
    and the per-space first-layer models, so the test fold and everything
    trained from the first-layer folds is identical across modes. Returns
    one CrossValidationResult for a single mode, or a dict keyed by mode.

    Training failures carry the fold index in their message.
    """
    single = isinstance(modes, str)
    mode_list = [modes] if single else list(modes)
    config = config or TrainConfig()
    _check_modes_and_labels(mode_list, leads, labels)
    by_id = {l.id: l for l in leads}
    plan = make_folds([l.id for l in leads], k=k, seed=seed)
    fold_iter = (range(k) if fold_subset is None
                 else sorted(set(fold_subset)))
    results = {m: CrossValidationResult(m, [], []) for m in mode_list}
    table = FeatureTable(leads)

    for t in fold_iter:
        try:
            _, first, second = plan.roles(t)
            train_leads = [by_id[i] for f in first for i in plan.folds[f]]
            dev_leads = [by_id[i] for f in second for i in plan.folds[f]]
            test_leads = [by_id[i] for i in plan.folds[t]]
            classifiers = train_modes(mode_list, train_leads, dev_leads,
                                      labels, lexicon, table, config,
                                      min_count, top_k, pr_value)
            for mode, clf in classifiers.items():
                lexicon = clf.bundle.mrc or lexicon  # later folds reuse it
                z = clf.margins(test_leads)
                correct = 0
                for lead, m, p in zip(test_leads, z.tolist(),
                                      clf.proba_from_margins(z).tolist()):
                    predicted = margin_label(m)
                    correct += predicted == labels[lead.id]
                    results[mode].predictions.append(Prediction(
                        lead_id=lead.id, fold=t, proba=p,
                        predicted=predicted, actual=labels[lead.id]))
                results[mode].folds.append(FoldAccuracy(
                    fold=t, n_test=len(test_leads), n_correct=correct))
        except ContentDenseError as e:
            raise type(e)(f"fold {t}: {e}") from e
    return results[modes] if single else results


@dataclass(frozen=True)
class LearningCurvePoint:
    n_train: int
    mean_accuracy: float
    fold_accuracies: tuple[float, ...]


def learning_curve(leads: Sequence[AnnotatedLead],
                   labels: Mapping[str, str],
                   mode: str,
                   lexicon: Iterable[str] | None = None,
                   sizes: Sequence[int] = range(100, 6501, 100),
                   k: int = 10,
                   seed: int = 0,
                   fold_subset: Sequence[int] | None = None,
                   config: TrainConfig | None = None,
                   min_count: int = 5,
                   top_k: int = 500,
                   pr_value: str = "count") -> list[LearningCurvePoint]:
    """Accuracy as a function of training set size, averaged over folds.

    For each fold the non-test leads are shuffled once (seeded by the run
    seed and the fold index); each requested size trains on a prefix of
    that shuffle, so successive points grow by adding leads to the pool,
    never by resampling it. When the mode needs development data (fusion
    second layer, or a c grid with several values), the prefix splits 5:4
    into training and development parts; otherwise the whole prefix
    trains. Sizes beyond the available pool are dropped; if none fit the
    curve has a single point at the full pool size.
    """
    config = config or TrainConfig()
    _check_modes_and_labels([mode], leads, labels)
    by_id = {l.id: l for l in leads}
    plan = make_folds([l.id for l in leads], k=k, seed=seed)
    fold_iter = list(range(k) if fold_subset is None
                     else sorted(set(fold_subset)))
    for t in fold_iter:
        if not 0 <= t < k:
            raise ValidationError(f"fold index {t} outside 0..{k - 1}")
    pool_min = min(len(leads) - len(plan.folds[t]) for t in fold_iter)
    wanted = sorted({int(s) for s in sizes})
    if any(s < 2 for s in wanted):
        raise ValidationError("every size must be at least 2")
    usable = [s for s in wanted if s <= pool_min]
    if not usable:
        usable = [pool_min]
    needs_dev = (mode == MODE_DECISION_FUSION
                 or len(config.sorted_c_grid) > 1)
    table = FeatureTable(leads)
    accs: dict[int, list[float]] = {s: [] for s in usable}

    for t in fold_iter:
        try:
            pool = [i for f in range(k) if f != t for i in plan.folds[f]]
            rng = np.random.default_rng([seed, t])
            pool = [pool[j] for j in rng.permutation(len(pool))]
            test_leads = [by_id[i] for i in plan.folds[t]]
            for size in usable:
                prefix = [by_id[i] for i in pool[:size]]
                train_leads, dev_leads = (split_train_dev(prefix) if needs_dev
                                          else (prefix, []))
                clf = train_modes([mode], train_leads, dev_leads, labels,
                                  lexicon, table, config, min_count, top_k,
                                  pr_value)[mode]
                lexicon = clf.bundle.mrc or lexicon
                correct = sum(margin_label(m) == labels[l.id]
                              for l, m in zip(test_leads,
                                              clf.margins(test_leads).tolist()))
                accs[size].append(correct / len(test_leads))
        except ContentDenseError as e:
            raise type(e)(f"fold {t}: {e}") from e

    return [LearningCurvePoint(
                n_train=s,
                mean_accuracy=math.fsum(accs[s]) / len(accs[s]),
                fold_accuracies=tuple(accs[s]))
            for s in usable]


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
