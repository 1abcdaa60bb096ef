"""Choosing between a lead summary and a system summary by density score.

Both summaries of an article are scored with a trained classifier's
content-dense probability; the system summary is emitted when the score
difference (system minus lead) clears a cutoff. sweep_cutoffs scores every
pair once and applies that rule at each cutoff of a sweep. Includes the two
reference baselines (always-dense, article-length logistic) and an exact
binomial check for whether a combination beats a fixed success rate.

Correctness against human preference counts a tie judgment as correct for
either choice.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import (
    AnnotatedLead,
    json_field,
    json_lines,
    lead_from_record,
    lead_to_record,
)
from .errors import ContentDenseError, ValidationError, prefixed
from .features import FeatureTable
from .kernels import CsrMatrix, pack_csr
from .labeling import CONTENT_DENSE
from .learn import (
    LOSS_LOGISTIC,
    LinearModel,
    _check_disjoint,
    accuracy,
    train_linear,
)

PREF_SYSTEM = "system"
PREF_LEAD = "lead"
PREF_TIE = "tie"
PREFERENCES = (PREF_SYSTEM, PREF_LEAD, PREF_TIE)

DEFAULT_CUTOFFS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)


def _summary_tokens(lead: AnnotatedLead) -> tuple[str, ...]:
    return tuple(w for s in lead.sentences for w in s.tokens)


@dataclass(frozen=True)
class SummaryPair:
    """Two candidate summaries of one article plus the human judgment."""

    article_id: str
    lead_summary: AnnotatedLead
    system_summary: AnnotatedLead
    human_preference: str

    def __post_init__(self):
        if not self.article_id:
            raise ValidationError("pair has an empty article_id")
        if self.human_preference not in PREFERENCES:
            raise ValidationError(
                f"unknown preference {self.human_preference!r}"
            )
        if _summary_tokens(self.lead_summary) == _summary_tokens(
                self.system_summary):
            raise ValidationError(
                f"pair {self.article_id!r} has identical summaries; "
                "identical pairs are excluded"
            )


@dataclass(frozen=True)
class CutoffRow:
    """One row of the cutoff sweep.

    The preference breakdown covers only the pairs whose system summary
    was chosen at this cutoff; correctness covers every pair, with human
    ties correct under either choice.
    """

    cutoff: float
    n_total: int
    n_system_chosen: int
    chosen_pref_system: int
    chosen_pref_lead: int
    chosen_pref_tie: int
    n_correct: int

    def __post_init__(self):
        parts = (self.chosen_pref_system + self.chosen_pref_lead
                 + self.chosen_pref_tie)
        if parts != self.n_system_chosen:
            raise ValidationError(
                "preference breakdown does not sum to the chosen count"
            )

    @property
    def pct_correct(self) -> float:
        return 100.0 * self.n_correct / self.n_total


def sweep_cutoffs(pairs: Sequence[SummaryPair], classifier,
                  cutoffs: Sequence[float] = DEFAULT_CUTOFFS,
                  ) -> list[CutoffRow]:
    """Evaluate the combination rule at each cutoff.

    ``classifier`` is anything with probabilities(leads) -> the
    content_dense probability of each lead, normally a trained
    LeadClassifier. Summaries are scored once, in one batch; every cutoff
    reuses the same score differences, so decisions are a pure function of
    (scores, cutoff).
    """
    if not pairs:
        raise ValidationError("no summary pairs to sweep")
    scores = classifier.probabilities(
        [s for pair in pairs for s in (pair.system_summary, pair.lead_summary)])
    diffs = [float(system) - float(lead)
             for system, lead in zip(scores[0::2], scores[1::2])]
    rows = []
    for cutoff in cutoffs:
        chosen = [PREF_SYSTEM if d >= cutoff else PREF_LEAD for d in diffs]
        breakdown = Counter(
            pair.human_preference
            for pair, choice in zip(pairs, chosen) if choice == PREF_SYSTEM
        )
        n_correct = sum(
            pair.human_preference in (choice, PREF_TIE)
            for pair, choice in zip(pairs, chosen)
        )
        rows.append(CutoffRow(
            cutoff=float(cutoff),
            n_total=len(pairs),
            n_system_chosen=sum(c == PREF_SYSTEM for c in chosen),
            chosen_pref_system=breakdown.get(PREF_SYSTEM, 0),
            chosen_pref_lead=breakdown.get(PREF_LEAD, 0),
            chosen_pref_tie=breakdown.get(PREF_TIE, 0),
            n_correct=n_correct,
        ))
    return rows


def baseline_always_dense(gold_labels: Iterable[str]) -> float:
    """Accuracy of predicting content_dense for everything."""
    labels = list(gold_labels)
    if not labels:
        raise ValidationError("no gold labels")
    return sum(label == CONTENT_DENSE for label in labels) / len(labels)


@dataclass(frozen=True)
class LengthScaler:
    """Min-max map of article word counts onto [0, 1], fit on training data.

    Counts outside the training range clamp to the ends, which cannot move
    a value across a decision threshold learned strictly inside the range.
    A degenerate range maps everything to 0.
    """

    low: float
    high: float

    def matrix(self, counts: np.ndarray) -> CsrMatrix:
        """One column of scaled article lengths, a row per count; zero
        values are left out."""
        if self.high == self.low:
            values = np.zeros(len(counts))
        else:
            values = np.clip((counts - self.low) / (self.high - self.low),
                             0.0, 1.0)
        rows = np.flatnonzero(values)
        return pack_csr(rows, np.zeros(len(rows), dtype=np.int64),
                        values[rows], len(counts), 1)


def train_length_model(rows: np.ndarray, y: np.ndarray, table: FeatureTable,
                       ) -> tuple[LinearModel, LengthScaler]:
    """One-feature logistic model over scaled article length, at c = 1,
    trained on rows ``rows`` of ``table`` with classes ``y`` (+1/-1)."""
    if not len(rows):
        raise ValidationError("no training leads")
    table.check_labelled(rows, y)
    counts = table.article_words[rows]
    scaler = LengthScaler(low=float(counts.min()), high=float(counts.max()))
    model = train_linear(scaler.matrix(counts), y[rows], "LENGTH",
                         LOSS_LOGISTIC, 1.0)
    return model, scaler


def baseline_article_length(train_rows: np.ndarray, test_rows: np.ndarray,
                            y: np.ndarray, table: FeatureTable) -> float:
    """Test accuracy of the article-length logistic baseline, trained on
    rows ``train_rows`` of ``table`` and tested on ``test_rows``."""
    if not len(test_rows):
        raise ValidationError("no test leads")
    _check_disjoint(table, train_rows, test_rows, "test")
    table.check_labelled(test_rows, y)
    model, scaler = train_length_model(train_rows, y, table)
    test_X = scaler.matrix(table.article_words[test_rows])
    return accuracy(model.margins(test_X), y[test_rows])


def binomial_superiority_check(successes: int, n: int, p0: float) -> float:
    """Exact one-sided upper-tail binomial p-value P[X >= successes].

    X is Binomial(n, p0). Terms are computed in log space and summed with
    compensated addition, so the result is accurate for any n the sweep
    tables produce.
    """
    if not (isinstance(successes, int) and isinstance(n, int)):
        raise ValidationError("successes and n must be integers")
    if n < 1 or not 0 <= successes <= n:
        raise ValidationError(f"need 0 <= successes <= n, got {successes}/{n}")
    if not (math.isfinite(p0) and 0.0 < p0 < 1.0):
        raise ValidationError(f"p0 must lie strictly inside (0, 1), got {p0}")
    if successes == 0:
        return 1.0
    log_p = math.log(p0)
    log_q = math.log1p(-p0)
    log_n_fact = math.lgamma(n + 1)
    terms = [
        math.exp(log_n_fact - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                 + k * log_p + (n - k) * log_q)
        for k in range(successes, n + 1)
    ]
    return min(1.0, math.fsum(terms))


def pair_to_record(pair: SummaryPair) -> dict:
    return {
        "article_id": pair.article_id,
        "human_preference": pair.human_preference,
        "lead_summary": lead_to_record(pair.lead_summary),
        "system_summary": lead_to_record(pair.system_summary),
    }


def pair_from_record(rec) -> SummaryPair:
    """Build a pair from its JSON object; CorpusFormatError (json_field)
    names a missing or mistyped field, after the summary that holds it."""
    fields = [json_field(rec, "article_id", str)]
    for key in ("lead_summary", "system_summary"):
        summary = json_field(rec, key, dict)
        try:
            fields.append(lead_from_record(summary))
        except ContentDenseError as e:
            raise prefixed(e, key)
    return SummaryPair(*fields, json_field(rec, "human_preference", str))


def load_pairs(path: str | Path) -> list[SummaryPair]:
    """Load a JSON-lines pair file, naming the file and line of any bad
    record."""
    pairs = []
    for lineno, rec in json_lines(path):
        try:
            pairs.append(pair_from_record(rec))
        except ContentDenseError as e:
            raise prefixed(e, f"{path}: line {lineno}")
    return pairs


def save_pairs(pairs: Sequence[SummaryPair], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for pair in pairs:
            fh.write(json.dumps(pair_to_record(pair), ensure_ascii=False,
                                separators=(",", ":")) + "\n")
