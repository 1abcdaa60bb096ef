"""The three sparse feature representations and their feature spaces.

MRC: for every word of a fixed lexicon, its occurrence count in the lead
divided by the lead's token count.

MI: binary presence indicators over a vocabulary selected by pointwise
mutual information between word presence and class, estimated from
document-presence counts on the training data only.

PR: occurrence counts (or binary presence) of unlexicalized production
rules read off the leads' constituency parses; preterminal-to-word
productions are never included, so no surface word reaches a feature key.

Each representation owns a FeatureSpace mapping feature keys to dense
indices. A FeatureTable counts every word and every rule of a lead list
once; a fold's spaces are column counts over its rows, and
FeatureBundle.matrix is a row take of the table whose columns each space
maps onto its own, side by side with cumulative column offsets in the
fixed order MRC, MI, PR.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import AnnotatedLead, Parse, ProductionRule
from .errors import (
    EmptyLeadError,
    MissingParseError,
    SingleClassError,
    ValidationError,
)
from .kernels import CsrMatrix, csr_take, pack_csr
from .labeling import CONTENT_DENSE, NON_CONTENT_DENSE

SPACE_MRC = "MRC"
SPACE_MI = "MI"
SPACE_PR = "PR"
SPACE_ORDER = (SPACE_MRC, SPACE_MI, SPACE_PR)


@dataclass(frozen=True)
class MiEntry:
    """One selected vocabulary word with its class association score."""

    word: str
    label: str
    mi: float


@dataclass(frozen=True)
class FeatureSpace:
    """Bijection between feature keys and dense indices [0, dim)."""

    name: str
    index_of: dict

    def __post_init__(self):
        indices = sorted(self.index_of.values())
        if indices != list(range(len(indices))):
            raise ValidationError(
                f"space {self.name}: indices are not exactly 0..{len(indices) - 1}"
            )

    @property
    def dim(self) -> int:
        return len(self.index_of)

    @cached_property
    def key_at(self) -> list:
        out = [None] * self.dim
        for key, idx in self.index_of.items():
            out[idx] = key
        return out


@dataclass(frozen=True)
class SparseFeatureVector:
    """index → value map over a named feature space; zero entries omitted.

    Indices and values are checked where vectors are packed (build_csr).
    """

    space_name: str
    entries: dict


def mrc_space(lexicon: Iterable[str]) -> FeatureSpace:
    """Feature space over a word list, indexed in sorted order."""
    words = sorted({w.lower() for w in lexicon})
    if not words:
        raise ValidationError("lexicon is empty")
    return FeatureSpace(SPACE_MRC, {w: k for k, w in enumerate(words)})


def select_mi_vocabulary(rows: np.ndarray,
                         y: np.ndarray,
                         min_count: int = 5,
                         top_k: int = 500,
                         *,
                         table: FeatureTable,
                         ) -> tuple[FeatureSpace, list[MiEntry]]:
    """Select the top_k words most associated with each class.

    Association is the log ratio log(p(word, c) / (p(word) * p(c))) with all
    probabilities estimated from document presence: p(word) is the fraction
    of training documents containing the word, p(c) the fraction in class c,
    p(word, c) the fraction that are in class c and contain the word. Words
    must appear in at least ``min_count`` documents to be eligible; a word
    never occurring in a class is excluded from that class's ranking
    entirely. Ties at the selection boundary break lexicographically.
    The training documents are the rows ``rows`` of ``table``, and
    ``y`` holds each table row's class (+1 content_dense, -1 not, 0 none).

    Returns the feature space (the deduplicated union of both classes' top
    lists, indexed in sorted word order) and the selected entries, ordered
    content_dense first, then by descending association and word.

    Raises SingleClassError when the training labels cover one class only,
    ValidationError when a training lead has no label.
    """
    if min_count < 1 or top_k < 1:
        raise ValidationError("min_count and top_k must be at least 1")
    table.check_labelled(rows, y)
    dense = y[rows] > 0
    n_docs = len(rows)
    n_dense = int(np.count_nonzero(dense))
    class_counts = {CONTENT_DENSE: n_dense, NON_CONTENT_DENSE: n_docs - n_dense}
    covered = [label for label, n in class_counts.items() if n]
    if len(covered) < 2:
        raise SingleClassError(
            f"training data covers only {covered or 'no'} labels"
        )

    words, _, X = table.take(rows, rules=False)
    df = np.bincount(X.indices, minlength=X.n_cols)
    in_dense = np.bincount(X.indices[dense[X.rows]], minlength=X.n_cols)
    entries: list[MiEntry] = []
    selected_words: set[str] = set()
    for label, present in ((CONTENT_DENSE, in_dense),
                           (NON_CONTENT_DENSE, df - in_dense)):
        n_c = class_counts[label]
        eligible = np.flatnonzero((df >= min_count) & (present > 0))
        ranked = [(math.log((n_wc * n_docs) / (n_w * n_c)), words[j])
                  for j, n_wc, n_w in zip(eligible.tolist(),
                                          present[eligible].tolist(),
                                          df[eligible].tolist())]
        ranked.sort(key=lambda t: (-t[0], t[1]))
        for mi, w in ranked[:top_k]:
            entries.append(MiEntry(w, label, mi))
            selected_words.add(w)

    space = FeatureSpace(SPACE_MI,
                         {w: k for k, w in enumerate(sorted(selected_words))})
    return space, entries


def extract_production_rules(parse: Parse) -> Counter:
    """Multiset of the parse's productions, one per internal node, with the
    children's labels as the RHS. Preterminal nodes (label + leaf word)
    contribute no rule of their own, so no surface word ever appears in a
    rule; their labels still appear on the RHS of their parents."""
    return Counter(parse.rules)


def lead_rules(lead: AnnotatedLead) -> Counter:
    """Combined rule multiset across the lead's sentence parses.

    Raises MissingParseError when the lead has no sentences or any sentence
    lacks a parse.
    """
    if not lead.sentences:
        raise MissingParseError(f"lead {lead.id} has no sentences")
    rules: Counter = Counter()
    for k, sentence in enumerate(lead.sentences):
        if sentence.parse is None:
            raise MissingParseError(f"lead {lead.id}: sentence {k} has no parse")
        rules.update(sentence.parse.rules)
    return rules


def _count_matrix(counters: Sequence[Mapping],
                  ) -> tuple[list, dict, CsrMatrix]:
    """The counters' distinct keys, sorted, each key's column, and a CSR
    row of integer counts over them per counter."""
    keys = sorted(set().union(*counters))
    col = {key: j for j, key in enumerate(keys)}
    rows = np.repeat(np.arange(len(counters)), [len(c) for c in counters])
    cols = np.array([col[key] for c in counters for key in c], dtype=np.int64)
    vals = np.array([v for c in counters for v in c.values()], dtype=np.int64)
    return keys, col, pack_csr(rows, cols, vals, len(counters), len(keys))


class FeatureTable:
    """Word and production-rule counts of a lead list, counted once.

    Row r is ``leads[r]``; ``words`` and ``rules`` are (keys, key ->
    column, CSR of integer counts) with a column per distinct key in sorted
    order, so a space's columns are an increasing map of them. Rules are
    read on first use, so word-only work never needs parses; a lead without
    them keeps an empty row and a False in ``parsed``, which ``rules``
    records, and ``_check`` raises for it where rules are asked for.
    """

    def __init__(self, leads: Sequence[AnnotatedLead]):
        self.leads = list(leads)
        self._row_of = {id(lead): r for r, lead in enumerate(self.leads)}
        self.n_tokens = np.array([lead.n_tokens for lead in self.leads])
        self.article_words = np.array(
            [lead.article_word_count for lead in self.leads])

    def rows(self, leads: Sequence[AnnotatedLead]) -> np.ndarray:
        """Each lead's row, found by identity; ValidationError naming the
        first lead the table does not hold."""
        row_of = self._row_of
        try:
            return np.array([row_of[id(lead)] for lead in leads], dtype=np.int64)
        except KeyError:
            lead = next(lead for lead in leads if id(lead) not in row_of)
            raise ValidationError(
                f"feature table does not hold lead {lead.id!r}") from None

    @cached_property
    def words(self) -> tuple[list[str], dict, CsrMatrix]:
        return _count_matrix([Counter(lead.words) for lead in self.leads])

    @cached_property
    def rules(self) -> tuple[list[ProductionRule], dict, CsrMatrix]:
        counters = []
        self.parsed = np.ones(len(self.leads), dtype=bool)
        for r, lead in enumerate(self.leads):
            try:
                counters.append(lead_rules(lead))
            except MissingParseError:
                counters.append({})
                self.parsed[r] = False
        return _count_matrix(counters)

    def take(self, rows: np.ndarray, rules: bool,
             ) -> tuple[list, dict, CsrMatrix]:
        """Column keys, key -> column, and rows ``rows`` of the word or the
        rule counts."""
        keys, column_of, counts = self.rules if rules else self.words
        return keys, column_of, csr_take(counts, rows)

    def check_labelled(self, rows: np.ndarray, y: np.ndarray) -> None:
        """ValidationError naming the first of the rows' leads whose
        class in ``y`` (indexed by row) is 0, i.e. that has no label."""
        missing = np.flatnonzero(y[rows] == 0)
        if len(missing):
            lead = self.leads[rows[missing[0]]]
            raise ValidationError(f"lead {lead.id} has no label")


def _check(table: FeatureTable, rows: np.ndarray, words: bool,
           rules: bool) -> None:
    """EmptyLeadError for the first of the rows' leads without tokens
    (words asked for) or MissingParseError for one without parses (rules
    asked for)."""
    bad = np.zeros(len(rows), dtype=bool)
    if words:
        bad |= table.n_tokens[rows] == 0
    if rules:
        table.rules  # records table.parsed
        bad |= ~table.parsed[rows]
    first = np.flatnonzero(bad)
    if len(first):
        lead = table.leads[rows[first[0]]]
        if words and lead.n_tokens == 0:
            raise EmptyLeadError(f"lead {lead.id} has no tokens")
        lead_rules(lead)  # raises the lead's MissingParseError


def _column_map(space: FeatureSpace, column_of: dict,
                n_cols: int) -> np.ndarray:
    """Each of ``n_cols`` table columns' index in ``space``, -1 where the
    space lacks its key; ``column_of`` maps keys to table columns."""
    at = np.array([column_of.get(key, -1) for key in space.key_at],
                  dtype=np.int64)
    held = at >= 0
    out = np.full(n_cols, -1, dtype=np.int64)
    out[at[held]] = np.flatnonzero(held)
    return out


def pr_space(rows: np.ndarray, table: FeatureTable) -> FeatureSpace:
    """Space over every production rule occurring in the leads of rows
    ``rows`` of ``table``: the rule columns counted in those rows."""
    _check(table, rows, words=False, rules=True)
    rules, _, X = table.take(rows, rules=True)
    seen = np.flatnonzero(np.bincount(X.indices, minlength=X.n_cols))
    return FeatureSpace(SPACE_PR,
                        {rules[j]: k for k, j in enumerate(seen.tolist())})


def _canonical_spaces(spaces: Sequence[FeatureSpace]) -> list[FeatureSpace]:
    names = [s.name for s in spaces]
    if len(set(names)) != len(names):
        raise ValidationError(f"duplicate feature space in {names}")
    return sorted(spaces, key=lambda s: SPACE_ORDER.index(s.name))


@dataclass(frozen=True)
class FeatureBundle:
    """The feature spaces of one training fold, ready to extract with.

    MI and PR spaces depend on training data (vocabulary selection, seen
    rules), so a bundle is built per training fold and never shared across
    folds. Spaces left out at build time are None and cannot be extracted.
    ``table`` holds the counts that ``matrix`` takes its rows from.
    """

    mrc: FeatureSpace | None = None
    mi: FeatureSpace | None = None
    pr: FeatureSpace | None = None
    pr_value: str = "count"
    table: FeatureTable | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        for name, space in zip(SPACE_ORDER, (self.mrc, self.mi, self.pr)):
            if space is not None and space.name != name:
                raise ValidationError(f"{space.name!r} space given as {name}")
        if self.pr_value not in ("count", "binary"):
            raise ValidationError(f"unknown PR value mode {self.pr_value!r}")

    def space(self, name: str) -> FeatureSpace:
        found = {SPACE_MRC: self.mrc, SPACE_MI: self.mi, SPACE_PR: self.pr}.get(name)
        if found is None:
            raise ValidationError(f"bundle has no {name!r} space")
        return found

    def active_spaces(self) -> list[FeatureSpace]:
        return [s for s in (self.mrc, self.mi, self.pr) if s is not None]

    @property
    def combined_name(self) -> str:
        """Name of the active spaces side by side, e.g. "MRC+MI+PR"."""
        return "+".join(s.name for s in self.active_spaces())

    def matrix(self, rows: np.ndarray, names: Sequence[str]) -> CsrMatrix:
        """One CSR row per table row in ``rows``, named spaces side by side.

        Columns follow the named spaces in the order MRC, MI, PR, each at
        the offset of the dims before it. Values: MRC a word's count over
        the lead's token count, MI 1.0 per present word, PR a rule's count
        (1.0 when ``pr_value`` is binary); keys outside a space are
        skipped. Raises EmptyLeadError for a lead without tokens (MRC, MI)
        and MissingParseError for one without parses (PR).
        """
        spaces = _canonical_spaces([self.space(n) for n in names])
        table = self.table
        _check(table, rows, words=spaces[0].name != SPACE_PR,
               rules=spaces[-1].name == SPACE_PR)
        parts, offset, taken = [], 0, None
        for space in spaces:
            rules = space.name == SPACE_PR
            if rules != taken:  # MRC and MI share the word rows
                _, column_of, X = table.take(rows, rules=rules)
                taken = rules
            cols = _column_map(space, column_of, X.n_cols)[X.indices]
            if space.name == SPACE_MRC:
                vals = X.data / table.n_tokens[rows][X.rows]
            elif space.name == SPACE_MI or self.pr_value == "binary":
                vals = np.ones(len(X.data))
            else:
                vals = X.data.astype(np.float64)
            keep = cols >= 0
            parts.append((X.rows[keep], cols[keep] + offset, vals[keep]))
            offset += space.dim
        entries = [np.concatenate(p) for p in zip(*parts)]
        return pack_csr(*entries, len(rows), offset)

    def extract_single(self, lead: AnnotatedLead, name: str) -> SparseFeatureVector:
        """The lead's row of ``matrix`` over the space ``name``, from a
        table over it; a name joining spaces with "+" names their union."""
        X = replace(self, table=FeatureTable([lead])).matrix(
            np.zeros(1, dtype=np.int64), name.split("+"))
        return SparseFeatureVector(
            name, dict(zip(X.indices.tolist(), X.data.tolist())))

    def extract_combined(self, lead: AnnotatedLead) -> SparseFeatureVector:
        """The lead's row of ``matrix`` over every active space."""
        return self.extract_single(lead, self.combined_name)


def build_feature_bundle(train_rows: np.ndarray,
                         y: np.ndarray | None,
                         lexicon: Iterable[str] | None,
                         include: Sequence[str] = SPACE_ORDER,
                         top_k: int = 500,
                         *,
                         table: FeatureTable) -> FeatureBundle:
    """Build the spaces named in ``include`` from the training rows
    ``train_rows`` of ``table`` only; the bundle keeps ``table``.

    The MRC space needs ``lexicon`` (a word list, or its space); the MI
    space needs ``y``, the class of each table row (see
    select_mi_vocabulary), labelling every training row; the PR space
    needs every training lead parsed.
    """
    for name in include:
        if name not in SPACE_ORDER:
            raise ValidationError(f"unknown feature space {name!r}")
    mrc = mi = pr = None
    if SPACE_MRC in include:
        if lexicon is None:
            raise ValidationError("MRC space requested but no lexicon given")
        mrc = lexicon if isinstance(lexicon, FeatureSpace) else mrc_space(lexicon)
    if SPACE_MI in include:
        if y is None:
            raise ValidationError("MI space requested but no labels given")
        mi, _ = select_mi_vocabulary(train_rows, y, top_k=top_k, table=table)
    if SPACE_PR in include:
        pr = pr_space(train_rows, table)
    return FeatureBundle(mrc=mrc, mi=mi, pr=pr, table=table)


def _key_to_str(name: str, key) -> str:
    if name == SPACE_PR:
        return str(key)
    return key


def _key_from_str(name: str, text: str):
    if name == SPACE_PR:
        lhs, _, rhs = text.partition(" -> ")
        if not rhs:
            raise ValidationError(f"malformed production rule {text!r}")
        return ProductionRule(lhs, tuple(rhs.split(" ")))
    return text


def space_to_lines(space: FeatureSpace) -> list[str]:
    """Serialize a primitive space as tab-separated index/key rows."""
    if space.name not in SPACE_ORDER:
        raise ValidationError(
            f"only primitive spaces serialize; got {space.name!r}"
        )
    lines = [f"{space.name}\t{space.dim}"]
    for idx, key in enumerate(space.key_at):
        lines.append(f"{idx}\t{_key_to_str(space.name, key)}")
    return lines


def space_from_lines(lines: Sequence[str]) -> FeatureSpace:
    if not lines:
        raise ValidationError("feature space table has no rows")
    name, _, dim_text = lines[0].partition("\t")
    if name not in SPACE_ORDER:
        raise ValidationError(f"unknown feature space {name!r}")
    index_of = {}
    for line in lines[1:]:
        idx_text, _, key_text = line.partition("\t")
        index_of[_key_from_str(name, key_text)] = int(idx_text)
    space = FeatureSpace(name, index_of)
    if space.dim != int(dim_text):
        raise ValidationError(
            f"space {name}: header says dim {dim_text}, table has {space.dim}"
        )
    return space
