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
indices; extractors emit SparseFeatureVectors against a named space, and
concat_features merges per-space vectors into one combined vector with
cumulative index offsets in the fixed order MRC, MI, PR.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .corpus import AnnotatedLead, ParseTree
from .errors import (
    EmptyLeadError,
    MissingParseError,
    SingleClassError,
    ValidationError,
)
from .labeling import CONTENT_DENSE, LABELS, NON_CONTENT_DENSE

SPACE_MRC = "MRC"
SPACE_MI = "MI"
SPACE_PR = "PR"
SPACE_ORDER = (SPACE_MRC, SPACE_MI, SPACE_PR)


@dataclass(frozen=True)
class ProductionRule:
    """Unlexicalized grammar production: LHS label and child labels."""

    lhs: str
    rhs: tuple[str, ...]

    def __post_init__(self):
        if not self.rhs:
            raise ValidationError(f"production {self.lhs!r} has an empty RHS")

    def __str__(self):
        return f"{self.lhs} -> {' '.join(self.rhs)}"


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
    """index → value map over a named feature space; zero entries omitted."""

    space_name: str
    entries: dict

    def __post_init__(self):
        for idx, value in self.entries.items():
            if idx < 0:
                raise ValidationError(f"negative feature index {idx}")
            if not math.isfinite(value):
                raise ValidationError(f"non-finite feature value at index {idx}")


def mrc_space(lexicon: Iterable[str]) -> FeatureSpace:
    """Feature space over a word list, indexed in sorted order."""
    words = sorted({w.lower() for w in lexicon})
    if not words:
        raise ValidationError("lexicon is empty")
    return FeatureSpace(SPACE_MRC, {w: k for k, w in enumerate(words)})


def mrc_features(lead: AnnotatedLead,
                 lexicon: Iterable[str] | FeatureSpace) -> SparseFeatureVector:
    """Per-lexicon-word occurrence rate: count(word) / lead token count."""
    space = lexicon if isinstance(lexicon, FeatureSpace) else mrc_space(lexicon)
    if space.name != SPACE_MRC:
        raise ValidationError(f"expected an {SPACE_MRC} space, got {space.name!r}")
    n = lead.n_tokens
    if n == 0:
        raise EmptyLeadError(f"lead {lead.id} has no tokens")
    entries = {
        space.index_of[w]: count / n
        for w, count in lead.word_counts.items()
        if w in space.index_of
    }
    return SparseFeatureVector(SPACE_MRC, entries)


def select_mi_vocabulary(leads: Sequence[AnnotatedLead],
                         labels: Mapping[str, str],
                         min_count: int = 5,
                         top_k: int = 500,
                         ) -> tuple[FeatureSpace, list[MiEntry]]:
    """Select the top_k words most associated with each class.

    Association is the log ratio log(p(word, c) / (p(word) * p(c))) with all
    probabilities estimated from document presence: p(word) is the fraction
    of training documents containing the word, p(c) the fraction in class c,
    p(word, c) the fraction that are in class c and contain the word. Words
    must appear in at least ``min_count`` documents to be eligible; a word
    never occurring in a class is excluded from that class's ranking
    entirely. Ties at the selection boundary break lexicographically.

    Returns the feature space (the deduplicated union of both classes' top
    lists, indexed in sorted word order) and the selected entries, ordered
    content_dense first, then by descending association and word.

    Raises SingleClassError when the training labels cover one class only,
    ValidationError when a lead has no label in ``labels``.
    """
    if min_count < 1 or top_k < 1:
        raise ValidationError("min_count and top_k must be at least 1")
    n_docs = len(leads)
    class_counts: Counter = Counter()
    df: Counter = Counter()
    present: dict = {}
    for lead in leads:
        label = labels.get(lead.id)
        if label is None:
            raise ValidationError(f"lead {lead.id} has no label")
        if label not in LABELS:
            raise ValidationError(f"lead {lead.id}: unknown label {label!r}")
        class_counts[label] += 1
        for w in lead.word_set:
            df[w] += 1
            key = (w, label)
            present[key] = present.get(key, 0) + 1
    if len(class_counts) < 2:
        raise SingleClassError(
            f"training data covers only {list(class_counts) or 'no'} labels"
        )

    entries: list[MiEntry] = []
    selected_words: set[str] = set()
    for label in (CONTENT_DENSE, NON_CONTENT_DENSE):
        n_c = class_counts[label]
        ranked: list[tuple[float, str]] = []
        for w, n_w in df.items():
            if n_w < min_count:
                continue
            n_wc = present.get((w, label), 0)
            if n_wc == 0:
                continue
            mi = math.log((n_wc * n_docs) / (n_w * n_c))
            ranked.append((mi, w))
        ranked.sort(key=lambda t: (-t[0], t[1]))
        for mi, w in ranked[:top_k]:
            entries.append(MiEntry(w, label, mi))
            selected_words.add(w)

    space = FeatureSpace(SPACE_MI,
                         {w: k for k, w in enumerate(sorted(selected_words))})
    return space, entries


def mi_features(lead: AnnotatedLead, space: FeatureSpace) -> SparseFeatureVector:
    """Binary presence indicators over the selected vocabulary."""
    if space.name != SPACE_MI:
        raise ValidationError(f"expected an {SPACE_MI} space, got {space.name!r}")
    if lead.n_tokens == 0:
        raise EmptyLeadError(f"lead {lead.id} has no tokens")
    # Walk tokens in order (not word_set): frozenset iteration order
    # varies with per-process hash randomization, and downstream margin
    # sums follow dict insertion order.
    entries: dict[int, float] = {}
    for w in lead.words:
        idx = space.index_of.get(w)
        if idx is not None:
            entries[idx] = 1.0
    return SparseFeatureVector(SPACE_MI, entries)


def extract_production_rules(tree: ParseTree) -> Counter:
    """Multiset of productions from internal nodes.

    One rule per node that has child subtrees, with the children's labels as
    the RHS. Preterminal nodes (label + leaf word) contribute no rule of
    their own, so no surface word ever appears in a rule; their labels still
    appear on the RHS of their parents.
    """
    rules: Counter = Counter()

    def walk(node: ParseTree):
        if node.is_leaf:
            return
        rules[ProductionRule(node.label, tuple(c.label for c in node.children))] += 1
        for child in node.children:
            walk(child)

    walk(tree)
    return rules


def lead_rules(lead: AnnotatedLead) -> Counter:
    """Combined rule multiset across the lead's sentence parses.

    Raises MissingParseError when the lead has no sentences or any sentence
    lacks a parse. The result is stashed on the lead (same mechanism as
    cached_property) because rule extraction does not depend on any fold or
    space and leads are immutable.
    """
    cached = lead.__dict__.get("_rule_counts")
    if cached is not None:
        return cached
    if not lead.sentences:
        raise MissingParseError(f"lead {lead.id} has no sentences")
    rules: Counter = Counter()
    for k, sentence in enumerate(lead.sentences):
        if sentence.parse is None:
            raise MissingParseError(f"lead {lead.id}: sentence {k} has no parse")
        rules.update(extract_production_rules(sentence.parse))
    lead.__dict__["_rule_counts"] = rules
    return rules


def pr_space(leads: Iterable[AnnotatedLead]) -> FeatureSpace:
    """Space over every production rule occurring in the given leads."""
    seen: set[ProductionRule] = set()
    for lead in leads:
        seen.update(lead_rules(lead))
    ordered = sorted(seen, key=lambda r: (r.lhs, r.rhs))
    return FeatureSpace(SPACE_PR, {r: k for k, r in enumerate(ordered)})


def pr_features(lead: AnnotatedLead, space: FeatureSpace,
                value: str = "count") -> SparseFeatureVector:
    """Occurrence counts (or binary presence) of known production rules.

    Rules absent from the space (unseen at space-building time) are ignored.
    """
    if space.name != SPACE_PR:
        raise ValidationError(f"expected a {SPACE_PR} space, got {space.name!r}")
    if value not in ("count", "binary"):
        raise ValidationError(f"value mode must be 'count' or 'binary', got {value!r}")
    entries = {}
    for rule, count in lead_rules(lead).items():
        idx = space.index_of.get(rule)
        if idx is not None:
            entries[idx] = float(count) if value == "count" else 1.0
    return SparseFeatureVector(SPACE_PR, entries)


def _canonical_pairs(vectors: Sequence[SparseFeatureVector] | None,
                     spaces: Sequence[FeatureSpace]):
    names = [s.name for s in spaces]
    if len(set(names)) != len(names):
        raise ValidationError(f"duplicate feature space in {names}")
    for name in names:
        if name not in SPACE_ORDER:
            raise ValidationError(f"unknown feature space {name!r}")
    if vectors is not None:
        if len(vectors) != len(spaces):
            raise ValidationError(
                f"{len(vectors)} vectors for {len(spaces)} spaces"
            )
        for v, s in zip(vectors, spaces):
            if v.space_name != s.name:
                raise ValidationError(
                    f"vector from space {v.space_name!r} paired with {s.name!r}"
                )
        pairs = sorted(zip(vectors, spaces),
                       key=lambda vs: SPACE_ORDER.index(vs[1].name))
        return [v for v, _ in pairs], [s for _, s in pairs]
    ordered = sorted(spaces, key=lambda s: SPACE_ORDER.index(s.name))
    return None, ordered


def concat_spaces(spaces: Sequence[FeatureSpace]) -> FeatureSpace:
    """Combined space with (space_name, key) keys and cumulative offsets."""
    _, ordered = _canonical_pairs(None, spaces)
    index_of = {}
    offset = 0
    for space in ordered:
        for key, idx in space.index_of.items():
            index_of[(space.name, key)] = offset + idx
        offset += space.dim
    return FeatureSpace("+".join(s.name for s in ordered), index_of)


def concat_features(vectors: Sequence[SparseFeatureVector],
                    spaces: Sequence[FeatureSpace]) -> SparseFeatureVector:
    """Merge per-space vectors into one vector over the concatenated space.

    Index offsets are the cumulative space dims in the fixed order MRC, MI,
    PR (inputs given in another order are reordered). Raises ValidationError
    on duplicate spaces or a vector/space pairing mismatch.
    """
    ordered_vectors, ordered_spaces = _canonical_pairs(vectors, spaces)
    entries = {}
    offset = 0
    for v, s in zip(ordered_vectors, ordered_spaces):
        for idx, value in v.entries.items():
            if idx >= s.dim:
                raise ValidationError(
                    f"index {idx} out of range for space {s.name} (dim {s.dim})"
                )
            entries[offset + idx] = value
        offset += s.dim
    return SparseFeatureVector("+".join(s.name for s in ordered_spaces), entries)


@dataclass(frozen=True)
class FeatureBundle:
    """The feature spaces of one training fold, ready to extract with.

    MI and PR spaces depend on training data (vocabulary selection, seen
    rules), so a bundle is built per training fold and never shared across
    folds. Spaces left out at build time are None and cannot be extracted.
    """

    mrc: FeatureSpace | None = None
    mi: FeatureSpace | None = None
    pr: FeatureSpace | None = None
    pr_value: str = "count"
    mi_entries: tuple[MiEntry, ...] = ()

    def space(self, name: str) -> FeatureSpace:
        found = {SPACE_MRC: self.mrc, SPACE_MI: self.mi, SPACE_PR: self.pr}.get(name)
        if found is None:
            raise ValidationError(f"bundle has no {name!r} space")
        return found

    def active_spaces(self) -> list[FeatureSpace]:
        return [s for s in (self.mrc, self.mi, self.pr) if s is not None]

    @cached_property
    def combined_space(self) -> FeatureSpace:
        return concat_spaces(self.active_spaces())

    def extract_single(self, lead: AnnotatedLead, name: str) -> SparseFeatureVector:
        space = self.space(name)
        if name == SPACE_MRC:
            return mrc_features(lead, space)
        if name == SPACE_MI:
            return mi_features(lead, space)
        return pr_features(lead, space, value=self.pr_value)

    def extract_combined(self, lead: AnnotatedLead) -> SparseFeatureVector:
        spaces = self.active_spaces()
        vectors = [self.extract_single(lead, s.name) for s in spaces]
        return concat_features(vectors, spaces)


def build_feature_bundle(train_leads: Sequence[AnnotatedLead],
                         labels: Mapping[str, str] | None,
                         lexicon: Iterable[str] | None,
                         include: Sequence[str] = SPACE_ORDER,
                         min_count: int = 5,
                         top_k: int = 500,
                         pr_value: str = "count") -> FeatureBundle:
    """Build the spaces named in ``include`` from training data only.

    The MRC space needs ``lexicon``; the MI space needs ``labels`` for the
    training leads; the PR space needs every training lead parsed.
    """
    for name in include:
        if name not in SPACE_ORDER:
            raise ValidationError(f"unknown feature space {name!r}")
    mrc = mi = pr = None
    mi_entries: tuple[MiEntry, ...] = ()
    if SPACE_MRC in include:
        if lexicon is None:
            raise ValidationError("MRC space requested but no lexicon given")
        mrc = lexicon if isinstance(lexicon, FeatureSpace) else mrc_space(lexicon)
    if SPACE_MI in include:
        if labels is None:
            raise ValidationError("MI space requested but no labels given")
        mi, entries = select_mi_vocabulary(train_leads, labels,
                                           min_count=min_count, top_k=top_k)
        mi_entries = tuple(entries)
    if SPACE_PR in include:
        pr = pr_space(train_leads)
    return FeatureBundle(mrc=mrc, mi=mi, pr=pr, pr_value=pr_value,
                         mi_entries=mi_entries)


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
        raise ValidationError("empty feature space table")
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
