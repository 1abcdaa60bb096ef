"""Synthetic corpus generator with three independent signal channels.

Every lead is two 8-slot sentences (16 tokens). The true class plants its
signal through three channels, each flipped independently with probability
1 - p_signal, so any single feature space can reach at most p_signal
accuracy while combining all three can do strictly better:

* word channel: three marker slots drawn from a class-specific pool,
  picked up by mutual-information vocabulary selection;
* rate channel: two fixed concreteness words appear in every lead, and
  two extra slots repeat them only in the high-rate state, so word
  PRESENCE is constant (useless to the word channel) while the occurrence
  RATE separates the states (0.25 vs 0.125 of tokens);
* structure channel: sentence skeletons come from one of two template
  sets that differ only in tree shape, visible to production rules and
  nothing else.

The nine remaining slots draw from a small neutral pool whose words are
frequent enough that their class split concentrates near half and half,
keeping their mutual information too low to displace the markers. The two
rate-channel slots hold decoys from a huge pool in the low-rate state, so
no per-word statistic survives a document-frequency floor there. Summaries
are 30 word-POS tuples with class-dependent overlap with the lead (about
0.8 versus 0.2), which is what the density-score heuristic reads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .corpus import (
    DOMAINS,
    AnnotatedLead,
    Sentence,
    intern_pairs,
    intern_tags,
    intern_words,
    parse_ptb_tree,
)
from .errors import ValidationError
from .labeling import CONTENT_DENSE, NON_CONTENT_DENSE

PROFILE_STANDARD = "standard"
PROFILE_SEPARABLE = "separable"
PROFILE_ZERO = "zero"
PROFILES = {
    PROFILE_STANDARD: 0.7,
    PROFILE_SEPARABLE: 1.0,
    PROFILE_ZERO: 0.5,
}

LEXICON_WORDS = ("granite", "copper")
DENSE_MARKERS = tuple(f"figure{i:02d}" for i in range(40))
SPARSE_MARKERS = tuple(f"notion{i:02d}" for i in range(40))

_FILLERS = tuple(f"filler{i:02d}" for i in range(60))
_DECOYS = tuple(f"decoy{i:04d}" for i in range(5000))
_SUMMARY_NOISE = tuple(f"mist{i:04d}" for i in range(2000))

_MARKER_SLOTS = (1, 6, 11)
_LEXICON_FIXED_SLOTS = (3, 8)
_LEXICON_EXTRA_SLOTS = (13, 14)
_SLOTS_PER_LEAD = 16

_SUMMARY_LEN = 30
_OVERLAP_DENSE = (22, 27)
_OVERLAP_SPARSE = (4, 9)

DENSE_TEMPLATES = (
    "(S (NP (DT {}) (JJ {}) (NN {})) (VP (VBD {}) (NP (CD {}) (NNS {})) "
    "(PP (IN {}) (NP (NNP {})))))",
    "(S (NP (NNP {}) (NNP {})) (VP (VBZ {}) (NP (NP (DT {}) (NN {})) "
    "(PP (IN {}) (NP (CD {}) (NNS {}))))))",
)
SPARSE_TEMPLATES = (
    "(S (NP (PRP {})) (VP (VBD {}) (SBAR (IN {}) (S (NP (PRP {})) "
    "(VP (VBD {}) (ADJP (JJ {}) (PP (IN {}) (NP (NN {})))))))))",
    "(S (ADVP (RB {})) (NP (PRP {})) (VP (VBD {}) (ADJP (JJ {})) "
    "(PP (IN {}) (NP (DT {}) (NN {}) (NN {})))))",
)


# Preterminal labels of each template, in slot order.
_TEMPLATE_POS = {
    template: intern_tags(re.findall(r"\((\S+) \{\}\)", template))
    for template in DENSE_TEMPLATES + SPARSE_TEMPLATES
}


@dataclass(frozen=True)
class SyntheticCorpus:
    profile: str
    p_signal: float
    leads: tuple[AnnotatedLead, ...]
    true_labels: dict[str, str]
    lexicon_words: tuple[str, ...]
    dense_markers: tuple[str, ...]
    sparse_markers: tuple[str, ...]


def _channel_state(rng: np.random.Generator, dense: bool, p: float) -> bool:
    return dense if rng.random() < p else not dense


def generate_corpus(n: int, profile: str = PROFILE_STANDARD,
                    seed: int = 0) -> SyntheticCorpus:
    """Generate n leads with alternating true labels.

    Deterministic in (n, profile, seed). The standard profile plants each
    channel at 0.7 reliability, separable at 1.0, zero at 0.5 (pure
    noise).
    """
    if n < 2:
        raise ValidationError("need at least two leads")
    if profile not in PROFILES:
        raise ValidationError(
            f"unknown profile {profile!r}; choose from {sorted(PROFILES)}"
        )
    if seed < 0:
        raise ValidationError(
            f"seed must be a non-negative integer, got {seed}")
    p_signal = PROFILES[profile]
    rng = np.random.default_rng(seed)
    leads = []
    true_labels = {}
    for i in range(n):
        dense = i % 2 == 0
        word_state = _channel_state(rng, dense, p_signal)
        rate_state = _channel_state(rng, dense, p_signal)
        shape_state = _channel_state(rng, dense, p_signal)

        # Each run of same-bound draws is one batched call; numpy's
        # Generator gives the same values, in the same stream order, as
        # one scalar call per slot.
        slots = [_FILLERS[j] for j in
                 rng.integers(len(_FILLERS), size=_SLOTS_PER_LEAD).tolist()]
        marker_pool = DENSE_MARKERS if word_state else SPARSE_MARKERS
        picks = rng.integers(len(marker_pool), size=len(_MARKER_SLOTS))
        for slot, j in zip(_MARKER_SLOTS, picks.tolist()):
            slots[slot] = marker_pool[j]
        for slot, word in zip(_LEXICON_FIXED_SLOTS, LEXICON_WORDS):
            slots[slot] = word
        extra_pool = LEXICON_WORDS if rate_state else _DECOYS
        picks = rng.integers(len(extra_pool), size=len(_LEXICON_EXTRA_SLOTS))
        for slot, j in zip(_LEXICON_EXTRA_SLOTS, picks.tolist()):
            slots[slot] = extra_pool[j]

        templates = DENSE_TEMPLATES if shape_state else SPARSE_TEMPLATES
        sentences = []
        pos_tags: list[str] = []
        for half, t in enumerate(rng.integers(len(templates), size=2).tolist()):
            template = templates[t]
            chunk = intern_words(slots[half * 8:(half + 1) * 8])
            pos = _TEMPLATE_POS[template]
            parse = parse_ptb_tree(template.format(*chunk))
            sentences.append(Sentence(tokens=chunk, pos=pos, parse=parse))
            pos_tags.extend(pos)

        low, high = _OVERLAP_DENSE if dense else _OVERLAP_SPARSE
        n_overlap = int(rng.integers(low, high))
        picks = rng.integers(_SLOTS_PER_LEAD, size=n_overlap)
        summary = [(slots[p], pos_tags[p]) for p in picks.tolist()]
        noise = rng.integers(len(_SUMMARY_NOISE), size=_SUMMARY_LEN - n_overlap)
        summary += [(_SUMMARY_NOISE[j], "NN") for j in noise.tolist()]
        summary = [summary[j] for j in rng.permutation(len(summary)).tolist()]

        mean_count = 900.0 if dense else 750.0
        word_count = max(_SLOTS_PER_LEAD,
                         int(round(rng.normal(mean_count, 300.0))))

        lead = AnnotatedLead(
            id=f"syn{i:05d}",
            domain=DOMAINS[i % len(DOMAINS)],
            lead_text=" ".join(slots),
            sentences=tuple(sentences),
            summary=intern_pairs(summary),
            article_word_count=word_count,
        )
        leads.append(lead)
        true_labels[lead.id] = CONTENT_DENSE if dense else NON_CONTENT_DENSE

    return SyntheticCorpus(
        profile=profile,
        p_signal=p_signal,
        leads=tuple(leads),
        true_labels=true_labels,
        lexicon_words=LEXICON_WORDS,
        dense_markers=DENSE_MARKERS,
        sparse_markers=SPARSE_MARKERS,
    )
