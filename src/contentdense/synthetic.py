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

from dataclasses import dataclass

import numpy as np

from .corpus import DOMAINS, AnnotatedLead, ParseTree, Sentence, WordPosTuple, parse_ptb_tree
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


def _leaf_pos(tree: ParseTree) -> list[str]:
    """Preterminal labels in leaf order."""
    out: list[str] = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if node.leaf_word is None:
            stack.extend(reversed(node.children))
        else:
            out.append(node.label)
    return out


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
    p_signal = PROFILES[profile]
    rng = np.random.default_rng(seed)
    leads = []
    true_labels = {}
    for i in range(n):
        dense = i % 2 == 0
        word_state = _channel_state(rng, dense, p_signal)
        rate_state = _channel_state(rng, dense, p_signal)
        shape_state = _channel_state(rng, dense, p_signal)

        slots = [_FILLERS[rng.integers(len(_FILLERS))]
                 for _ in range(_SLOTS_PER_LEAD)]
        marker_pool = DENSE_MARKERS if word_state else SPARSE_MARKERS
        for slot in _MARKER_SLOTS:
            slots[slot] = marker_pool[rng.integers(len(marker_pool))]
        for slot, word in zip(_LEXICON_FIXED_SLOTS, LEXICON_WORDS):
            slots[slot] = word
        for slot in _LEXICON_EXTRA_SLOTS:
            if rate_state:
                slots[slot] = LEXICON_WORDS[rng.integers(len(LEXICON_WORDS))]
            else:
                slots[slot] = _DECOYS[rng.integers(len(_DECOYS))]

        templates = DENSE_TEMPLATES if shape_state else SPARSE_TEMPLATES
        sentences = []
        pos_tags: list[str] = []
        for half in range(2):
            template = templates[rng.integers(len(templates))]
            chunk = slots[half * 8:(half + 1) * 8]
            tree = parse_ptb_tree(template.format(*chunk))
            pos = tuple(_leaf_pos(tree))
            sentences.append(Sentence(tokens=tuple(tree.leaves()), pos=pos,
                                      parse=tree))
            pos_tags.extend(pos)

        low, high = _OVERLAP_DENSE if dense else _OVERLAP_SPARSE
        n_overlap = int(rng.integers(low, high))
        picks = rng.integers(_SLOTS_PER_LEAD, size=n_overlap)
        summary = [WordPosTuple(slots[p], pos_tags[p]) for p in picks]
        summary += [
            WordPosTuple(_SUMMARY_NOISE[rng.integers(len(_SUMMARY_NOISE))],
                         "NN")
            for _ in range(_SUMMARY_LEN - n_overlap)
        ]
        summary = [summary[j] for j in rng.permutation(len(summary))]

        mean_count = 900.0 if dense else 750.0
        word_count = max(_SLOTS_PER_LEAD,
                         int(round(rng.normal(mean_count, 300.0))))

        lead = AnnotatedLead(
            id=f"syn{i:05d}",
            domain=DOMAINS[i % len(DOMAINS)],
            lead_text=" ".join(slots),
            sentences=tuple(sentences),
            summary=tuple(summary),
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
