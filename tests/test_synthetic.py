"""Tests for the synthetic corpus generator."""

import hashlib
from collections import Counter

import numpy as np
import pytest

from contentdense.corpus import save_corpus
from contentdense.errors import ValidationError
from contentdense.labeling import (
    CONTENT_DENSE,
    NON_CONTENT_DENSE,
    labels_to_mapping,
    percentile_label,
    score_leads,
)
from contentdense.learn import MODE_FEATURE_FUSION, MODE_MRC, TrainConfig
from contentdense.evaluation import cross_validate
from contentdense.synthetic import (
    LEXICON_WORDS,
    PROFILES,
    generate_corpus,
)
from test_features import select_mi

ONE_C = TrainConfig(c_grid=(1.0,))


@pytest.fixture(scope="module")
def standard():
    return generate_corpus(600, "standard", seed=5)


class TestGeneration:
    def test_labels_are_balanced(self):
        corp = generate_corpus(1000, seed=1)
        n_dense = sum(1 for v in corp.true_labels.values() if v == CONTENT_DENSE)
        assert n_dense == 500

    def test_same_seed_reproduces_same_corpus(self):
        a = generate_corpus(40, "standard", seed=9)
        b = generate_corpus(40, "standard", seed=9)
        assert a.leads == b.leads
        assert a.true_labels == b.true_labels

    def test_different_seeds_differ(self):
        a = generate_corpus(40, "standard", seed=9)
        b = generate_corpus(40, "standard", seed=10)
        assert a.leads != b.leads

    def test_lead_structure(self, standard):
        seen = set()
        for lead in standard.leads:
            assert lead.id not in seen
            seen.add(lead.id)
            assert len(lead.sentences) == 2
            assert lead.n_tokens == 16
            assert len(lead.summary) == 30
            assert lead.article_word_count >= lead.n_tokens
            for s in lead.sentences:
                assert s.parse is not None
                assert s.parse.n_leaves == len(s.tokens)

    def test_every_lead_contains_the_full_lexicon(self, standard):
        for lead in standard.leads:
            for word in LEXICON_WORDS:
                assert word in Counter(lead.words)

    def test_lexicon_rate_is_exactly_bimodal(self, standard):
        rates = {
            sum(Counter(lead.words)[w] for w in LEXICON_WORDS) / lead.n_tokens
            for lead in standard.leads
        }
        assert rates == {2 / 16, 4 / 16}

    def test_rejects_tiny_corpus(self):
        with pytest.raises(ValidationError):
            generate_corpus(1)

    def test_rejects_unknown_profile(self):
        with pytest.raises(ValidationError, match="profile"):
            generate_corpus(10, "weird")

    def test_rejects_negative_seed(self):
        with pytest.raises(ValidationError, match="seed .* got -1"):
            generate_corpus(10, seed=-1)

    def test_profiles_table(self):
        assert PROFILES == {"standard": 0.7, "separable": 1.0, "zero": 0.5}


# The generator's batched draws, as (bound, size): 16 filler slots, 3
# marker slots, 2 extra slots from either rate pool, 2 template picks, and
# the summary noise (30 minus an overlap in [4, 9) or [22, 27)).
BATCHED_DRAWS = [(60, 16), (40, 3), (2, 2), (5000, 2),
                 *((2000, m) for m in (*range(4, 9), *range(22, 27)))]

# SHA-256 of save_corpus output, fixed before the draws were batched.
CORPUS_DIGESTS = {
    (1000, "standard", 7):
        "fd7dbc23308b18c0e45512f293f0f18290baf3de8ecee044d56c1c3e1b7077f9",
    (300, "separable", 3):
        "4d12dbd4322b4da5ed51195c4df6a2300ab880c9be7b2fe0a00fa8e587044545",
    (300, "zero", 11):
        "724f231755127591d9295960ee19488b6dd11903145fb223354a648f676c537b",
}


class TestRandomStream:
    """The generator relies on numpy drawing a batch exactly as it draws
    the same number of scalars; a numpy release that breaks this must
    fail here, not silently change every corpus."""

    @pytest.mark.parametrize("bound, size", BATCHED_DRAWS)
    @pytest.mark.parametrize("offset", [0, 1])
    def test_a_batch_equals_scalar_draws(self, bound, size, offset):
        batched = np.random.default_rng(7)
        scalar = np.random.default_rng(7)
        for rng in (batched, scalar):
            rng.random()
            for _ in range(offset):  # start mid-way through a 64-bit word
                rng.integers(60)
        assert (batched.integers(bound, size=size).tolist()
                == [int(scalar.integers(bound)) for _ in range(size)])
        assert batched.random() == scalar.random()

    @pytest.mark.parametrize("args", sorted(CORPUS_DIGESTS))
    def test_corpus_bytes_are_pinned(self, args, tmp_path):
        path = tmp_path / "corpus.jsonl"
        save_corpus(generate_corpus(*args).leads, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == CORPUS_DIGESTS[args]


class TestPlantedSignals:
    def test_summary_scores_are_bimodal_by_class(self, standard):
        scores, skipped = score_leads(standard.leads)
        assert skipped == []
        by_id = {s.lead_id: s.score for s in scores}
        for lead in standard.leads:
            score = by_id[lead.id]
            if standard.true_labels[lead.id] == CONTENT_DENSE:
                assert score >= 22 / 30
            else:
                assert score <= 8 / 30

    def test_percentile_labels_recover_true_classes(self, standard):
        scores, _ = score_leads(standard.leads)
        heur = labels_to_mapping(percentile_label(scores, 30.0, 70.0))
        assert len(heur) > 0
        for lead_id, label in heur.items():
            assert label == standard.true_labels[lead_id]

    def test_mi_selection_finds_the_planted_markers(self, standard):
        entries = select_mi(standard.leads, standard.true_labels,
                            top_k=20)[1]
        for entry in entries:
            if entry.label == CONTENT_DENSE:
                assert entry.word in standard.dense_markers
            else:
                assert entry.word in standard.sparse_markers

    def test_separable_profile_is_learned_perfectly(self):
        # The rate features live on a small scale, so give the weights
        # room with a weak penalty; c=1 would let class imbalance in a
        # fold move the bias past the narrow margins.
        corp = generate_corpus(200, "separable", seed=2)
        result = cross_validate(
            corp.leads, corp.true_labels, MODE_MRC,
            lexicon=corp.lexicon_words, k=10, seed=2,
            config=TrainConfig(c_grid=(16.0,)),
        )
        assert result.mean_accuracy >= 0.98

    def test_zero_profile_stays_near_chance(self):
        corp = generate_corpus(300, "zero", seed=3)
        result = cross_validate(
            corp.leads, corp.true_labels, MODE_FEATURE_FUSION,
            lexicon=corp.lexicon_words, k=10, seed=3, config=ONE_C,
            fold_subset=[0, 1, 2, 3], top_k=20,
        )
        assert 0.3 <= result.mean_accuracy <= 0.7

    def test_standard_profile_beats_chance_but_not_the_ceiling(self):
        corp = generate_corpus(600, "standard", seed=4)
        result = cross_validate(
            corp.leads, corp.true_labels, MODE_FEATURE_FUSION,
            lexicon=corp.lexicon_words, k=10, seed=4, config=ONE_C,
            fold_subset=[0, 1, 2], top_k=20,
        )
        assert 0.6 <= result.mean_accuracy <= 0.9

    def test_labels_cover_every_lead(self, standard):
        assert set(standard.true_labels) == {l.id for l in standard.leads}
