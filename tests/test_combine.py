import math

import numpy as np
import pytest

from contentdense.combine import (
    DEFAULT_CUTOFFS,
    PREF_LEAD,
    PREF_SYSTEM,
    PREF_TIE,
    CutoffRow,
    LengthScaler,
    SummaryPair,
    baseline_always_dense,
    baseline_article_length,
    binomial_superiority_check,
    load_pairs,
    save_pairs,
    score_pairs,
    sweep_cutoffs,
    train_length_model,
)
from contentdense.corpus import AnnotatedLead, Sentence
from contentdense.errors import (
    CorpusFormatError,
    DataLeakError,
    MissingParseError,
    ValidationError,
)
from contentdense.features import FeatureTable, build_feature_bundle
from contentdense.labeling import CONTENT_DENSE, NON_CONTENT_DENSE
from contentdense.learn import (
    MODE_FEATURE_FUSION,
    LeadClassifier,
    TrainConfig,
    label_vector,
    train_feature_fusion,
)
from test_learn import MRC_LEXICON, make_corpus


def summary_lead(lead_id, words, count=50):
    sent = Sentence(tokens=tuple(words), pos=tuple("NN" for _ in words))
    return AnnotatedLead(id=lead_id, domain="general",
                         lead_text=" ".join(words), sentences=(sent,),
                         article_word_count=count)


def make_pair(pair_id, pref, lead_words=("old", "news"),
              sys_words=("fresh", "facts")):
    return SummaryPair(
        article_id=pair_id,
        lead_summary=summary_lead(f"{pair_id}-lead", lead_words),
        system_summary=summary_lead(f"{pair_id}-sys", sys_words),
        human_preference=pref,
    )


class StubScorer:
    def __init__(self, scores):
        self.scores = scores

    def probabilities(self, leads):
        return [self.scores[lead.id] for lead in leads]


def stub_for(pairs, pair_probs):
    scores = {}
    for pair, (sys_score, lead_score) in zip(pairs, pair_probs):
        scores[pair.system_summary.id] = sys_score
        scores[pair.lead_summary.id] = lead_score
    return StubScorer(scores)


class TestSummaryPair:
    def test_identical_summaries_rejected(self):
        same = ("the", "same", "text")
        with pytest.raises(ValidationError):
            make_pair("p1", PREF_TIE, lead_words=same, sys_words=same)

    def test_unknown_preference_rejected(self):
        with pytest.raises(ValidationError):
            make_pair("p1", "maybe")


class RecordingScorer:
    """A classifier whose probabilities are kept as they are handed out."""

    def __init__(self, classifier):
        self.classifier = classifier
        self.seen = []

    def probabilities(self, leads):
        probs = self.classifier.probabilities(leads)
        self.seen.extend(probs.tolist())
        return probs


def fusion_classifier():
    leads, labels = make_corpus(40, seed=2, flip=0.0)
    table = FeatureTable(leads)
    rows, y = np.arange(len(leads)), label_vector(table, labels)
    bundle = build_feature_bundle(rows, y, MRC_LEXICON, table=table)
    model = train_feature_fusion(rows, y, bundle, TrainConfig(c_grid=(1.0,)))
    clf = LeadClassifier(mode=MODE_FEATURE_FUSION, bundle=bundle, model=model)
    return leads, clf


class TestDecide:
    """The cutoff rule as sweep_cutoffs applies it: the system summary is
    chosen exactly when its score minus the lead's is >= the cutoff."""

    def test_clear_win_for_system(self):
        pair = make_pair("p1", PREF_SYSTEM)
        scores = score_pairs([pair], stub_for([pair], [(0.9, 0.3)]))
        rows = sweep_cutoffs(scores, [0.5, 0.6 - 1e-7, 0.6 + 1e-7])
        assert [r.n_system_chosen for r in rows] == [1, 1, 0]

    def test_zero_difference_at_zero_cutoff_goes_system(self):
        pair = make_pair("p2", PREF_TIE)
        scores = score_pairs([pair], stub_for([pair], [(0.6, 0.6)]))
        rows = sweep_cutoffs(scores, [0.0, 5e-324])
        assert [r.n_system_chosen for r in rows] == [1, 0]
        assert rows[0].chosen_pref_tie == 1

    def test_small_deficit_goes_lead(self):
        pair = make_pair("p3", PREF_LEAD)
        scores = score_pairs([pair], stub_for([pair], [(0.4, 0.6)]))
        (row,) = sweep_cutoffs(scores, [0.1])
        assert row.n_system_chosen == 0

    def test_decision_invariants_enforced(self):
        with pytest.raises(ValidationError):
            CutoffRow(cutoff=0.0, n_total=3, n_system_chosen=2,
                      chosen_pref_system=1, chosen_pref_lead=0,
                      chosen_pref_tie=0, n_correct=1)
        with pytest.raises(ValidationError):
            CutoffRow(cutoff=0.0, n_total=3, n_system_chosen=1,
                      chosen_pref_system=1, chosen_pref_lead=1,
                      chosen_pref_tie=0, n_correct=1)

    def test_real_classifier_scores_summaries(self):
        leads, clf = fusion_classifier()
        pair = SummaryPair(article_id="a1", lead_summary=leads[1],
                           system_summary=leads[0],
                           human_preference=PREF_SYSTEM)
        scorer = RecordingScorer(clf)
        (row,) = sweep_cutoffs(score_pairs([pair], scorer), [0.0])
        assert row.n_system_chosen in (0, 1)
        assert len(scorer.seen) == 2
        assert all(0.0 < p < 1.0 for p in scorer.seen)

    def test_unparsed_summary_raises_missing_parse(self):
        leads, clf = fusion_classifier()
        pair = SummaryPair(article_id="a2", lead_summary=leads[0],
                           system_summary=summary_lead("bare", ("no", "tree")),
                           human_preference=PREF_LEAD)
        with pytest.raises(MissingParseError):
            sweep_cutoffs(score_pairs([pair], clf), [0.0])


class TestSweepCutoffs:
    def test_equal_scores_all_go_system_at_zero(self):
        prefs = [PREF_SYSTEM, PREF_LEAD, PREF_TIE, PREF_LEAD, PREF_SYSTEM]
        pairs = [make_pair(f"p{i}", pref) for i, pref in enumerate(prefs)]
        scorer = stub_for(pairs, [(0.7, 0.7)] * len(pairs))
        (row,) = sweep_cutoffs(score_pairs(pairs, scorer), [0.0])
        assert row.n_system_chosen == 5
        assert row.n_correct == sum(p in (PREF_SYSTEM, PREF_TIE)
                                    for p in prefs)

    def test_large_cutoff_keeps_every_lead(self):
        prefs = [PREF_LEAD, PREF_LEAD, PREF_TIE, PREF_LEAD]
        pairs = [make_pair(f"p{i}", pref) for i, pref in enumerate(prefs)]
        scorer = stub_for(pairs, [(0.8, 0.5)] * len(pairs))
        (row,) = sweep_cutoffs(score_pairs(pairs, scorer), [0.5])
        assert row.n_system_chosen == 0
        assert row.n_correct == 4

    def test_perfect_separation_at_matching_cutoff(self):
        pairs = []
        pair_probs = []
        for i in range(6):
            pairs.append(make_pair(f"s{i}", PREF_SYSTEM))
            pair_probs.append((0.9, 0.5))
        for i in range(4):
            pairs.append(make_pair(f"l{i}", PREF_LEAD))
            pair_probs.append((0.6, 0.5))
        scorer = stub_for(pairs, pair_probs)
        (row,) = sweep_cutoffs(score_pairs(pairs, scorer), [0.3])
        assert row.n_system_chosen == 6
        assert row.chosen_pref_system == 6
        assert row.n_correct == 10
        assert row.pct_correct == 100.0

    def test_monotone_in_cutoff_and_rows_consistent(self):
        rng = np.random.default_rng(17)
        prefs = list((PREF_SYSTEM, PREF_LEAD, PREF_TIE))
        for _ in range(50):
            n = int(rng.integers(2, 9))
            pairs = [make_pair(f"p{i}", prefs[int(rng.integers(3))])
                     for i in range(n)]
            pair_probs = [(float(rng.uniform()), float(rng.uniform()))
                          for _ in range(n)]
            scores = score_pairs(pairs, stub_for(pairs, pair_probs))
            rows = sweep_cutoffs(scores, DEFAULT_CUTOFFS)
            counts = [r.n_system_chosen for r in rows]
            assert counts == sorted(counts, reverse=True)
            for row in rows:
                assert (row.chosen_pref_system + row.chosen_pref_lead
                        + row.chosen_pref_tie) == row.n_system_chosen
                assert row.n_total == n

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValidationError):
            sweep_cutoffs(score_pairs([], StubScorer({})), [0.0])


class TestBaselineAlwaysDense:
    def test_fraction_of_dense_gold(self):
        labels = [CONTENT_DENSE] * 60 + [NON_CONTENT_DENSE] * 40
        assert baseline_always_dense(labels) == 0.6

    def test_no_dense_gold(self):
        assert baseline_always_dense([NON_CONTENT_DENSE] * 5) == 0.0

    def test_empty(self):
        with pytest.raises(ValidationError):
            baseline_always_dense([])


def length_corpus(counts_and_labels, prefix):
    leads, labels = [], {}
    sent = Sentence(tokens=("w", "x", "y"), pos=("A", "B", "C"))
    for i, (count, label) in enumerate(counts_and_labels):
        lead = AnnotatedLead(id=f"{prefix}{i:03d}", domain="general",
                             lead_text="w x y", sentences=(sent,),
                             article_word_count=count)
        leads.append(lead)
        labels[lead.id] = label
    return leads, labels


def length_baseline(train, test, labels):
    """baseline_article_length on the rows of ``train`` and ``test`` in a
    table over both."""
    table = FeatureTable(train + test)
    return baseline_article_length(table.rows(train), table.rows(test),
                                   label_vector(table, labels), table)


class TestBaselineArticleLength:
    def test_separable_lengths(self):
        train, train_labels = length_corpus(
            [(3000 + i, CONTENT_DENSE) for i in range(10)]
            + [(300 + i, NON_CONTENT_DENSE) for i in range(10)], "tr")
        test, test_labels = length_corpus(
            [(2800, CONTENT_DENSE), (3500, CONTENT_DENSE),
             (250, NON_CONTENT_DENSE), (420, NON_CONTENT_DENSE)], "te")
        labels = {**train_labels, **test_labels}
        assert length_baseline(train, test, labels) == 1.0

    def test_constant_lengths_fall_to_tie_rule(self):
        train, train_labels = length_corpus(
            [(1000, CONTENT_DENSE)] * 8 + [(1000, NON_CONTENT_DENSE)] * 8,
            "tr")
        test, test_labels = length_corpus(
            [(1000, CONTENT_DENSE)] * 3 + [(1000, NON_CONTENT_DENSE)] * 3,
            "te")
        labels = {**train_labels, **test_labels}
        assert length_baseline(train, test, labels) == 0.5

    def test_anti_correlated_weight_is_negative(self):
        train, labels = length_corpus(
            [(300 + i, CONTENT_DENSE) for i in range(10)]
            + [(4000 + i, NON_CONTENT_DENSE) for i in range(10)], "tr")
        table = FeatureTable(train)
        model, _ = train_length_model(np.arange(len(train)),
                                      label_vector(table, labels), table)
        assert model.weights[0] < 0

    def test_overlap_is_a_leak(self):
        train, labels = length_corpus(
            [(500, CONTENT_DENSE), (900, NON_CONTENT_DENSE)] * 2, "tr")
        table = FeatureTable(train)
        rows = np.arange(len(train))
        with pytest.raises(DataLeakError):
            baseline_article_length(rows, rows[:1], label_vector(table, labels),
                                    table)

    def test_unlabelled_lead_is_named(self):
        train, labels = length_corpus(
            [(500, CONTENT_DENSE), (900, NON_CONTENT_DENSE)] * 2, "tr")
        test, _ = length_corpus([(700, CONTENT_DENSE)], "te")
        with pytest.raises(ValidationError, match="^lead te000 has no label$"):
            length_baseline(train, test, labels)
        del labels["tr001"]
        test_labels = {"te000": CONTENT_DENSE}
        with pytest.raises(ValidationError, match="^lead tr001 has no label$"):
            length_baseline(train, test, {**labels, **test_labels})


class TestLengthScaler:
    @pytest.mark.parametrize("low, high", [(300.0, 4000.0), (1000.0, 1000.0)])
    def test_matrix_matches_the_per_count_formula(self, low, high):
        """Bit for bit min(1, max(0, (count - low) / (high - low))) count by
        count, or 0 for a degenerate range; zero values are not stored."""
        counts = np.array([0, 299, 300, 301, 1000, 1234, 3999, 4000, 4001,
                           10**6])
        expected = [0.0 if high == low
                    else min(1.0, max(0.0, (c - low) / (high - low)))
                    for c in counts.tolist()]
        X = LengthScaler(low=low, high=high).matrix(counts)
        assert (X.n_rows, X.n_cols) == (len(counts), 1)
        assert X.rows.tolist() == [r for r, v in enumerate(expected) if v]
        assert X.indices.tolist() == [0] * len(X.data)
        assert X.data.tolist() == [v for v in expected if v]


def binom_tail_oracle(successes, n, p0):
    q = 1.0 - p0
    return math.fsum(math.comb(n, k) * p0 ** k * q ** (n - k)
                     for k in range(successes, n + 1))


class TestBinomialCheck:
    def test_at_null_mean(self):
        assert binomial_superiority_check(50, 100, 0.5) >= 0.5

    def test_reference_count_matches_oracle(self):
        p = binomial_superiority_check(207, 323, 0.585)
        assert p == pytest.approx(binom_tail_oracle(207, 323, 0.585),
                                  abs=1e-10)
        assert p < 0.05

    def test_all_successes_closed_form(self):
        assert binomial_superiority_check(12, 12, 0.7) == pytest.approx(
            0.7 ** 12, rel=1e-12)

    def test_zero_successes(self):
        assert binomial_superiority_check(0, 9, 0.3) == 1.0

    def test_monotone_in_successes(self):
        values = [binomial_superiority_check(k, 30, 0.37)
                  for k in range(31)]
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-12

    def test_validation(self):
        with pytest.raises(ValidationError):
            binomial_superiority_check(5, 4, 0.5)
        with pytest.raises(ValidationError):
            binomial_superiority_check(-1, 4, 0.5)
        with pytest.raises(ValidationError):
            binomial_superiority_check(1, 4, 0.0)
        with pytest.raises(ValidationError):
            binomial_superiority_check(1, 4, 1.0)


class TestPairFiles:
    def test_round_trip(self, tmp_path):
        pairs = [make_pair("p1", PREF_SYSTEM),
                 make_pair("p2", PREF_TIE, lead_words=("a", "b"),
                           sys_words=("c",))]
        path = tmp_path / "pairs.jsonl"
        save_pairs(pairs, path)
        assert load_pairs(path) == pairs

    def test_bare_carriage_returns_split_lines(self, tmp_path):
        pairs = [make_pair("p1", PREF_SYSTEM), make_pair("p2", PREF_TIE)]
        path = tmp_path / "pairs.jsonl"
        save_pairs(pairs, path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r"))
        assert load_pairs(path) == pairs

    def test_bad_json_names_line(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        path.write_text('{"article_id": "p1"\n', encoding="utf-8")
        with pytest.raises(CorpusFormatError, match="line 1"):
            load_pairs(path)

    def test_missing_field_names_line(self, tmp_path):
        good = make_pair("p1", PREF_SYSTEM)
        path = tmp_path / "pairs.jsonl"
        save_pairs([good], path)
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"article_id": "p2", "human_preference": "tie"}\n')
        with pytest.raises(CorpusFormatError, match="line 2"):
            load_pairs(path)

    def test_identical_summaries_in_file_rejected(self, tmp_path):
        import json

        from contentdense.combine import pair_to_record
        pair = make_pair("p1", PREF_SYSTEM)
        rec = pair_to_record(pair)
        rec["system_summary"] = rec["lead_summary"]
        path = tmp_path / "pairs.jsonl"
        path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="line 1"):
            load_pairs(path)
