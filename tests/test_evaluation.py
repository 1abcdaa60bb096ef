import dataclasses
import math
import multiprocessing
import os
from collections import Counter

import numpy as np
import pytest

from contentdense import evaluation
from contentdense.corpus import AnnotatedLead, Sentence
from contentdense.errors import (
    EmptyLeadError,
    MissingParseError,
    NumericError,
    SingleClassError,
    ValidationError,
)
from contentdense.evaluation import (
    AnnotationRecord,
    ConfidenceStratum,
    FoldPlan,
    Prediction,
    aggregate_annotations,
    confidence_stratified_accuracy,
    cross_validate,
    filter_amt_annotators,
    learning_curve,
    make_folds,
    pearson_correlation,
    percent_agreement_and_kappa,
    split_train_dev,
    strata_from_predictions,
    train_modes,
)
from contentdense.features import SPACE_MRC, SPACE_ORDER, FeatureTable
from contentdense.labeling import CONTENT_DENSE, NON_CONTENT_DENSE
from contentdense.learn import (
    MODE_DECISION_FUSION,
    MODE_FEATURE_FUSION,
    MODE_MI,
    MODE_MRC,
    MODE_PR,
    MODES,
    TrainConfig,
    label_vector,
)
from test_learn import MRC_LEXICON, make_corpus

ONE_C = TrainConfig(c_grid=(1.0,))


class TestMakeFolds:
    def test_even_split(self):
        plan = make_folds([f"x{i}" for i in range(100)], k=10, seed=0)
        assert [len(f) for f in plan.folds] == [10] * 10

    def test_remainder_sizes(self):
        plan = make_folds([f"x{i}" for i in range(103)], k=10, seed=3)
        assert Counter(len(f) for f in plan.folds) == {11: 3, 10: 7}

    def test_deterministic_and_seed_sensitive(self):
        ids = [f"x{i}" for i in range(40)]
        assert make_folds(ids, seed=5) == make_folds(ids, seed=5)
        assert make_folds(ids, seed=5) != make_folds(ids, seed=6)

    def test_too_few_ids(self):
        with pytest.raises(ValidationError):
            make_folds(["a", "b"], k=10, seed=0)

    def test_negative_seed(self):
        with pytest.raises(ValidationError, match="seed .* got -1"):
            make_folds([f"x{i}" for i in range(20)], k=10, seed=-1)

    def test_duplicate_ids(self):
        with pytest.raises(ValidationError):
            make_folds(["a", "b", "a"] + [f"x{i}" for i in range(10)],
                       k=10, seed=0)

    def test_partition_property(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n = int(rng.integers(12, 80))
            k = int(rng.integers(2, 11))
            if n < k:
                continue
            ids = [f"id{i}" for i in range(n)]
            plan = make_folds(ids, k=k, seed=int(rng.integers(1 << 30)))
            flat = [i for fold in plan.folds for i in fold]
            assert sorted(flat) == sorted(ids)
            sizes = [len(f) for f in plan.folds]
            assert max(sizes) - min(sizes) <= 1

    def test_roles_split(self):
        plan = make_folds([f"x{i}" for i in range(100)], k=10, seed=0)
        test, first, second = plan.roles(3)
        assert test == 3
        assert first == (4, 5, 6, 7, 8)
        assert second == (9, 0, 1, 2)
        for t in range(10):
            test, first, second = plan.roles(t)
            groups = {test, *first, *second}
            assert groups == set(range(10))
            assert len(first) == 5 and len(second) == 4

    def test_roles_out_of_range(self):
        plan = make_folds([f"x{i}" for i in range(20)], k=10, seed=0)
        with pytest.raises(ValidationError):
            plan.roles(10)
        with pytest.raises(ValidationError):
            plan.roles(-1)


def constant_corpus(n, k=10, seed=0):
    """Identical leads, labeled so every fold is exactly half and half.

    With constant features, a balanced training set leaves the model at
    zero weights and zero bias, so the margin-zero tie rule decides every
    prediction.
    """
    sent = Sentence(tokens=("same", "words", "here"), pos=("JJ", "NNS", "RB"))
    leads = [AnnotatedLead(id=f"c{i:03d}", domain="general",
                           lead_text="same words here", sentences=(sent,),
                           article_word_count=100)
             for i in range(n)]
    plan = make_folds([l.id for l in leads], k=k, seed=seed)
    labels = {}
    for fold in plan.folds:
        half = len(fold) // 2
        for j, lead_id in enumerate(fold):
            labels[lead_id] = CONTENT_DENSE if j < half else NON_CONTENT_DENSE
    return leads, labels


class TestCrossValidate:
    def test_separable_corpus_is_learned(self):
        leads, labels = make_corpus(80, seed=3, flip=0.0)
        result = cross_validate(leads, labels, MODE_FEATURE_FUSION,
                                lexicon=MRC_LEXICON, config=ONE_C, seed=1)
        assert len(result.folds) == 10
        assert result.mean_accuracy >= 0.98
        assert len(result.predictions) == 80

    def test_shuffled_labels_score_near_chance(self):
        leads, labels = make_corpus(200, seed=4, flip=0.1)
        rng = np.random.default_rng(0)
        values = [labels[l.id] for l in leads]
        shuffled = dict(zip([l.id for l in leads],
                            (values[j] for j in rng.permutation(len(values)))))
        result = cross_validate(leads, shuffled, MODE_FEATURE_FUSION,
                                lexicon=MRC_LEXICON, config=ONE_C, seed=1)
        assert 0.35 <= result.mean_accuracy <= 0.65

    def test_constant_features_hit_the_tie_rule(self):
        leads, labels = constant_corpus(100)
        result = cross_validate(leads, labels, MODE_MRC,
                                lexicon=("unrelated", "lexicon"),
                                config=ONE_C, seed=0)
        assert result.mean_accuracy == 0.5
        assert all(p.predicted == CONTENT_DENSE for p in result.predictions)

    def test_multi_mode_shares_folds_and_models(self):
        leads, labels = make_corpus(80, seed=5, flip=0.1)
        both = cross_validate(leads, labels, [MODE_MI, MODE_DECISION_FUSION],
                              lexicon=MRC_LEXICON, config=ONE_C, seed=2)
        alone = cross_validate(leads, labels, MODE_MI,
                               lexicon=MRC_LEXICON, config=ONE_C, seed=2)
        assert both[MODE_MI].folds == alone.folds
        assert both[MODE_MI].predictions == alone.predictions
        fold_of = {p.lead_id: p.fold for p in both[MODE_MI].predictions}
        for p in both[MODE_DECISION_FUSION].predictions:
            assert fold_of[p.lead_id] == p.fold

    def test_per_space_models_are_trained_once(self, monkeypatch):
        """A single-space mode and the decision-fusion first layer share
        one model per space: three trainings, not six."""
        calls = []
        train_single = evaluation.train_single

        def counting(*args, **kwargs):
            calls.append(args[3])  # the space name
            return train_single(*args, **kwargs)

        monkeypatch.setattr(evaluation, "train_single", counting)
        leads, labels = make_corpus(80, seed=5, flip=0.1)
        cross_validate(leads, labels, list(MODES), lexicon=MRC_LEXICON,
                       config=ONE_C, seed=2, fold_subset=[0])
        assert sorted(calls) == sorted(SPACE_ORDER)
        calls.clear()
        table = FeatureTable(leads)
        train, dev = split_train_dev(np.arange(len(leads)))
        models = train_modes([MODE_MRC, MODE_DECISION_FUSION], train, dev,
                             label_vector(table, labels), MRC_LEXICON, table,
                             ONE_C)
        assert sorted(calls) == sorted(SPACE_ORDER)
        assert (models[MODE_MRC].model
                is models[MODE_DECISION_FUSION].model.first_layer[SPACE_MRC])
        assert models[MODE_MRC].bundle is models[MODE_DECISION_FUSION].bundle

    def test_training_errors_carry_fold_index(self):
        leads, labels = make_corpus(60, seed=6)
        one_class = {i: CONTENT_DENSE for i in labels}
        with pytest.raises(SingleClassError, match=r"fold 2:"):
            cross_validate(leads, one_class, MODE_MI, lexicon=MRC_LEXICON,
                           config=ONE_C, seed=0, fold_subset=[2])

    def test_unparsed_and_empty_leads_fail_where_they_are_used(self):
        leads, labels = make_corpus(60, seed=6)
        leads = [dataclasses.replace(lead, sentences=(
                     lead.sentences[0],
                     dataclasses.replace(lead.sentences[1], parse=None)))
                 if k % 7 == 3 else lead for k, lead in enumerate(leads)]
        for mode in (MODE_MRC, MODE_MI):
            cross_validate(leads, labels, mode, lexicon=MRC_LEXICON,
                           config=ONE_C, seed=0, fold_subset=[4])
        plan = make_folds([l.id for l in leads], k=10, seed=0)
        train = [i for f in plan.roles(4)[1] for i in plan.folds[f]]
        unparsed = next(i for i in train if int(i[4:]) % 7 == 3)
        with pytest.raises(MissingParseError,
                           match=f"^fold 4: lead {unparsed}: sentence 1 "):
            cross_validate(leads, labels, MODE_PR, config=ONE_C, seed=0,
                           fold_subset=[4])
        empty = [AnnotatedLead(id=f"lead{k:04d}", domain="general",
                               lead_text="", sentences=(),
                               article_word_count=0)
                 if k % 5 == 1 else lead for k, lead in enumerate(leads)]
        first = next(i for i in train if int(i[4:]) % 5 == 1)
        with pytest.raises(EmptyLeadError,
                           match=f"^fold 4: lead {first} has no tokens"):
            cross_validate(empty, labels, MODE_MRC, lexicon=MRC_LEXICON,
                           config=ONE_C, seed=0, fold_subset=[4])

    def test_missing_label_rejected(self):
        leads, labels = make_corpus(60, seed=6)
        del labels[leads[0].id]
        with pytest.raises(ValidationError):
            cross_validate(leads, labels, MODE_MI, lexicon=MRC_LEXICON,
                           config=ONE_C)

    def test_unknown_mode_rejected(self):
        leads, labels = make_corpus(60, seed=6)
        with pytest.raises(ValidationError):
            cross_validate(leads, labels, "kitchen_sink",
                           lexicon=MRC_LEXICON, config=ONE_C)

    def test_bad_fold_index_rejected_before_training(self, monkeypatch):
        calls = []
        monkeypatch.setattr(evaluation, "train_modes",
                            lambda *args, **kwargs: calls.append(args))
        leads, labels = make_corpus(60, seed=6)
        with pytest.raises(ValidationError, match="fold index 11"):
            cross_validate(leads, labels, MODE_MRC, lexicon=MRC_LEXICON,
                           config=ONE_C, fold_subset=[0, 11])
        assert calls == []

    @pytest.mark.parametrize("run", [cross_validate, learning_curve])
    def test_empty_fold_subset_rejected_before_training(self, monkeypatch,
                                                        run):
        calls = []
        monkeypatch.setattr(evaluation, "train_modes",
                            lambda *args, **kwargs: calls.append(args))
        leads, labels = make_corpus(60, seed=6)
        with pytest.raises(ValidationError, match="fold_subset"):
            run(leads, labels, MODE_MRC, lexicon=MRC_LEXICON, config=ONE_C,
                fold_subset=[])
        assert calls == []


class TestTableMustHoldTheLeads:
    """A ``table`` lacking some of the leads fails before anything trains,
    naming the first lead it lacks; a table over more leads works alike."""

    @pytest.mark.parametrize("run", [cross_validate, learning_curve])
    def test_partial_table_rejected_before_training(self, monkeypatch, run):
        calls = []
        monkeypatch.setattr(evaluation, "train_modes",
                            lambda *args, **kwargs: calls.append(args))
        leads, labels = make_corpus(60, seed=6)
        with pytest.raises(ValidationError,
                           match=f"does not hold lead '{leads[10].id}'$"):
            run(leads, labels, [MODE_MI, MODE_DECISION_FUSION],
                lexicon=MRC_LEXICON, config=ONE_C, fold_subset=[0],
                table=FeatureTable(leads[:10]))
        assert calls == []

    def test_train_modes_names_the_first_missing_lead(self, monkeypatch):
        """train_modes takes rows, which a table cannot lack; the lead it
        names is the first that ``y`` leaves unlabelled."""
        calls = []
        monkeypatch.setattr(evaluation, "build_feature_bundle",
                            lambda *args, **kwargs: calls.append(args))
        leads, labels = make_corpus(60, seed=6)
        table = FeatureTable(leads)
        train, dev = split_train_dev(np.arange(len(leads)))
        unlabeled = {i: label for i, label in labels.items()
                     if i != leads[dev[3]].id}
        with pytest.raises(ValidationError,
                           match=f"^lead {leads[dev[3]].id} has no label$"):
            train_modes([MODE_MRC], train, dev,
                        label_vector(table, unlabeled), MRC_LEXICON, table,
                        ONE_C)
        assert calls == []

    def test_wider_table_gives_the_same_results(self, monkeypatch):
        """A table over more leads, in another order and some of them
        unlabeled, gives what a table over the leads gives; and with one
        worker no fold builds a table of its own."""
        monkeypatch.setattr(evaluation, "_usable_cpus", lambda: 1)
        built = []
        init = FeatureTable.__init__

        def counting(self, leads):
            built.append(len(leads))
            init(self, leads)

        leads, labels = make_corpus(80, seed=5, flip=0.1)
        used = leads[:60]
        labels = {lead.id: labels[lead.id] for lead in used}
        modes = [MODE_MI, MODE_DECISION_FUSION]
        kwargs = dict(lexicon=MRC_LEXICON, config=ONE_C, seed=2,
                      fold_subset=[0, 3])
        runs = {}
        for name, table in (("own", FeatureTable(used)),
                            ("wider", FeatureTable(leads[::-1]))):
            monkeypatch.setattr(FeatureTable, "__init__", counting)
            runs[name] = (
                cross_validate(used, labels, modes, table=table, **kwargs),
                learning_curve(used, labels, modes, sizes=[18, 36],
                               table=table, **kwargs))
            monkeypatch.setattr(FeatureTable, "__init__", init)
        assert built == []
        results, curves = runs["own"]
        assert runs["wider"] == runs["own"]
        assert all(results[m].predictions for m in modes)
        assert all(curves[m] for m in modes)


class TestOneLabelVector:
    """A split is rows of one table and one label vector: one call of
    cross_validate or learning_curve, over several folds and sizes, makes
    the vector once and looks the leads up in the table once."""

    @pytest.mark.parametrize("run,extra", [(cross_validate, {}),
                                           (learning_curve,
                                            {"sizes": [18, 36]})])
    def test_made_once_per_call(self, monkeypatch, run, extra):
        monkeypatch.setattr(evaluation, "_usable_cpus", lambda: 1)
        calls = Counter()
        make_y, rows = evaluation.label_vector, FeatureTable.rows

        def counting_y(*args):
            calls["label_vector"] += 1
            return make_y(*args)

        def counting_rows(self, leads):
            calls["rows"] += 1
            return rows(self, leads)

        monkeypatch.setattr(evaluation, "label_vector", counting_y)
        monkeypatch.setattr(FeatureTable, "rows", counting_rows)
        leads, labels = make_corpus(60, seed=5, flip=0.1)
        run(leads, labels, [MODE_MRC, MODE_DECISION_FUSION],
            lexicon=MRC_LEXICON, config=ONE_C, seed=2, fold_subset=[0, 3, 7],
            **extra)
        assert calls == {"label_vector": 1, "rows": 1}


class TestSplitTrainDev:
    @pytest.mark.parametrize("n,n_train", [(2, 1), (3, 1), (9, 5), (10, 5),
                                           (18, 10), (376, 208)])
    def test_five_to_four(self, n, n_train):
        train, dev = split_train_dev(range(n))
        assert list(train) == list(range(n_train))
        assert list(dev) == list(range(n_train, n))


class TestMapFolds:
    """The fold dispatch of cross_validate and learning_curve."""

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_results_come_back_in_fold_order(self, monkeypatch, cpus):
        monkeypatch.setattr(evaluation, "_usable_cpus", lambda: cpus)
        results = evaluation._map_folds(lambda t: (t, os.getpid()),
                                        [0, 2, 5, 7])
        assert [t for t, _ in results] == [0, 2, 5, 7]
        forks = cpus > 1 and "fork" in multiprocessing.get_all_start_methods()
        assert {pid == os.getpid() for _, pid in results} == {not forks}
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_other_errors_pass_through_and_workers_are_joined(
            self, monkeypatch, cpus):
        monkeypatch.setattr(evaluation, "_usable_cpus", lambda: cpus)

        def work(t):
            if t == 1:
                raise KeyError("not a package error")
            return t

        with pytest.raises(KeyError, match="not a package error"):
            evaluation._map_folds(work, [0, 1, 2])
        assert multiprocessing.active_children() == []


class TestLearningCurve:
    def test_point_count_and_sizes(self):
        leads, labels = make_corpus(60, seed=8)
        points = learning_curve(leads, labels, MODE_MRC, lexicon=MRC_LEXICON,
                                sizes=range(10, 51, 10), config=ONE_C,
                                fold_subset=[0, 1], seed=0)
        assert [p.n_train for p in points] == [10, 20, 30, 40, 50]
        for p in points:
            assert len(p.fold_accuracies) == 2
            assert 0.0 <= p.mean_accuracy <= 1.0

    def test_truncates_at_pool_size(self):
        leads, labels = make_corpus(60, seed=8)
        points = learning_curve(leads, labels, MODE_MRC, lexicon=MRC_LEXICON,
                                sizes=range(40, 401, 30), config=ONE_C,
                                fold_subset=[0], seed=0)
        assert [p.n_train for p in points] == [40]

    def test_start_beyond_pool_gives_full_pool_point(self):
        leads, labels = make_corpus(60, seed=8)
        points = learning_curve(leads, labels, MODE_MRC, lexicon=MRC_LEXICON,
                                sizes=range(100, 601, 100), config=ONE_C,
                                fold_subset=[0], seed=0)
        assert [p.n_train for p in points] == [54]

    def test_prefix_nesting_makes_sizes_independent(self):
        leads, labels = make_corpus(60, seed=9, flip=0.1)
        both = learning_curve(leads, labels, MODE_MI, lexicon=MRC_LEXICON,
                              sizes=[10, 20], config=ONE_C,
                              fold_subset=[0, 1], seed=3)
        only = learning_curve(leads, labels, MODE_MI, lexicon=MRC_LEXICON,
                              sizes=[20], config=ONE_C,
                              fold_subset=[0, 1], seed=3)
        assert both[1] == only[0]

    def test_deterministic(self):
        leads, labels = make_corpus(60, seed=9, flip=0.1)
        kwargs = dict(lexicon=MRC_LEXICON, sizes=[15, 30], config=ONE_C,
                      fold_subset=[0], seed=3)
        a = learning_curve(leads, labels, MODE_FEATURE_FUSION, **kwargs)
        b = learning_curve(leads, labels, MODE_FEATURE_FUSION, **kwargs)
        assert a == b

    def test_decision_fusion_splits_prefix(self):
        leads, labels = make_corpus(60, seed=9, flip=0.0)
        points = learning_curve(leads, labels, MODE_DECISION_FUSION,
                                lexicon=MRC_LEXICON, sizes=[18],
                                config=ONE_C, fold_subset=[0], seed=3)
        assert points[0].n_train == 18
        assert 0.0 <= points[0].mean_accuracy <= 1.0

    def test_bad_sizes_rejected(self):
        leads, labels = make_corpus(60, seed=8)
        with pytest.raises(ValidationError):
            learning_curve(leads, labels, MODE_MRC, lexicon=MRC_LEXICON,
                           sizes=[1, 10], config=ONE_C)
        with pytest.raises(ValidationError):
            learning_curve(leads, labels, MODE_MRC, lexicon=MRC_LEXICON,
                           sizes=[10], config=ONE_C, fold_subset=[11])

    @pytest.mark.parametrize("config,bundles_per_size", [
        (TrainConfig(c_grid=(1.0, 4.0)), 1),
        (ONE_C, 2),
    ])
    def test_all_modes_share_a_split(self, monkeypatch, config,
                                     bundles_per_size):
        """Modes that split the prefix alike train on one bundle: all of
        them with a multi-value grid; with one value, decision fusion
        splits and the rest train on the whole prefix. Each mode's curve
        is the one it gets alone."""
        calls = []
        build = evaluation.build_feature_bundle

        def counting(*args, **kwargs):
            calls.append(len(args[0]))  # training leads
            return build(*args, **kwargs)

        monkeypatch.setattr(evaluation, "build_feature_bundle", counting)
        leads, labels = make_corpus(60, seed=9, flip=0.1)
        kwargs = dict(lexicon=MRC_LEXICON, sizes=[18, 36], config=config,
                      fold_subset=[0], seed=3)
        curves = learning_curve(leads, labels, list(MODES), **kwargs)
        assert len(calls) == 2 * bundles_per_size
        monkeypatch.setattr(evaluation, "build_feature_bundle", build)
        assert list(curves) == list(MODES)
        for mode in MODES:
            assert curves[mode] == learning_curve(leads, labels, mode,
                                                  **kwargs)


class TestPearsonCorrelation:
    def test_identity_and_negation(self):
        x = [1.0, 2.0, 5.0, 9.0]
        assert pearson_correlation(x, x) == pytest.approx(1.0, abs=1e-12)
        assert pearson_correlation(x, [-v for v in x]) == pytest.approx(
            -1.0, abs=1e-12)

    def test_hand_computed_value(self):
        r = pearson_correlation([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
        assert r == pytest.approx(3.0 / math.sqrt(2.0 * (14.0 / 3.0)),
                                  abs=1e-12)
        assert r == pytest.approx(0.9820, abs=1e-4)

    def test_matches_numpy_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            if np.std(x) == 0 or np.std(y) == 0:
                continue
            expected = float(np.corrcoef(x, y)[0, 1])
            assert pearson_correlation(x, y) == pytest.approx(expected,
                                                              abs=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(3, 30))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            a = float(rng.uniform(0.1, 10.0))
            b = float(rng.normal())
            r1 = pearson_correlation(x, y)
            r2 = pearson_correlation(a * x + b, y)
            assert abs(r1 - r2) <= 1e-12

    def test_errors(self):
        with pytest.raises(NumericError):
            pearson_correlation([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValidationError):
            pearson_correlation([1.0], [2.0])
        with pytest.raises(ValidationError):
            pearson_correlation([1.0, 2.0], [2.0])


def kappa_oracle(a, b):
    n = len(a)
    p_o = sum(x == y for x, y in zip(a, b)) / n
    p_e = 0.0
    for label in set(a) | set(b):
        p_e += (sum(x == label for x in a) / n) * (sum(y == label for y in b) / n)
    return p_o, (p_o - p_e) / (1 - p_e)


class TestAgreementAndKappa:
    def test_identical_mixed_labels(self):
        a = ["x", "y", "x", "y", "y"]
        agreement, kappa = percent_agreement_and_kappa(a, list(a))
        assert agreement == 1.0
        assert kappa == pytest.approx(1.0, abs=1e-15)

    def test_worked_example(self):
        agreement, kappa = percent_agreement_and_kappa([1, 1, 0, 0],
                                                       [1, 0, 1, 0])
        assert agreement == 0.5
        assert kappa == pytest.approx(0.0, abs=1e-15)

    def test_constant_equal_annotators_undefined(self):
        with pytest.raises(NumericError):
            percent_agreement_and_kappa(["x", "x"], ["x", "x"])

    def test_length_checks(self):
        with pytest.raises(ValidationError):
            percent_agreement_and_kappa([1, 2], [1])
        with pytest.raises(ValidationError):
            percent_agreement_and_kappa([], [])

    def test_matches_oracle_and_never_exceeds_agreement(self):
        rng = np.random.default_rng(21)
        checked = 0
        while checked < 100:
            n = int(rng.integers(2, 60))
            a = list(rng.integers(0, 3, size=n))
            b = list(rng.integers(0, 3, size=n))
            expect_o, expect_k = kappa_oracle(a, b)
            if not math.isfinite(expect_k):
                continue
            try:
                agreement, kappa = percent_agreement_and_kappa(a, b)
            except NumericError:
                continue
            assert agreement == pytest.approx(expect_o, abs=1e-12)
            assert kappa == pytest.approx(expect_k, abs=1e-12)
            assert kappa <= agreement + 1e-12
            assert (kappa == pytest.approx(1.0, abs=1e-12)) == (
                agreement == 1.0)
            checked += 1


def record(annotator, label=CONTENT_DENSE, score=80.0, elapsed=60.0,
           lead="lead1", condition="general"):
    return AnnotationRecord(lead_id=lead, annotator_id=annotator,
                            binary_label=label, score=score,
                            elapsed_seconds=elapsed, condition=condition)


class TestAmtFiltering:
    def test_slow_enough_and_consistent_kept(self):
        records = [record("a"), record("a", NON_CONTENT_DENSE, 20.0),
                   record("b", score=55.0, elapsed=41.0)]
        assert filter_amt_annotators(records) == records

    def test_fast_annotator_dropped_entirely(self):
        records = [record("a", elapsed=30.0), record("a", elapsed=40.0),
                   record("b")]
        kept = filter_amt_annotators(records)
        assert [r.annotator_id for r in kept] == ["b"]

    def test_exactly_forty_seconds_mean_dropped(self):
        records = [record("a", elapsed=40.0), record("b")]
        kept = filter_amt_annotators(records)
        assert [r.annotator_id for r in kept] == ["b"]

    def test_inconsistent_pair_drops_all_records(self):
        records = [record("a", CONTENT_DENSE, 10.0), record("a"),
                   record("b")]
        kept = filter_amt_annotators(records)
        assert [r.annotator_id for r in kept] == ["b"]

    def test_midpoint_boundary(self):
        dense_at_50 = [record("a", CONTENT_DENSE, 50.0)]
        assert filter_amt_annotators(dense_at_50) == dense_at_50
        sparse_at_50 = [record("a", NON_CONTENT_DENSE, 50.0)]
        assert filter_amt_annotators(sparse_at_50) == []

    def test_record_validation(self):
        with pytest.raises(ValidationError):
            record("a", score=101.0)
        with pytest.raises(ValidationError):
            record("a", elapsed=-1.0)
        with pytest.raises(ValidationError):
            record("a", label="maybe")
        with pytest.raises(ValidationError):
            record("a", condition="lab")


class TestAggregateAnnotations:
    def test_majority(self):
        records = [record(f"a{i}", CONTENT_DENSE) for i in range(5)]
        records += [record(f"b{i}", NON_CONTENT_DENSE, 20.0) for i in range(3)]
        out = aggregate_annotations(records)
        assert out["lead1"].label == CONTENT_DENSE
        assert out["lead1"].n_records == 8

    def test_tie_goes_content_dense(self):
        records = [record(f"a{i}", CONTENT_DENSE) for i in range(4)]
        records += [record(f"b{i}", NON_CONTENT_DENSE, 20.0) for i in range(4)]
        assert aggregate_annotations(records)["lead1"].label == CONTENT_DENSE

    def test_mean_score(self):
        records = [record("a", score=20.0), record("b", score=40.0),
                   record("c", score=90.0)]
        assert aggregate_annotations(records)["lead1"].mean_score == 50.0

    def test_order_invariant(self):
        records = [record("a", score=15.0, lead="x"),
                   record("b", NON_CONTENT_DENSE, 30.0, lead="x"),
                   record("c", score=90.0, lead="y")]
        assert aggregate_annotations(records) == aggregate_annotations(
            records[::-1])

    def test_empty_input(self):
        with pytest.raises(ValidationError):
            aggregate_annotations([])


class TestConfidenceStrata:
    def test_full_percentile_is_plain_accuracy(self):
        rng = np.random.default_rng(31)
        probs = list(rng.uniform(0, 1, size=40))
        labels = [CONTENT_DENSE if rng.random() < 0.5 else NON_CONTENT_DENSE
                  for _ in probs]
        (stratum,) = confidence_stratified_accuracy(probs, labels, [100])
        plain = sum(
            (CONTENT_DENSE if p >= 0.5 else NON_CONTENT_DENSE) == label
            for p, label in zip(probs, labels)) / len(probs)
        assert stratum.n_used == len(probs)
        assert stratum.accuracy == plain

    def test_uniform_half_probabilities_use_everything(self):
        labels = [CONTENT_DENSE, NON_CONTENT_DENSE] * 10
        strata = confidence_stratified_accuracy([0.5] * 20, labels,
                                                [10, 25, 50, 100])
        for stratum in strata:
            assert stratum.n_used == 20
            assert stratum.accuracy == 0.5

    def test_confident_slice_scores_higher(self):
        probs = [0.99] * 4 + [0.6] * 6
        labels = [CONTENT_DENSE] * 4 + [CONTENT_DENSE] * 3 + [
            NON_CONTENT_DENSE] * 3
        strata = confidence_stratified_accuracy(probs, labels, [10, 100])
        assert strata[0].n_used == 4
        assert strata[0].accuracy == 1.0
        assert strata[1].accuracy == 0.7
        assert strata[0].accuracy >= strata[1].accuracy

    def test_single_example(self):
        (stratum,) = confidence_stratified_accuracy([0.9], [CONTENT_DENSE],
                                                    [10])
        assert stratum.n_used == 1 and stratum.accuracy == 1.0

    def test_permutation_invariant_with_ids(self):
        rng = np.random.default_rng(33)
        probs = [0.9, 0.9, 0.7, 0.7, 0.7, 0.2]
        labels = [CONTENT_DENSE, NON_CONTENT_DENSE] * 3
        ids = [f"i{j}" for j in range(6)]
        base = confidence_stratified_accuracy(probs, labels, [25, 50], ids)
        perm = list(rng.permutation(6))
        shuffled = confidence_stratified_accuracy(
            [probs[j] for j in perm], [labels[j] for j in perm], [25, 50],
            [ids[j] for j in perm])
        assert base == shuffled

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            confidence_stratified_accuracy([], [], [10])
        with pytest.raises(ValidationError):
            confidence_stratified_accuracy([1.5], [CONTENT_DENSE], [10])
        with pytest.raises(ValidationError):
            confidence_stratified_accuracy([0.5], [CONTENT_DENSE], [0])
        with pytest.raises(ValidationError):
            confidence_stratified_accuracy([0.5], [CONTENT_DENSE], [101])
        with pytest.raises(ValidationError):
            confidence_stratified_accuracy([0.5], ["odd"], [10])

    def test_adapter_over_predictions(self):
        preds = [
            Prediction("a", 0, 0.9, CONTENT_DENSE, CONTENT_DENSE),
            Prediction("b", 0, 0.2, NON_CONTENT_DENSE, CONTENT_DENSE),
            Prediction("c", 1, 0.6, CONTENT_DENSE, CONTENT_DENSE),
        ]
        strata = strata_from_predictions(preds, [100])
        assert strata[0].n_used == 3
        assert strata[0].n_correct == 2

    def test_explicit_predicted_labels_override_threshold(self):
        # A Platt-calibrated hinge model can emit content_dense at a
        # probability below 0.5; the stratum must score that decision,
        # not the thresholded probability.
        probs = [0.9, 0.45, 0.2, 0.55]
        actual = [CONTENT_DENSE, CONTENT_DENSE,
                  NON_CONTENT_DENSE, NON_CONTENT_DENSE]
        decided = [CONTENT_DENSE, CONTENT_DENSE,
                   NON_CONTENT_DENSE, CONTENT_DENSE]
        (with_pred,) = confidence_stratified_accuracy(
            probs, actual, [100], predicted=decided)
        assert with_pred.n_correct == 3
        (without,) = confidence_stratified_accuracy(probs, actual, [100])
        assert without.n_correct == 2

    def test_adapter_full_stratum_matches_pooled_fold_accuracy(self):
        preds = [
            Prediction("a", 0, 0.9, CONTENT_DENSE, CONTENT_DENSE),
            Prediction("b", 0, 0.48, CONTENT_DENSE, CONTENT_DENSE),
            Prediction("c", 1, 0.47, CONTENT_DENSE, NON_CONTENT_DENSE),
            Prediction("d", 1, 0.1, NON_CONTENT_DENSE, NON_CONTENT_DENSE),
        ]
        (stratum,) = strata_from_predictions(preds, [100])
        pooled = sum(p.predicted == p.actual for p in preds)
        assert stratum.n_correct == pooled

    def test_misaligned_predicted_rejected(self):
        with pytest.raises(ValidationError):
            confidence_stratified_accuracy(
                [0.5, 0.6], [CONTENT_DENSE, CONTENT_DENSE], [100],
                predicted=[CONTENT_DENSE])
        with pytest.raises(ValidationError):
            confidence_stratified_accuracy(
                [0.5], [CONTENT_DENSE], [100], predicted=["odd"])
