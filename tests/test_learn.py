import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contentdense import kernels, learn
from contentdense.corpus import AnnotatedLead
from contentdense.errors import (
    DataLeakError,
    NumericError,
    SingleClassError,
    ValidationError,
)
from contentdense.features import (
    SPACE_MI,
    SPACE_ORDER,
    SPACE_PR,
    FeatureSpace,
    FeatureTable,
    build_feature_bundle,
)
from contentdense.kernels import (
    LOSS_HINGE,
    LOSS_LOGISTIC,
    objective_and_grad,
    pack_csr,
)
from contentdense.labeling import CONTENT_DENSE, NON_CONTENT_DENSE
from contentdense.optimize import TOL
from contentdense.learn import (
    MODE_DECISION_FUSION,
    MODE_FEATURE_FUSION,
    MODE_MI,
    MODE_SPACES,
    MODES,
    FusionModel,
    LeadClassifier,
    LinearModel,
    TrainConfig,
    accuracy,
    classifier_from_record,
    label_to_y,
    label_vector,
    load_classifier,
    margin_label,
    save_classifier,
    train_decision_fusion,
    train_feature_fusion,
    train_linear,
)
from test_features import corpora, lead_matrix, parsed_sentence

MRC_LEXICON = ("glass", "iron", "river", "stone")
DENSE_MARKERS = ("fact", "figure")
SPARSE_MARKERS = ("mood", "vibe")
DENSE_TREE = ("(S (NP (DT the) (NN report)) (VP (VBD listed) "
              "(NP (CD nine) (NNS items))))")
SPARSE_TREE = "(S (NP (PRP it)) (VP (VBD seemed) (ADJP (JJ nice))))"


def word_sentence(marker, fillers):
    text = "(S (NN {}) (VB saw) (NN {}) (NN {}))".format(marker, *fillers)
    return parsed_sentence(text)


def make_corpus(n, seed=0, flip=0.1):
    """Leads whose words, word rates, and parses all track the label."""
    rng = np.random.default_rng(seed)
    leads = []
    labels = {}
    for k in range(n):
        dense = k % 2 == 0
        mi_dense, mrc_dense, pr_dense = (
            (not dense) if rng.random() < flip else dense for _ in range(3)
        )
        marker = (DENSE_MARKERS if mi_dense else SPARSE_MARKERS)[rng.integers(2)]
        if mrc_dense:
            fillers = tuple(rng.choice(MRC_LEXICON, size=2))
        else:
            fillers = ("idea", "hope")
        sents = (word_sentence(marker, fillers),
                 parsed_sentence(DENSE_TREE if pr_dense else SPARSE_TREE))
        lead = AnnotatedLead(
            id=f"lead{k:04d}", domain="general",
            lead_text=" ".join(w for s in sents for w in s.tokens),
            sentences=sents, article_word_count=500)
        leads.append(lead)
        labels[lead.id] = CONTENT_DENSE if dense else NON_CONTENT_DENSE
    return leads, labels


@pytest.fixture(scope="module")
def corpus():
    leads, labels = make_corpus(60, seed=7)
    return leads[:40], leads[40:], labels


def table_rows(leads, labels, *parts):
    """A table over ``leads``, each of ``parts``' rows in it, and y."""
    table = FeatureTable(leads)
    return (table, *(table.rows(part) for part in parts),
            label_vector(table, labels))


@pytest.fixture(scope="module")
def rows(corpus):
    """A table over the corpus, its training and development rows, y."""
    train, dev, labels = corpus
    return table_rows(train + dev, labels, train, dev)


@pytest.fixture(scope="module")
def bundle(rows):
    table, train_rows, _, y = rows
    return build_feature_bundle(train_rows, y, MRC_LEXICON, table=table)


def toy_matrix(*values, n_cols=1):
    """One row per value over ``n_cols`` columns: ``value`` in column 0,
    or an empty row for None."""
    rows = [k for k, v in enumerate(values) if v is not None]
    return pack_csr(np.array(rows, dtype=np.int64),
                    np.zeros(len(rows), dtype=np.int64),
                    np.array([values[k] for k in rows], dtype=np.float64),
                    len(values), n_cols)


class TestLabelsAndAccuracy:
    @pytest.mark.parametrize("z,label", [
        (0.0, CONTENT_DENSE), (-0.0, CONTENT_DENSE), (5e-324, CONTENT_DENSE),
        (-5e-324, NON_CONTENT_DENSE), (1.0, CONTENT_DENSE),
        (-1.0, NON_CONTENT_DENSE)])
    def test_tie_rule_is_shared(self, z, label):
        """A margin >= 0 is content_dense, exact zeros of either sign
        included, for one prediction and for an accuracy alike."""
        assert margin_label(z) == label
        assert accuracy(np.array([z]), label_to_y([label])) == 1.0
        other = NON_CONTENT_DENSE if label == CONTENT_DENSE else CONTENT_DENSE
        assert accuracy(np.array([z]), label_to_y([other])) == 0.0

    def test_accuracy_is_the_share_correct(self):
        z = np.array([0.5, -0.5, 0.0, -2.0, 3.0, -0.0, 1.0])
        y = label_to_y([CONTENT_DENSE, CONTENT_DENSE, NON_CONTENT_DENSE,
                        NON_CONTENT_DENSE, CONTENT_DENSE, CONTENT_DENSE,
                        NON_CONTENT_DENSE])
        assert accuracy(z, y) == 4 / 7
        with pytest.raises(ValidationError):
            accuracy(z[:2], y)
        with pytest.raises(ValidationError):
            accuracy(np.zeros(0), label_to_y([]))

    def test_label_encoding(self):
        y = label_to_y([CONTENT_DENSE, NON_CONTENT_DENSE, CONTENT_DENSE])
        assert y.dtype == np.float64
        assert y.tolist() == [1.0, -1.0, 1.0]
        empty = label_to_y([])
        assert empty.dtype == np.float64 and empty.shape == (0,)
        with pytest.raises(ValidationError, match="unknown label 'maybe'"):
            label_to_y([CONTENT_DENSE, "maybe", None])
        with pytest.raises(ValidationError, match="unknown label None"):
            label_to_y([None, "maybe"])


class TestTrainLinear:
    def test_separable_single_feature(self):
        X = toy_matrix(*[1.0] * 10, *[None] * 10)
        y = [CONTENT_DENSE] * 10 + [NON_CONTENT_DENSE] * 10
        model = train_linear(X, label_to_y(y), "TOY", LOSS_LOGISTIC, c=4.0)
        assert model.weights[0] > 0
        assert [margin_label(z) for z in model.margins(X).tolist()] == y

    def test_identical_points_opposite_labels(self):
        X = toy_matrix(1.0, 1.0)
        y = [CONTENT_DENSE, NON_CONTENT_DENSE]
        model = train_linear(X, label_to_y(y), "TOY", LOSS_LOGISTIC, c=1.0)
        assert abs(model.weights[0]) < 1e-4
        assert abs(model.bias) < 1e-4
        value, _, _, _ = objective_and_grad(
            model.weights, model.bias, X, np.array([1.0, -1.0]), 1.0,
            LOSS_LOGISTIC)
        assert value == pytest.approx(2.0 * math.log(2.0), rel=1e-6)

    @pytest.mark.parametrize("loss", [LOSS_LOGISTIC, LOSS_HINGE])
    def test_reaches_stationary_point(self, corpus, rows, bundle, loss):
        train, _, labels = corpus
        X = bundle.matrix(rows[1], [SPACE_MI])
        model = train_linear(X, label_to_y([labels[l.id] for l in train]),
                             SPACE_MI, loss, c=1.0)
        y = np.array([1.0 if labels[l.id] == CONTENT_DENSE else -1.0
                      for l in train])
        _, grad_w, grad_b, _ = objective_and_grad(
            model.weights, model.bias, X, y, 1.0, loss)
        assert max(np.abs(grad_w).max(), abs(grad_b)) <= TOL

    @pytest.mark.parametrize("loss", [LOSS_LOGISTIC, LOSS_HINGE])
    def test_one_margins_pass_per_objective_call_and_product(
            self, corpus, rows, bundle, loss, monkeypatch):
        """A fit takes one ``margins`` pass per objective call and one per
        Hessian-vector product: the Hessian at a point is built from the
        margins its objective call computed."""
        train, _, labels = corpus
        X = bundle.matrix(rows[1], [SPACE_MI])
        passes, calls, products = [], [], []
        margins, objective = kernels.margins, learn.objective_and_grad

        def counted_margins(*args):
            passes.append(1)
            return margins(*args)

        def counted_objective(*args):
            calls.append(1)
            *values, hessian = objective(*args)

            def product(v):
                products.append(1)
                return hessian(v)

            return (*values, product)

        monkeypatch.setattr(kernels, "margins", counted_margins)
        monkeypatch.setattr(learn, "objective_and_grad", counted_objective)
        train_linear(X, label_to_y([labels[l.id] for l in train]), SPACE_MI,
                     loss, c=1.0)
        assert len(calls) > 1 and products
        assert len(passes) == len(calls) + len(products)

    def test_mismatched_lengths(self):
        with pytest.raises(ValidationError):
            train_linear(toy_matrix(1.0),
                         label_to_y([CONTENT_DENSE, NON_CONTENT_DENSE]),
                         "TOY", LOSS_LOGISTIC, c=1.0)

    def test_wrong_space(self):
        model = train_linear(toy_matrix(1.0, None),
                             label_to_y([CONTENT_DENSE, NON_CONTENT_DENSE]),
                             "TOY", LOSS_LOGISTIC, c=1.0)
        with pytest.raises(ValidationError):
            model.margins(toy_matrix(1.0, None, n_cols=2))

    def test_single_class(self):
        with pytest.raises(SingleClassError):
            train_linear(toy_matrix(1.0, None),
                         label_to_y([CONTENT_DENSE, CONTENT_DENSE]),
                         "TOY", LOSS_LOGISTIC, c=1.0)

    def test_y_must_hold_classes(self):
        """Label strings and the 0 that label_vector gives an unlabelled
        row are not classes."""
        X = toy_matrix(1.0, None)
        for y in ([CONTENT_DENSE, NON_CONTENT_DENSE], np.array([1.0, 0.0])):
            with pytest.raises(ValidationError, match="only \\+1 and -1"):
                train_linear(X, y, "TOY", LOSS_LOGISTIC, c=1.0)

    def test_seed_must_be_non_negative(self):
        with pytest.raises(ValidationError, match="seed .* got -1"):
            TrainConfig(seed=-1)

    @pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf])
    def test_c_must_be_positive_and_finite(self, c):
        with pytest.raises(ValidationError):
            TrainConfig(c_grid=(1.0, c))
        with pytest.raises(ValidationError):
            train_linear(toy_matrix(1.0, None),
                         label_to_y([CONTENT_DENSE, NON_CONTENT_DENSE]),
                         "TOY", LOSS_LOGISTIC, c=c)

    @pytest.mark.filterwarnings("error")  # numpy's overflow warning too
    def test_nan_margin_is_a_numeric_error(self):
        """Finite weights can still give a row +inf and -inf terms."""
        model = LinearModel(weights=np.array([1e308, -1e308]), bias=0.0,
                            space_name="TOY", loss=LOSS_LOGISTIC, l2_c=1.0)
        row = np.array([0, 0]), np.array([0, 1])
        assert model.margins(pack_csr(*row, np.ones(2), 1, 2)).tolist() == [0.0]
        with pytest.raises(NumericError, match="NaN margin"):
            model.margins(pack_csr(*row, np.full(2, 2.0), 1, 2))

    @pytest.mark.filterwarnings("error")
    def test_nan_platt_probability_is_a_numeric_error(self):
        model = LinearModel(weights=np.ones(1), bias=0.0, space_name="TOY",
                            loss=LOSS_HINGE, l2_c=1.0, platt=(0.0, 0.0))
        assert model.proba_from_margins(np.array([1e308])).tolist() == [0.5]
        with pytest.raises(NumericError, match="Platt calibration gave a NaN"):
            model.proba_from_margins(np.array([1.0, math.inf]))

    def test_deterministic_bitwise(self, corpus, rows, bundle):
        train, _, labels = corpus
        X = bundle.matrix(rows[1], [SPACE_PR])
        y = label_to_y([labels[l.id] for l in train])
        a = train_linear(X, y, SPACE_PR, LOSS_LOGISTIC, c=2.0)
        b = train_linear(X, y, SPACE_PR, LOSS_LOGISTIC, c=2.0)
        assert np.array_equal(a.weights, b.weights)
        assert a.bias == b.bias


class TestPredictProba:
    def test_logistic_matches_sigmoid_of_margin(self):
        model = LinearModel(weights=np.array([2.0]), bias=-0.5,
                            space_name="TOY", loss=LOSS_LOGISTIC, l2_c=1.0)
        for value in (0.0, 0.3, 1.0):
            z = model.margins(toy_matrix(value))
            [m] = z.tolist()
            assert model.proba_from_margins(z)[0] == pytest.approx(
                1.0 / (1.0 + math.exp(-m)), abs=1e-15)

    def test_margin_zero_gives_half_and_dense_label(self):
        model = LinearModel(weights=np.zeros(1), bias=0.0, space_name="TOY",
                            loss=LOSS_LOGISTIC, l2_c=1.0)
        z = model.margins(toy_matrix(3.0))
        assert model.proba_from_margins(z).tolist() == [0.5]
        assert margin_label(z[0]) == CONTENT_DENSE

    def test_hinge_requires_platt(self):
        model = LinearModel(weights=np.array([1.0]), bias=0.0,
                            space_name="TOY", loss=LOSS_HINGE, l2_c=1.0)
        z = model.margins(toy_matrix(1.0))
        with pytest.raises(ValidationError):
            model.proba_from_margins(z)
        model.platt = (2.0, 0.1)
        [m] = z.tolist()
        assert model.proba_from_margins(z)[0] == pytest.approx(
            1.0 / (1.0 + math.exp(-(2.0 * m + 0.1))), abs=1e-15)

    def test_proba_order_follows_margin_order(self, rows, bundle):
        _, train_rows, dev_rows, y = rows
        model = train_feature_fusion(train_rows, y, bundle,
                                     TrainConfig(c_grid=(1.0,)))
        margins_ = model.margins(bundle.matrix(dev_rows, SPACE_ORDER))
        probas = model.proba_from_margins(margins_)
        assert np.argsort(margins_).tolist() == np.argsort(probas).tolist()


class TestFeatureFusion:
    def test_combined_space_and_dim(self, rows, bundle):
        _, train_rows, _, y = rows
        model = train_feature_fusion(train_rows, y, bundle,
                                     TrainConfig(c_grid=(1.0,)))
        assert model.space_name == bundle.combined_name
        assert model.dim == sum(s.dim for s in bundle.active_spaces())
        assert model.loss == LOSS_LOGISTIC

    def test_learns_the_corpus(self, corpus, rows, bundle):
        _, dev, labels = corpus
        _, train_rows, dev_rows, y = rows
        model = train_feature_fusion(train_rows, y, bundle,
                                     TrainConfig(c_grid=(1.0,)))
        z = model.margins(bundle.matrix(dev_rows, SPACE_ORDER))
        hits = sum(margin_label(m) == labels[l.id]
                   for m, l in zip(z.tolist(), dev))
        assert hits / len(dev) >= 0.8

    def test_grid_needs_dev_set(self, rows, bundle):
        _, train_rows, _, y = rows
        with pytest.raises(ValidationError):
            train_feature_fusion(train_rows, y, bundle,
                                 TrainConfig(c_grid=(0.5, 2.0)))

    def test_grid_tie_takes_smallest_c(self):
        leads, labels = make_corpus(60, seed=11, flip=0.0)
        table, train, dev, y = table_rows(leads, labels, leads[:40],
                                          leads[40:])
        bundle = build_feature_bundle(train, y, MRC_LEXICON, table=table)
        model = train_feature_fusion(train, y, bundle,
                                     TrainConfig(c_grid=(0.25, 1.0, 4.0)),
                                     dev_rows=dev)
        assert model.l2_c == 0.25

    def test_dev_overlap_is_a_leak(self, rows, bundle):
        _, train, dev, y = rows
        with pytest.raises(DataLeakError):
            train_feature_fusion(train, y, bundle,
                                 TrainConfig(c_grid=(0.5, 2.0)),
                                 dev_rows=np.concatenate([dev, train[:1]]))


@pytest.fixture(scope="module")
def fusion(rows, bundle):
    _, train, dev, y = rows
    return train_decision_fusion(train, dev, y, bundle)


class TestDecisionFusion:
    def test_structure(self, fusion):
        assert set(fusion.first_layer) == set(SPACE_ORDER)
        for model in fusion.first_layer.values():
            assert model.loss == LOSS_LOGISTIC
        assert fusion.second_layer.loss == LOSS_HINGE
        assert fusion.second_layer.dim == 3
        assert fusion.second_layer.platt is not None

    def test_classifies_the_corpus(self, corpus, bundle, fusion):
        train, dev, labels = corpus
        clf = LeadClassifier(mode=MODE_DECISION_FUSION, bundle=bundle,
                             model=fusion)
        hits = sum(clf.predict_label(l) == labels[l.id] for l in train + dev)
        assert hits / (len(train) + len(dev)) >= 0.8
        for lead in dev[:5]:
            p = clf.predict_proba(lead)
            assert 0.0 < p < 1.0
            assert (clf.predict_label(lead) == CONTENT_DENSE) == (
                clf.margins([lead])[0] >= 0.0)

    def test_overlap_is_a_leak(self, rows, bundle):
        _, train, dev, y = rows
        with pytest.raises(DataLeakError):
            train_decision_fusion(train, np.concatenate([dev, train[:2]]), y,
                                  bundle)

    def test_first_layer_needs_development_margins(self, rows, bundle,
                                                   fusion):
        """A given first layer is stacked from the development margins its
        training kept; one trained without those rows has none."""
        _, train, dev, y = rows
        one_c = TrainConfig(c_grid=(1.0,))
        with_dev = {name: learn.train_single(train, y, bundle, name, one_c,
                                             dev) for name in SPACE_ORDER}
        stacked = train_decision_fusion(train, dev, y, bundle, one_c,
                                        first_layer=with_dev)
        assert all(stacked.first_layer[name] is with_dev[name]
                   for name in SPACE_ORDER)
        without = {name: learn.train_single(train, y, bundle, name, one_c)
                   for name in SPACE_ORDER}
        with pytest.raises(ValidationError, match="development margins"):
            train_decision_fusion(train, dev, y, bundle, one_c,
                                  first_layer=without)

    def test_deterministic_bitwise(self, rows, bundle, fusion):
        _, train, dev, y = rows
        again = train_decision_fusion(train, dev, y, bundle)
        assert np.array_equal(again.second_layer.weights,
                              fusion.second_layer.weights)
        assert again.second_layer.platt == fusion.second_layer.platt
        for name in SPACE_ORDER:
            assert np.array_equal(again.first_layer[name].weights,
                                  fusion.first_layer[name].weights)

    def test_platt_split_falls_back_before_fitting(self, monkeypatch):
        """When the last part's training rows would be single-class, the
        calibration fits the in-sample model alone, not the parts before."""
        seed = 3
        order = np.random.default_rng(seed).permutation(6)
        dev_y = np.full(6, -1.0)
        dev_y[order[learn.PLATT_FOLDS - 1]] = 1.0  # the last part's only +1
        fitted = []

        def counting_fit(X, *args):
            fitted.append(X.n_rows)
            return train_linear(X, *args)

        monkeypatch.setattr(learn, "train_linear", counting_fit)
        learn._platt_from_cv(toy_matrix(*np.linspace(0.5, 3.0, 6)), dev_y,
                             "META", LOSS_HINGE, 1.0, seed)
        assert fitted == [6]

    def test_zero_second_layer_ties_to_dense(self, rows, bundle, fusion):
        flat = LinearModel(weights=np.zeros(3), bias=0.0, space_name="META",
                           loss=LOSS_HINGE, l2_c=1.0, platt=(1.0, 0.0))
        tied = FusionModel(first_layer=dict(fusion.first_layer),
                           second_layer=flat)
        z = tied.score(bundle, rows[2][:1])
        assert z.tolist() == [0.0]
        assert tied.proba_from_margins(z).tolist() == [0.5]
        assert margin_label(0.0) == CONTENT_DENSE

    def test_second_layer_dim_checked(self, fusion):
        bad = LinearModel(weights=np.zeros(2), bias=0.0, space_name="META",
                          loss=LOSS_HINGE, l2_c=1.0)
        with pytest.raises(ValidationError):
            FusionModel(first_layer=dict(fusion.first_layer), second_layer=bad)


class TestLeadClassifier:
    def test_mode_model_mismatch(self, rows, bundle):
        _, train, dev, y = rows
        fusion = train_decision_fusion(train, dev, y, bundle)
        linear = train_feature_fusion(train, y, bundle,
                                      TrainConfig(c_grid=(1.0,)))
        with pytest.raises(ValidationError):
            LeadClassifier(mode=MODE_DECISION_FUSION, bundle=bundle,
                           model=linear)
        with pytest.raises(ValidationError):
            LeadClassifier(mode=MODE_FEATURE_FUSION, bundle=bundle,
                           model=fusion)
        with pytest.raises(ValidationError):
            LeadClassifier(mode="bogus", bundle=bundle, model=linear)

    def test_single_space_mode(self, corpus, rows, bundle):
        train, dev, labels = corpus
        model = train_linear(bundle.matrix(rows[1], [SPACE_MI]),
                             label_to_y([labels[l.id] for l in train]),
                             SPACE_MI, LOSS_LOGISTIC, c=1.0)
        clf = LeadClassifier(mode=MODE_MI, bundle=bundle, model=model)
        for lead in dev[:6]:
            [m] = model.margins(bundle.matrix(bundle.table.rows([lead]),
                                              [SPACE_MI])).tolist()
            assert clf.margins([lead]).tolist() == [m]
            assert clf.predict_label(lead) == margin_label(m)


def random_model(rng, mode, bundle):
    def linear(space, loss=LOSS_LOGISTIC, platt=None):
        return LinearModel(weights=rng.normal(size=space.dim),
                           bias=float(rng.normal()), space_name=space.name,
                           loss=loss, l2_c=1.0, platt=platt)

    if mode == MODE_FEATURE_FUSION:
        return linear(FeatureSpace(bundle.combined_name, {
            k: k for k in range(sum(s.dim for s in bundle.active_spaces()))}))
    if mode != MODE_DECISION_FUSION:
        return linear(bundle.space(MODE_SPACES[mode][0]))
    return FusionModel(
        first_layer={name: linear(bundle.space(name)) for name in SPACE_ORDER},
        second_layer=linear(FeatureSpace("META", {k: k for k in range(3)}),
                            LOSS_HINGE, tuple(rng.normal(size=2).tolist())))


class TestBatchScoring:
    @settings(max_examples=40, deadline=None)
    @given(corpora(), st.integers(0, 2 ** 32 - 1))
    def test_batch_matches_per_lead_wrappers(self, corpus, seed):
        leads, _, bundle = corpus
        rng = np.random.default_rng(seed)
        for mode in MODES:
            model = random_model(rng, mode, bundle)
            clf = LeadClassifier(mode=mode, bundle=bundle, model=model)
            z = clf.margins(leads)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(learn, "SCORE_BLOCK", 2)
                assert clf.margins(leads).tolist() == z.tolist()
            assert z.tolist() == [clf.margins([l])[0] for l in leads]
            assert clf.probabilities(leads).tolist() == [
                clf.predict_proba(l) for l in leads]
            assert [margin_label(m) for m in z.tolist()] == [
                clf.predict_label(l) for l in leads]
            if mode == MODE_DECISION_FUSION:
                first = model.first_layer
                probs = [[first[name].proba_from_margins(first[name].margins(
                              lead_matrix(bundle, [l], [name])))[0]
                          for name in SPACE_ORDER] for l in leads]
                assert z.tolist() == [model.second_layer.margins(pack_csr(
                    np.zeros(3, dtype=np.int64), np.arange(3), np.array(p),
                    1, 3))[0] for p in probs]
                continue
            names = MODE_SPACES[mode]
            assert z.tolist() == [
                model.margins(lead_matrix(bundle, [l], names))[0]
                for l in leads]


class TestSerialization:
    def test_feature_fusion_round_trip(self, corpus, rows, bundle, tmp_path):
        _, dev, _ = corpus
        model = train_feature_fusion(rows[1], rows[3], bundle,
                                     TrainConfig(c_grid=(1.0,)))
        clf = LeadClassifier(mode=MODE_FEATURE_FUSION, bundle=bundle,
                             model=model)
        path = tmp_path / "model.json"
        save_classifier(clf, path)
        loaded = load_classifier(path)
        assert loaded.mode == MODE_FEATURE_FUSION
        assert np.array_equal(loaded.model.weights, model.weights)
        assert loaded.model.bias == model.bias
        for lead in dev:
            assert loaded.predict_proba(lead) == clf.predict_proba(lead)
            assert loaded.predict_label(lead) == clf.predict_label(lead)

    def test_decision_fusion_round_trip(self, corpus, rows, bundle, tmp_path):
        train, dev, _ = corpus
        fusion = train_decision_fusion(rows[1], rows[2], rows[3], bundle)
        clf = LeadClassifier(mode=MODE_DECISION_FUSION, bundle=bundle,
                             model=fusion)
        path = tmp_path / "fusion.json"
        save_classifier(clf, path)
        loaded = load_classifier(path)
        assert loaded.model.second_layer.platt == fusion.second_layer.platt
        for lead in train[:10] + dev[:10]:
            assert loaded.predict_proba(lead) == clf.predict_proba(lead)
            assert loaded.predict_label(lead) == clf.predict_label(lead)

    def test_rejects_foreign_record(self):
        with pytest.raises(ValidationError):
            classifier_from_record({"format": "something-else", "version": 1})
