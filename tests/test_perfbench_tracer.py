"""perfbench's tracer replaces package functions where their callers look
them up (``_targets``). A site that no longer exists only fails inside a
traced benchmark run, and a fit or a score that stops calling a traced
name only zeroes a metric, so this checks every site against the package,
that a fit still passes through the solver and objective sites, that
training and scoring a decision-fusion classifier pass through the
training, calibration and margin sites, and that every parse a load or
the generator makes passes through the parse sites."""

import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np

from contentdense import corpus, synthetic
from contentdense.corpus import (
    AnnotatedLead,
    Sentence,
    load_corpus,
    parse_ptb_tree,
    save_corpus,
)
from contentdense.evaluation import train_modes
from contentdense.features import FeatureTable
from contentdense.kernels import LOSS_LOGISTIC, pack_csr
from contentdense.learn import (
    MODE_DECISION_FUSION,
    TrainConfig,
    label_to_y,
    label_vector,
    train_linear,
)
from contentdense.synthetic import generate_corpus
from test_learn import MRC_LEXICON, make_corpus

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_exists_and_installs():
    tracer = load_tracer()
    sites = tracer._targets()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in sites if attr not in owner.__dict__]
    assert not missing, f"perfbench traces names that are gone: {missing}"
    for _, _, span in sites:
        assert span in tracer.SELF_TIME_METRIC
    originals = [owner.__dict__[attr] for owner, attr, _ in sites]
    run = tracer.Tracer("guard")
    run.install()
    try:
        for (owner, attr, _), original in zip(sites, originals):
            assert owner.__dict__[attr].__wrapped__ is original
    finally:
        run.uninstall()
    assert [owner.__dict__[attr] for owner, attr, _ in sites] == originals


def test_a_fit_reaches_the_solver_and_objective_sites():
    tracer = load_tracer()
    X = pack_csr(np.array([0, 0, 1, 2, 2, 3]), np.array([0, 1, 1, 0, 2, 2]),
                 np.array([1.0, 2.0, -1.0, 0.5, 1.5, -2.0]), 4, 3)
    labels = ["content_dense", "non_content_dense", "content_dense",
              "non_content_dense"]
    run = tracer.Tracer("guard")
    run.install()
    try:
        train_linear(X, label_to_y(labels), "MRC", LOSS_LOGISTIC, 1.0)
    finally:
        run.uninstall()
    metrics = run.metrics(wall_s=0.0)
    assert metrics["optimize.fits"] == 1
    assert metrics["kernels.objective_calls"] > 0
    assert metrics["optimize.iterations"] > 0


def test_decision_fusion_reaches_the_train_platt_and_margin_sites():
    tracer = load_tracer()
    leads, labels = make_corpus(60, seed=7)
    train, dev, test = leads[:30], leads[30:50], leads[50:]
    run = tracer.Tracer("guard")
    run.install()
    try:
        table = FeatureTable(leads)
        clf = train_modes([MODE_DECISION_FUSION], table.rows(train),
                          table.rows(dev), label_vector(table, labels),
                          MRC_LEXICON, table,
                          TrainConfig(c_grid=(1.0,)))[MODE_DECISION_FUSION]
        n_trained = len(run.spans)
        clf.margins(test)
    finally:
        run.uninstall()
    spans = Counter(run.names[nid] for nid, _, _, _ in run.spans[:n_trained])
    assert spans["learn.train"] > 0
    assert spans["optimize.platt"] == 1
    scored = Counter(run.names[nid] for nid, _, _, _ in run.spans[n_trained:])
    assert scored["kernels.margins"] == 4  # three first-layer models, one second


def test_every_parse_reaches_the_parse_sites(tmp_path, monkeypatch):
    # Count the parses that really run, under the tracer's wrappers: the
    # generator reuses one parse per template, so only the load parses.
    real_calls = []

    def counted(bracketed):
        real_calls.append(bracketed)
        return parse_ptb_tree(bracketed)

    for module in (corpus, synthetic):
        monkeypatch.setattr(module, "parse_ptb_tree", counted)
    tracer = load_tracer()
    unparsed = AnnotatedLead(
        id="plain", domain="general", lead_text="Dogs ran.",
        sentences=(Sentence(tokens=("Dogs", "ran"), pos=("NNS", "VBD")),),
        article_word_count=2)
    path = tmp_path / "corpus.jsonl"
    run = tracer.Tracer("guard")
    run.install()
    try:
        generated = list(generate_corpus(20, seed=7).leads)
        save_corpus(generated + [unparsed], path)
        loaded = load_corpus(path)
    finally:
        run.uninstall()
    assert all(s.parse is not None
               for lead in generated for s in lead.sentences)
    assert len(real_calls) == sum(
        s.parse is not None for lead in loaded for s in lead.sentences) == 40
    assert run.metrics(wall_s=0.0)["corpus.parse_calls"] == len(real_calls)
