"""Acceptance gate: eleven checks, one per release criterion, run in order.

conftest.py prints one PASS/FAIL line per criterion in the terminal
summary of every run, titled from the CRITERIA table below. Oracles here
are written independently of the library code: brute-force loops, exact
Fraction arithmetic, numpy reference implementations, and finite
differences.
"""

import math
import os
import subprocess
import sys
import tempfile
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

import contentdense
from contentdense.combine import (
    SummaryPair,
    binomial_superiority_check,
    save_pairs,
    sweep_cutoffs,
)
from contentdense.corpus import AnnotatedLead, Sentence, WordPosTuple, parse_ptb_tree
from contentdense.errors import NumericError
from contentdense.evaluation import (
    confidence_stratified_accuracy,
    cross_validate,
    learning_curve,
    make_folds,
    pearson_correlation,
    percent_agreement_and_kappa,
    strata_from_predictions,
)
from contentdense.features import extract_production_rules
from contentdense.kernels import build_csr, objective_and_grad
from contentdense.labeling import (
    CONTENT_DENSE,
    NON_CONTENT_DENSE,
    content_density_score,
)
from contentdense.learn import (
    MODE_DECISION_FUSION,
    MODE_FEATURE_FUSION,
    MODES,
    TrainConfig,
)
from contentdense.synthetic import generate_corpus
from test_features import select_mi


CRITERIA = {
    1: "overlap score equals brute-force membership count",
    2: "MI values within 1e-12 of probability tables, exact ranking",
    3: "rule multisets match reference traversal, no lexical leaves",
    4: "analytic gradients match central differences at h=1e-5",
    5: "decision fusion beats every single feature by >= 3 points",
    6: "accuracy rises >= 5 points to n=2000 then plateaus",
    7: "fold roles disjoint and exhaustive, test folds fixed",
    8: "Pearson/agreement/kappa within 1e-12 of brute force",
    9: "top-10%-confidence accuracy >= overall, ties exact",
    10: "cutoff sweep monotone, perfect cutoff exists, exact tail",
    11: "every CLI subcommand byte-identical across reruns",
}


class gate:
    """Context manager labeling a criterion's body; the checklist line
    itself is printed by the conftest terminal-summary hook."""

    def __init__(self, n, title):
        assert CRITERIA[n] == title
        self.n = n
        self.title = title

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            print(f"FAIL criterion {self.n}: {self.title}")
        return False


def make_doc(id, words, domain="general"):
    tokens = tuple(words)
    sent = Sentence(tokens=tokens, pos=tuple("NN" for _ in tokens))
    return AnnotatedLead(id=id, domain=domain, lead_text=" ".join(tokens),
                         sentences=(sent,), article_word_count=1000)


def test_criterion_01_density_score_oracle():
    with gate(1, "overlap score equals brute-force membership count"):
        rng = np.random.default_rng(11)
        words = [f"w{k}" for k in range(12)]
        tags = ["NN", "VB", "JJ", "RB"]
        start = time.perf_counter()
        for _ in range(200):
            n_sum = int(rng.integers(1, 31))
            n_lead = int(rng.integers(0, 41))
            summary = [WordPosTuple(words[rng.integers(len(words))],
                                    tags[rng.integers(len(tags))])
                       for _ in range(n_sum)]
            lead = [WordPosTuple(words[rng.integers(len(words))],
                                 tags[rng.integers(len(tags))])
                    for _ in range(n_lead)]
            got = content_density_score(summary, lead)
            hits = 0
            for t in summary:
                for u in lead:
                    if t.word == u.word and t.pos == u.pos:
                        hits += 1
                        break
            assert got == hits / n_sum
        assert time.perf_counter() - start < 1.0


def mi_tail_oracle(docs, min_count, top_k):
    """Probability-table reference with exact Fraction ratio ordering."""
    n = len(docs)
    df = Counter()
    nwc = Counter()
    nc = Counter()
    for words, label in docs:
        nc[label] += 1
        for w in set(words):
            df[w] += 1
            nwc[(w, label)] += 1
    out = {}
    for label in (CONTENT_DENSE, NON_CONTENT_DENSE):
        ranked = []
        for w, n_w in df.items():
            if n_w < min_count or nwc[(w, label)] == 0:
                continue
            p_wc = Fraction(nwc[(w, label)], n)
            ratio = p_wc / (Fraction(n_w, n) * Fraction(nc[label], n))
            ranked.append((ratio, w))
        ranked.sort(key=lambda t: (-t[0], t[1]))
        out[label] = [(w, math.log(ratio)) for ratio, w in ranked[:top_k]]
    return out


def test_criterion_02_mi_oracle():
    with gate(2, "MI values within 1e-12 of probability tables, exact ranking"):
        rng = np.random.default_rng(29)
        vocab = [f"w{k:02d}" for k in range(16)]
        start = time.perf_counter()
        trials = 0
        while trials < 40:
            n = int(rng.integers(6, 51))
            docs = []
            for d in range(n):
                pick = {vocab[rng.integers(len(vocab))]
                        for _ in range(rng.integers(2, 9))}
                label = CONTENT_DENSE if rng.random() < 0.5 else NON_CONTENT_DENSE
                docs.append((sorted(pick), label))
            if len({label for _, label in docs}) < 2:
                continue
            trials += 1
            min_count = int(rng.integers(1, 6))
            top_k = int(rng.integers(1, 14))
            leads = [make_doc(f"d{k}", ws) for k, (ws, _) in enumerate(docs)]
            labels = {f"d{k}": lab for k, (_, lab) in enumerate(docs)}
            _, entries = select_mi(leads, labels, min_count, top_k)
            expected = mi_tail_oracle(docs, min_count, top_k)
            for label in (CONTENT_DENSE, NON_CONTENT_DENSE):
                got = [(e.word, e.mi) for e in entries if e.label == label]
                assert [w for w, _ in got] == [w for w, _ in expected[label]]
                for (w, mi), (_, mi_exp) in zip(got, expected[label]):
                    assert abs(mi - mi_exp) <= 1e-12, (w, mi, mi_exp)
        assert time.perf_counter() - start < 5.0


def random_tree_struct(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return ("T%d" % rng.integers(6), "w%d" % rng.integers(9))
    n = int(rng.integers(1, 4))
    return ("N%d" % rng.integers(5),
            [random_tree_struct(rng, depth - 1) for _ in range(n)])


def struct_to_bracketed(struct):
    label, rest = struct
    if isinstance(rest, str):
        return f"({label} {rest})"
    return f"({label} {' '.join(struct_to_bracketed(c) for c in rest)})"


def struct_rules(struct):
    label, rest = struct
    if isinstance(rest, str):
        return Counter()
    rules = Counter({(label, tuple(c[0] for c in rest)): 1})
    for child in rest:
        rules.update(struct_rules(child))
    return rules


def test_criterion_03_production_rules():
    with gate(3, "rule multisets match reference traversal, no lexical leaves"):
        rng = np.random.default_rng(37)
        labels = {f"N{k}" for k in range(5)} | {f"T{k}" for k in range(6)}
        for _ in range(100):
            struct = random_tree_struct(rng, depth=6)
            tree = parse_ptb_tree(struct_to_bracketed(struct))
            got = extract_production_rules(tree)
            assert Counter({(r.lhs, r.rhs): c for r, c in got.items()}) == \
                struct_rules(struct)
            for rule in got:
                assert rule.lhs in labels
                assert all(sym in labels for sym in rule.rhs)
        clause = ("(VP (VB push) (NP (DT the) (JJ Czech) (NN currency)) "
                  "(PRT (RP up)) (ADVP (RB sharply)))")
        rendered = {f"{r.lhs} -> {' '.join(r.rhs)}"
                    for r in extract_production_rules(parse_ptb_tree(clause))}
        assert "VP -> VB NP PRT ADVP" in rendered


def test_criterion_04_gradient_check():
    with gate(4, "analytic gradients match central differences at h=1e-5"):
        rng = np.random.default_rng(41)
        h = 1e-5

        class Vec:
            def __init__(self, entries):
                self.entries = entries

        for _ in range(20):
            n_rows = int(rng.integers(4, 25))
            n_cols = int(rng.integers(3, 9))
            vectors = []
            for _ in range(n_rows):
                nnz = int(rng.integers(1, n_cols + 1))
                cols = rng.choice(n_cols, size=nnz, replace=False)
                vectors.append(Vec({int(j): float(rng.uniform(0.05, 2.0))
                                    for j in cols}))
            X = build_csr(vectors, n_cols)
            y = np.where(rng.random(n_rows) < 0.5, -1.0, 1.0)
            w = rng.normal(0.0, 0.8, size=n_cols)
            b = float(rng.normal())
            c = float(rng.uniform(0.1, 4.0))
            for loss in ("logistic", "hinge"):
                _, grad_w, grad_b, _ = objective_and_grad(w, b, X, y, c, loss)
                num_w = np.empty_like(w)
                for j in range(n_cols):
                    wp, wm = w.copy(), w.copy()
                    wp[j] += h
                    wm[j] -= h
                    fp, _, _, _ = objective_and_grad(wp, b, X, y, c, loss)
                    fm, _, _, _ = objective_and_grad(wm, b, X, y, c, loss)
                    num_w[j] = (fp - fm) / (2 * h)
                fp, _, _, _ = objective_and_grad(w, b + h, X, y, c, loss)
                fm, _, _, _ = objective_and_grad(w, b - h, X, y, c, loss)
                num_b = (fp - fm) / (2 * h)
                assert float(np.max(np.abs(grad_w - num_w))) <= 1e-5
                assert abs(grad_b - num_b) <= 1e-5


def test_criterion_05_decision_fusion_gain():
    with gate(5, "decision fusion beats every single feature by >= 3 points"):
        start = time.perf_counter()
        config = TrainConfig(c_grid=(1.0,))
        modes = ["mrc", "mi", "pr", MODE_DECISION_FUSION]
        sums = {m: 0.0 for m in modes}
        for seed in range(5):
            corpus = generate_corpus(2000, "standard", seed=seed)
            results = cross_validate(
                list(corpus.leads), corpus.true_labels, modes,
                lexicon=corpus.lexicon_words, k=10, seed=seed,
                config=config, top_k=20)
            for m in modes:
                sums[m] += results[m].overall_accuracy
        avg = {m: sums[m] / 5 for m in modes}
        fusion = avg[MODE_DECISION_FUSION]
        for single in ("mrc", "mi", "pr"):
            # the corpus plants ~70% per-channel accuracy by design
            assert 0.60 <= avg[single] <= 0.80, (single, avg[single])
            assert fusion >= avg[single] + 0.03, (single, avg[single], fusion)
        assert time.perf_counter() - start < 120.0


def test_criterion_06_learning_curve():
    with gate(6, "accuracy rises >= 5 points to n=2000 then plateaus"):
        config = TrainConfig(c_grid=(16.0,))
        sizes = [100, 2000, 6500]
        sums = {s: 0.0 for s in sizes}
        for seed in range(100, 105):
            corpus = generate_corpus(7300, "standard", seed=seed)
            points = learning_curve(
                list(corpus.leads), corpus.true_labels, MODE_FEATURE_FUSION,
                lexicon=corpus.lexicon_words, sizes=sizes, k=10, seed=seed,
                fold_subset=[0, 1, 2], config=config, top_k=20)
            assert [p.n_train for p in points] == sizes
            for p in points:
                sums[p.n_train] += p.mean_accuracy
        avg = {s: sums[s] / 5 for s in sizes}
        assert avg[2000] >= avg[100] + 0.05, avg
        assert avg[6500] - avg[2000] <= 0.02, avg


def test_criterion_07_fold_protocol():
    with gate(7, "fold roles disjoint and exhaustive, test folds fixed"):
        rng = np.random.default_rng(53)
        for _ in range(50):
            n = int(rng.integers(20, 201))
            ids = [f"id{k:04d}" for k in range(n)]
            plan = make_folds(ids, k=10, seed=int(rng.integers(10_000)))
            all_ids = [i for fold in plan.folds for i in fold]
            assert sorted(all_ids) == sorted(ids)
            assert len(set(all_ids)) == len(all_ids)
            for t in range(10):
                test, first, second = plan.roles(t)
                assert test == t
                assert len(first) == 5 and len(second) == 4
                parts = {test} | set(first) | set(second)
                assert parts == set(range(10))
                assert len(first) + len(second) + 1 == 10
        # the same test fold serves every mode within one plan
        corpus = generate_corpus(100, "standard", seed=7)
        results = cross_validate(
            list(corpus.leads), corpus.true_labels, list(MODES),
            lexicon=corpus.lexicon_words, k=10, seed=7,
            config=TrainConfig(c_grid=(1.0,)), top_k=20,
            fold_subset=[0, 1])
        plan = make_folds([l.id for l in corpus.leads], k=10, seed=7)
        for t in (0, 1):
            expected = set(plan.folds[t])
            for mode in MODES:
                got = {p.lead_id for p in results[mode].predictions
                       if p.fold == t}
                assert got == expected, (mode, t)


def test_criterion_08_metric_oracles():
    with gate(8, "Pearson/agreement/kappa within 1e-12 of brute force"):
        rng = np.random.default_rng(61)
        done = 0
        while done < 100:
            n = int(rng.integers(2, 61))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            r = pearson_correlation(x, y)
            assert abs(r - float(np.corrcoef(x, y)[0, 1])) <= 1e-12

            bias_a, bias_b = rng.random(), rng.random()
            a = [CONTENT_DENSE if rng.random() < bias_a else NON_CONTENT_DENSE
                 for _ in range(n)]
            b = [CONTENT_DENSE if rng.random() < bias_b else NON_CONTENT_DENSE
                 for _ in range(n)]
            ca, cb = Counter(a), Counter(b)
            p_o = sum(u == v for u, v in zip(a, b)) / n
            p_e = sum(ca[k] / n * cb.get(k, 0) / n for k in ca)
            if p_e == 1.0:
                with np.testing.assert_raises(NumericError):
                    percent_agreement_and_kappa(a, b)
                continue
            agreement, kappa = percent_agreement_and_kappa(a, b)
            assert abs(agreement - p_o) <= 1e-12
            assert abs(kappa - (p_o - p_e) / (1.0 - p_e)) <= 1e-12
            assert kappa <= agreement + 1e-15
            done += 1


def test_criterion_09_confidence_stratification():
    with gate(9, "top-10%-confidence accuracy >= overall, ties exact"):
        config = TrainConfig(c_grid=(16.0,))
        for seed in range(3):
            corpus = generate_corpus(1000, "standard", seed=seed)
            result = cross_validate(
                list(corpus.leads), corpus.true_labels, MODE_FEATURE_FUSION,
                lexicon=corpus.lexicon_words, k=10, seed=seed,
                config=config, top_k=20)
            top10, overall = strata_from_predictions(result.predictions,
                                                     percentiles=(10, 100))
            assert top10.accuracy >= overall.accuracy, seed
        # all probabilities at 0.5: one confidence class, exact equality
        rng = np.random.default_rng(71)
        labels = [CONTENT_DENSE if rng.random() < 0.6 else NON_CONTENT_DENSE
                  for _ in range(80)]
        top10, overall = confidence_stratified_accuracy(
            [0.5] * 80, labels, percentiles=(10, 100))
        assert top10.n_used == overall.n_used == 80
        assert top10.accuracy == overall.accuracy


class StubScorer:
    def __init__(self, probs):
        self.probs = probs

    def probabilities(self, leads):
        return [self.probs[lead.id] for lead in leads]


def binomial_tail_oracle(successes, n, p0):
    """Exact-summation tail probability in integer arithmetic."""
    a, den = p0.as_integer_ratio()
    b = den - a
    total = 0
    for k in range(successes, n + 1):
        total += math.comb(n, k) * a ** k * b ** (n - k)
    return float(Fraction(total, den ** n))


def test_criterion_10_combination_structure():
    with gate(10, "cutoff sweep monotone, perfect cutoff exists, exact tail"):
        rng = np.random.default_rng(83)
        prefs = ("system", "lead", "tie")
        for trial in range(20):
            n_pairs = int(rng.integers(5, 41))
            pairs = []
            probs = {}
            for j in range(n_pairs):
                lead_sum = make_doc(f"p{j}l", [f"la{j}", f"lb{j}"])
                sys_sum = make_doc(f"p{j}s", [f"sa{j}", f"sb{j}"])
                probs[lead_sum.id] = float(rng.random())
                probs[sys_sum.id] = float(rng.random())
                pairs.append(SummaryPair(
                    article_id=f"art{j}", lead_summary=lead_sum,
                    system_summary=sys_sum,
                    human_preference=prefs[int(rng.integers(3))]))
            cutoffs = sorted(float(c) for c in rng.uniform(-1, 1, size=9))
            rows = sweep_cutoffs(pairs, StubScorer(probs), cutoffs)
            chosen = [row.n_system_chosen for row in rows]
            assert chosen == sorted(chosen, reverse=True)

        # differences perfectly encode the preference: +-0.3 around cutoff 0
        pairs, probs = [], {}
        for j in range(30):
            lead_sum = make_doc(f"q{j}l", [f"qa{j}"])
            sys_sum = make_doc(f"q{j}s", [f"qb{j}"])
            pref = prefs[j % 3]
            diff = 0.3 if pref == "system" else -0.3
            probs[lead_sum.id] = 0.5
            probs[sys_sum.id] = 0.5 + diff
            pairs.append(SummaryPair(
                article_id=f"qart{j}", lead_summary=lead_sum,
                system_summary=sys_sum, human_preference=pref))
        rows = sweep_cutoffs(pairs, StubScorer(probs),
                             [-0.5, -0.1, 0.0, 0.1, 0.5])
        assert max(row.pct_correct for row in rows) == 100.0

        for successes in list(range(0, 324, 10)) + [207, 323]:
            got = binomial_superiority_check(successes, 323, 0.585)
            assert abs(got - binomial_tail_oracle(successes, 323, 0.585)) \
                <= 1e-10, successes


def run_cli(args, hash_seed, cwd):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    # the child runs the same copy of contentdense this process imported:
    # a relative PYTHONPATH entry would not resolve from `cwd`
    package_root = str(Path(contentdense.__file__).resolve().parent.parent)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (package_root + os.pathsep + inherited
                         if inherited else package_root)
    proc = subprocess.run([sys.executable, "-m", "contentdense", *args],
                          capture_output=True, text=True, env=env, cwd=cwd)
    assert proc.returncode == 0, (args, proc.stderr)


def assert_same_tree(dir_a, dir_b):
    names_a = sorted(p.name for p in Path(dir_a).iterdir())
    names_b = sorted(p.name for p in Path(dir_b).iterdir())
    assert names_a == names_b and names_a
    for name in names_a:
        assert (Path(dir_a) / name).read_bytes() == \
            (Path(dir_b) / name).read_bytes(), name


def test_criterion_11_cli_determinism():
    with gate(11, "every CLI subcommand byte-identical across reruns"):
        with tempfile.TemporaryDirectory() as root:
            root = Path(root)
            # different hash seeds so set/dict iteration orders differ
            # between the paired processes
            for side, hs in (("a", "1"), ("b", "2")):
                run_cli(["generate", "--n", "120", "--profile", "standard",
                         "--seed", "3", "--out", str(root / side / "gen")],
                        hs, root)
            assert_same_tree(root / "a" / "gen", root / "b" / "gen")

            corpus = str(root / "a" / "gen" / "corpus.jsonl")
            lexicon = str(root / "a" / "gen" / "lexicon.txt")
            gold = str(root / "a" / "gen" / "labels.tsv")

            for side, hs in (("a", "1"), ("b", "2")):
                run_cli(["label", "--corpus", corpus,
                         "--out", str(root / side / "lab")], hs, root)
            assert_same_tree(root / "a" / "lab", root / "b" / "lab")

            for side, hs in (("a", "1"), ("b", "2")):
                run_cli(["train", "--corpus", corpus, "--lexicon", lexicon,
                         "--mode", "decision-fusion", "--seed", "0",
                         "--out", str(root / side / "train")], hs, root)
            assert_same_tree(root / "a" / "train", root / "b" / "train")

            model = str(root / "a" / "train" / "model.json")
            for side, hs in (("a", "1"), ("b", "2")):
                run_cli(["predict", "--corpus", corpus, "--model", model,
                         "--out", str(root / side / "pred")], hs, root)
            assert_same_tree(root / "a" / "pred", root / "b" / "pred")

            for side, hs in (("a", "1"), ("b", "2")):
                run_cli(["evaluate", "--corpus", corpus, "--lexicon", lexicon,
                         "--labels", gold, "--mode", "mrc",
                         "--c-grid", "16", "--seed", "0",
                         "--out", str(root / side / "rep")], hs, root)
            assert_same_tree(root / "a" / "rep", root / "b" / "rep")

            small = generate_corpus(40, "standard", seed=19)
            prefs = ("system", "lead", "tie")
            pairs = []
            for j in range(20):
                pairs.append(SummaryPair(
                    article_id=f"art{j}",
                    lead_summary=small.leads[2 * j],
                    system_summary=small.leads[2 * j + 1],
                    human_preference=prefs[j % 3]))
            pairs_path = root / "pairs.jsonl"
            save_pairs(pairs, pairs_path)
            for side, hs in (("a", "1"), ("b", "2")):
                run_cli(["combine", "--pairs", str(pairs_path),
                         "--model", model,
                         "--out", str(root / side / "comb")], hs, root)
            assert_same_tree(root / "a" / "comb", root / "b" / "comb")
