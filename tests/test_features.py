import math
import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contentdense.corpus import AnnotatedLead, Sentence, parse_ptb_tree
from contentdense.errors import (
    EmptyLeadError,
    MissingParseError,
    SingleClassError,
    ValidationError,
)
from contentdense.features import (
    SPACE_MI,
    SPACE_MRC,
    SPACE_ORDER,
    SPACE_PR,
    FeatureBundle,
    FeatureSpace,
    FeatureTable,
    MiEntry,
    ProductionRule,
    extract_production_rules,
    lead_rules,
    mrc_space,
    pr_space,
    select_mi_vocabulary,
    space_from_lines,
    space_to_lines,
)
from contentdense.labeling import CONTENT_DENSE, NON_CONTENT_DENSE, score_leads
from contentdense.learn import label_vector
from contentdense.synthetic import generate_corpus


def parsed_sentence(text):
    """A sentence of the bracketed parse's words, each tagged XX."""
    words = tuple(re.findall(r"\([^\s()]+ ([^\s()]+)\)", text))
    return Sentence(tokens=words, pos=("XX",) * len(words),
                    parse=parse_ptb_tree(text))


def make_doc(id, words, label=None, parse=None, domain="general"):
    if parse:
        sent = parsed_sentence(parse)
    else:
        sent = Sentence(tokens=tuple(words), pos=tuple("NN" for _ in words))
    return AnnotatedLead(id=id, domain=domain, lead_text=" ".join(sent.tokens),
                         sentences=(sent,), article_word_count=1000)


def lead_matrix(bundle, leads, names):
    """``bundle.matrix`` of the leads, taken from a table over them."""
    return replace(bundle, table=FeatureTable(leads)).matrix(
        np.arange(len(leads)), names)


def select_mi(leads, labels, *args, table=None, **kwargs):
    """select_mi_vocabulary on the leads' rows of ``table`` (a table over
    the leads when None), each row's class read from ``labels``."""
    table = FeatureTable(leads) if table is None else table
    return select_mi_vocabulary(table.rows(leads), label_vector(table, labels),
                                *args, table=table, **kwargs)


def pr_space_of(leads, table=None):
    """pr_space on the leads' rows of ``table`` (a table over the leads
    when None)."""
    table = FeatureTable(leads) if table is None else table
    return pr_space(table.rows(leads), table)


def row_entries(bundle, lead, name):
    """The lead's one-row ``bundle.matrix`` over space ``name``, as a
    column -> value dict."""
    X = lead_matrix(bundle, [lead], [name])
    return dict(zip(X.indices.tolist(), X.data.tolist()))


def mrc_row(lead, lexicon):
    return row_entries(FeatureBundle(mrc=mrc_space(lexicon)), lead, SPACE_MRC)


def mi_row(lead, space):
    return row_entries(FeatureBundle(mi=space), lead, SPACE_MI)


def pr_row(lead, space, value="count"):
    return row_entries(FeatureBundle(pr=space, pr_value=value), lead, SPACE_PR)


class TestMrcFeatures:
    def test_rate_with_repeats(self):
        lead = make_doc("a", ["cat", "dog", "cat", "sun", "sky",
                              "run", "hop", "sit", "lie", "fly"])
        entries = mrc_row(lead, {"cat", "tree"})
        space = mrc_space({"cat", "tree"})
        assert entries == {space.index_of["cat"]: pytest.approx(0.2)}

    def test_disjoint_lexicon_empty_vector(self):
        lead = make_doc("a", ["cat", "dog"])
        assert mrc_row(lead, {"moon"}) == {}

    def test_single_token_identity(self):
        lead = make_doc("a", ["a"])
        assert mrc_row(lead, {"a"}) == {0: 1.0}

    def test_empty_lead(self):
        lead = AnnotatedLead(id="e", domain="general", lead_text="",
                             sentences=(), article_word_count=0)
        with pytest.raises(EmptyLeadError):
            mrc_row(lead, {"a"})

    def test_values_in_unit_interval_and_sum_bounded(self):
        rng = np.random.default_rng(3)
        vocab = [f"w{k}" for k in range(20)]
        lexicon = set(vocab[:8])
        for _ in range(50):
            words = [vocab[rng.integers(20)] for _ in range(rng.integers(1, 40))]
            entries = mrc_row(make_doc("x", words), lexicon)
            for v in entries.values():
                assert 0.0 < v <= 1.0
            assert sum(entries.values()) <= 1.0 + 1e-12

    def test_lexicon_case_folded(self):
        lead = make_doc("a", ["Cat", "cat"])
        assert mrc_row(lead, {"CAT"}) == {0: 1.0}


def mi_oracle(docs, min_count, top_k):
    """Exact-fraction reference: probability tables with Fraction arithmetic."""
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
            p_w = Fraction(n_w, n)
            p_c = Fraction(nc[label], n)
            ratio = p_wc / (p_w * p_c)
            ranked.append((ratio, w))
        ranked.sort(key=lambda t: (-t[0], t[1]))
        out[label] = [(w, float(ratio), math.log(ratio))
                      for ratio, w in ranked[:top_k]]
    return out


class TestSelectMiVocabulary:
    def docs_to_leads(self, docs):
        leads = [make_doc(f"d{k}", words) for k, (words, _) in enumerate(docs)]
        labels = {f"d{k}": label for k, (_, label) in enumerate(docs)}
        return leads, labels

    def test_everywhere_word_has_zero_mi(self):
        docs = [(["ubiq", f"u{k}"], CONTENT_DENSE) for k in range(5)]
        docs += [(["ubiq", f"v{k}"], NON_CONTENT_DENSE) for k in range(5)]
        leads, labels = self.docs_to_leads(docs)
        _, entries = select_mi(leads, labels, min_count=5, top_k=500)
        for e in entries:
            if e.word == "ubiq":
                assert e.mi == 0.0

    def test_perfect_class_word(self):
        # 10 docs, 5 per class; "signal" in all 5 content_dense docs.
        docs = [(["signal", f"u{k}"], CONTENT_DENSE) for k in range(5)]
        docs += [([f"v{k}", "other"], NON_CONTENT_DENSE) for k in range(5)]
        leads, labels = self.docs_to_leads(docs)
        _, entries = select_mi(leads, labels, min_count=5, top_k=500)
        got = {(e.word, e.label): e.mi for e in entries}
        assert got[("signal", CONTENT_DENSE)] == pytest.approx(math.log(2), abs=1e-15)
        assert ("signal", NON_CONTENT_DENSE) not in got

    def test_uneven_class_sizes(self):
        # 10 docs, 4 in content_dense; word in 5 docs, 3 of them content_dense.
        docs = []
        for k in range(4):
            words = ["w"] if k < 3 else ["z"]
            docs.append((words + [f"u{k}"], CONTENT_DENSE))
        for k in range(6):
            words = ["w"] if k < 2 else ["z"]
            docs.append((words + [f"v{k}"], NON_CONTENT_DENSE))
        leads, labels = self.docs_to_leads(docs)
        _, entries = select_mi(leads, labels, min_count=5, top_k=500)
        got = {(e.word, e.label): e.mi for e in entries}
        assert got[("w", CONTENT_DENSE)] == pytest.approx(math.log(1.5), abs=1e-15)

    def test_min_count_filters(self):
        docs = [(["rare", f"u{k}"], CONTENT_DENSE) for k in range(4)]
        docs += [([f"v{k}"], NON_CONTENT_DENSE) for k in range(4)]
        leads, labels = self.docs_to_leads(docs)
        space, entries = select_mi(leads, labels, min_count=5, top_k=500)
        assert "rare" not in space.index_of
        assert all(e.word != "rare" for e in entries)

    def test_lexicographic_tie_at_boundary(self):
        # "beta" and "alpha" have identical counts; with top_k=1 the
        # lexicographically smaller word must win the last slot.
        docs = [(["alpha", "beta", f"u{k}"], CONTENT_DENSE) for k in range(5)]
        docs += [([f"v{k}"], NON_CONTENT_DENSE) for k in range(5)]
        leads, labels = self.docs_to_leads(docs)
        _, entries = select_mi(leads, labels, min_count=5, top_k=1)
        dense = [e for e in entries if e.label == CONTENT_DENSE]
        assert [e.word for e in dense] == ["alpha"]

    def test_single_class_error(self):
        docs = [(["a", f"u{k}"], CONTENT_DENSE) for k in range(6)]
        leads, labels = self.docs_to_leads(docs)
        with pytest.raises(SingleClassError):
            select_mi(leads, labels)

    def test_unlabeled_lead_error(self):
        docs = [(["a"], CONTENT_DENSE), (["b"], NON_CONTENT_DENSE)]
        leads, labels = self.docs_to_leads(docs)
        del labels["d0"]
        with pytest.raises(ValidationError):
            select_mi(leads, labels, min_count=1, top_k=5)

    def test_matches_fraction_oracle_on_random_corpora(self):
        rng = np.random.default_rng(17)
        vocab = [f"w{k:02d}" for k in range(18)]
        for trial in range(25):
            n = int(rng.integers(10, 51))
            docs = []
            for d in range(n):
                words = list({vocab[rng.integers(18)]
                              for _ in range(rng.integers(2, 9))})
                label = CONTENT_DENSE if rng.random() < 0.5 else NON_CONTENT_DENSE
                docs.append((words, label))
            if len({label for _, label in docs}) < 2:
                continue
            min_count = int(rng.integers(1, 5))
            top_k = int(rng.integers(1, 12))
            leads, labels = self.docs_to_leads(docs)
            _, entries = select_mi(leads, labels, min_count, top_k)
            expected = mi_oracle(docs, min_count, top_k)
            for label in (CONTENT_DENSE, NON_CONTENT_DENSE):
                got = [(e.word, e.mi) for e in entries if e.label == label]
                assert [w for w, _ in got] == [w for w, _, _ in expected[label]]
                for (w, mi), (_, _, mi_exp) in zip(got, expected[label]):
                    assert abs(mi - mi_exp) <= 1e-12, (w, mi, mi_exp)


def oracle_select_mi_vocabulary(leads, labels, min_count=5, top_k=500):
    """The dict-loop selection the package used before its table-based
    one: the reference for spaces, entries, ranks and MI bits."""
    if min_count < 1 or top_k < 1:
        raise ValidationError("min_count and top_k must be at least 1")
    n_docs = len(leads)
    class_counts = Counter()
    df = Counter()
    present = {}
    for lead in leads:
        label = labels.get(lead.id)
        if label is None:
            raise ValidationError(f"lead {lead.id} has no label")
        if label not in (CONTENT_DENSE, NON_CONTENT_DENSE):
            raise ValidationError(f"lead {lead.id}: unknown label {label!r}")
        class_counts[label] += 1
        for w in set(lead.words):
            df[w] += 1
            key = (w, label)
            present[key] = present.get(key, 0) + 1
    if len(class_counts) < 2:
        raise SingleClassError(
            f"training data covers only {list(class_counts) or 'no'} labels")
    entries = []
    selected_words = set()
    for label in (CONTENT_DENSE, NON_CONTENT_DENSE):
        n_c = class_counts[label]
        ranked = []
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
    space = FeatureSpace("MI", {w: k for k, w in enumerate(sorted(selected_words))})
    return space, entries


def oracle_pr_space(leads):
    """The per-lead rule walk the package used before its table-based one."""
    seen = set()
    for lead in leads:
        seen.update(lead_rules(lead))
    ordered = sorted(seen, key=lambda r: (r.lhs, r.rhs))
    return FeatureSpace("PR", {r: k for k, r in enumerate(ordered)})


def outcome(select, *args, **kwargs):
    """A selection's result, or its error's type and message."""
    try:
        return select(*args, **kwargs)
    except Exception as e:
        return type(e), str(e)


MI_WORDS = ("ant", "bee", "cat", "dog", "eel")


@st.composite
def mi_cases(draw):
    """(table leads, training leads, labels, min_count, top_k).

    Every lead also holds a word of its own and "ant" always comes with
    "ant_", so rankings tie; min_count is some word's document count, and
    top_k often ends inside a run of equal MI values. Training leads are a
    sample (repeats allowed) of the table's leads.
    """
    docs = draw(st.lists(st.tuples(st.lists(st.sampled_from(MI_WORDS)),
                                   st.sampled_from((CONTENT_DENSE,
                                                    NON_CONTENT_DENSE))),
                         min_size=1, max_size=20))
    leads = [make_doc(f"d{k}", words + ["ant_"] * ("ant" in words) + [f"own{k}"])
             for k, (words, _) in enumerate(docs)]
    labels = {lead.id: label for lead, (_, label) in zip(leads, docs)}
    picks = draw(st.lists(st.integers(0, len(leads) - 1), min_size=1))
    train = [leads[k] for k in picks]
    df = Counter(w for lead in train for w in set(lead.words))
    min_count = draw(st.sampled_from(sorted(set(df.values()))))
    top_k = draw(st.integers(1, 12))
    _, full = outcome(oracle_select_mi_vocabulary, train, labels, min_count,
                      10 ** 6)
    if isinstance(full, list):
        ranks = [e.mi for e in full if e.label == CONTENT_DENSE]
        tied = [k + 1 for k in range(len(ranks) - 1) if ranks[k] == ranks[k + 1]]
        if tied and draw(st.booleans()):
            top_k = draw(st.sampled_from(tied))
    return leads, train, labels, min_count, top_k


class TestMiFeatures:
    def make_space(self, words):
        return FeatureSpace("MI", {w: k for k, w in enumerate(sorted(words))})

    def test_binary_presence(self):
        space = self.make_space(["cat", "dog", "sun", "sky"])
        lead = make_doc("a", ["cat", "cat", "sun", "mat"])
        assert mi_row(lead, space) == {space.index_of["cat"]: 1.0,
                                       space.index_of["sun"]: 1.0}

    def test_repeats_still_one(self):
        space = self.make_space(["cat"])
        lead = make_doc("a", ["cat"] * 5)
        assert mi_row(lead, space) == {0: 1.0}

    def test_no_selected_words(self):
        space = self.make_space(["moon"])
        lead = make_doc("a", ["cat"])
        assert mi_row(lead, space) == {}

    def test_space_name_checked(self):
        space = FeatureSpace("MRC", {"cat": 0})
        with pytest.raises(ValidationError):
            mi_row(make_doc("a", ["cat"]), space)


def rules_oracle(struct):
    """Reference traversal over the nested-tuple ground truth structure."""
    label, rest = struct
    if isinstance(rest, str):
        return Counter()
    rules = Counter({(label, tuple(c[0] for c in rest)): 1})
    for child in rest:
        rules.update(rules_oracle(child))
    return rules


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


class TestProductionRules:
    def test_three_rule_tree(self):
        tree = parse_ptb_tree("(S (NP (DT the) (NN cat)) (VP (VBD sat)))")
        rules = extract_production_rules(tree)
        assert rules == Counter({
            ProductionRule("S", ("NP", "VP")): 1,
            ProductionRule("NP", ("DT", "NN")): 1,
            ProductionRule("VP", ("VBD",)): 1,
        })

    def test_single_preterminal_empty(self):
        assert extract_production_rules(parse_ptb_tree("(NN cat)")) == Counter()

    def test_flat_verb_phrase_clause(self):
        clause = ("(VP (VB push) (NP (DT the) (NNP Czech) (NN currency)) "
                  "(PRT (RP up)) (ADVP (RB sharply)))")
        rules = extract_production_rules(parse_ptb_tree(clause))
        assert rules[ProductionRule("VP", ("VB", "NP", "PRT", "ADVP"))] == 1
        assert rules[ProductionRule("NP", ("DT", "NNP", "NN"))] == 1
        assert rules[ProductionRule("PRT", ("RP",))] == 1
        assert rules[ProductionRule("ADVP", ("RB",))] == 1

    def test_matches_reference_traversal(self):
        rng = np.random.default_rng(23)
        surface_words = {f"w{k}" for k in range(9)}
        for _ in range(150):
            struct = random_tree_struct(rng, depth=5)
            tree = parse_ptb_tree(struct_to_bracketed(struct))
            got = extract_production_rules(tree)
            expected = rules_oracle(struct)
            assert Counter({(r.lhs, r.rhs): c for r, c in got.items()}) == expected
            for rule in got:
                assert not set(rule.rhs) & surface_words
                assert rule.lhs not in surface_words


class TestPrFeatures:
    two_sentence_lead = None

    def make_lead_with_parses(self, parses, id="p1"):
        return AnnotatedLead(id=id, domain="general", lead_text="x",
                             sentences=tuple(map(parsed_sentence, parses)),
                             article_word_count=999)

    def test_count_across_sentences(self):
        lead = self.make_lead_with_parses([
            "(S (NP (NN cats)) (VP (VBD sat)))",
            "(S (NP (NN dogs)) (VP (VBD ran)))",
        ])
        space = pr_space_of([lead])
        idx = space.index_of[ProductionRule("S", ("NP", "VP"))]
        assert pr_row(lead, space)[idx] == 2.0

    def test_binary_mode(self):
        lead = self.make_lead_with_parses([
            "(S (NP (NN cats)) (VP (VBD sat)))",
            "(S (NP (NN dogs)) (VP (VBD ran)))",
        ])
        space = pr_space_of([lead])
        assert set(pr_row(lead, space, value="binary").values()) == {1.0}

    def test_unseen_rules_ignored(self):
        train = self.make_lead_with_parses(["(S (NP (NN cats)) (VP (VBD sat)))"], "t")
        other = self.make_lead_with_parses(["(FRAG (ADVP (RB no)))"], "o")
        space = pr_space_of([train])
        assert pr_row(other, space) == {}

    def test_missing_parse_errors(self):
        no_parse = AnnotatedLead(
            id="m", domain="general", lead_text="x",
            sentences=(Sentence(tokens=("x",), pos=("NN",)),),
            article_word_count=10)
        space = pr_space_of([self.make_lead_with_parses(["(S (NP (NN x)) (VP (VBD y)))"])])
        with pytest.raises(MissingParseError):
            pr_row(no_parse, space)
        empty = AnnotatedLead(id="m2", domain="general", lead_text="",
                              sentences=(), article_word_count=0)
        with pytest.raises(MissingParseError):
            pr_row(empty, space)


class TestCheckPrecedence:
    """Which lead a failing matrix or PR space names, and with which
    exception, when several leads lack tokens or parses. Leads are checked
    in list order; for each lead the token check comes first."""

    parsed = make_doc("ok", ["cats", "sat"],
                      parse="(S (NP (NN cats)) (VP (VBD sat)))")
    # No sentences: neither tokens nor parses.
    empty = AnnotatedLead(id="e", domain="general", lead_text="",
                          sentences=(), article_word_count=0)
    # Tokens, but its second sentence has no parse.
    unparsed = AnnotatedLead(
        id="u", domain="general", lead_text="x y",
        sentences=(parsed.sentences[0], Sentence(tokens=("y",), pos=("NN",))),
        article_word_count=10)
    pr = pr_space_of([parsed])
    mrc = mrc_space(["cats"])
    lists = {"empty_first": [parsed, empty, unparsed],
             "unparsed_first": [parsed, unparsed, empty],
             "empty_only": [empty]}
    no_tokens = (EmptyLeadError, "lead e has no tokens")
    no_sentences = (MissingParseError, "lead e has no sentences")
    no_parse = (MissingParseError, "lead u: sentence 1 has no parse")

    def raised(self, call):
        with pytest.raises((EmptyLeadError, MissingParseError)) as info:
            call()
        return info.type, str(info.value)

    def tables(self, leads):
        return (FeatureTable(leads),
                FeatureTable([self.unparsed, self.empty, self.parsed]))

    @pytest.mark.parametrize("names,case,expected", [
        ((SPACE_MRC,), "empty_first", no_tokens),
        ((SPACE_MRC,), "unparsed_first", no_tokens),
        ((SPACE_MRC,), "empty_only", no_tokens),
        ((SPACE_PR,), "empty_first", no_sentences),
        ((SPACE_PR,), "unparsed_first", no_parse),
        ((SPACE_PR,), "empty_only", no_sentences),
        ((SPACE_MRC, SPACE_PR), "empty_first", no_tokens),
        ((SPACE_MRC, SPACE_PR), "unparsed_first", no_parse),
        ((SPACE_MRC, SPACE_PR), "empty_only", no_tokens),
    ])
    def test_matrix(self, names, case, expected):
        leads = self.lists[case]
        for table in self.tables(leads):
            bundle = FeatureBundle(mrc=self.mrc, pr=self.pr, table=table)
            assert self.raised(lambda: bundle.matrix(table.rows(leads),
                                                     names)) == expected

    @pytest.mark.parametrize("case,expected", [
        ("empty_first", no_sentences),
        ("unparsed_first", no_parse),
        ("empty_only", no_sentences),
    ])
    def test_pr_space(self, case, expected):
        leads = self.lists[case]
        for table in self.tables(leads):
            assert self.raised(lambda: pr_space_of(leads, table)) == expected


def space_of(name, n):
    keys = [f"{name.lower()}{k}" for k in range(n)]
    if name == "PR":
        return FeatureSpace(name, {ProductionRule("X", (k,)): i
                                   for i, k in enumerate(keys)})
    return FeatureSpace(name, {k: i for i, k in enumerate(keys)})


VOCAB = ("alpha", "Alpha", "beta", "gamma", "delta")
TREE_STRUCTS = st.recursive(
    st.tuples(st.sampled_from(("NN", "VB")), st.sampled_from(VOCAB)),
    lambda kids: st.tuples(st.sampled_from(("S", "NP", "VP")),
                           st.lists(kids, min_size=1, max_size=3)),
    max_leaves=6)


def lead_of_structs(id, structs):
    sentences = tuple(parsed_sentence(struct_to_bracketed(struct))
                      for struct in structs)
    return AnnotatedLead(id=id, domain="general", lead_text="x",
                         sentences=sentences, article_word_count=1000)


@st.composite
def corpora(draw):
    """(leads, each lead's tree structs, bundle) over a tiny vocabulary.

    Spaces are random subsets, so some leads hit no key of a space; tokens
    repeat, and case differs between tokens and lexicon entries.
    """
    structs = draw(st.lists(st.lists(TREE_STRUCTS, min_size=1, max_size=2),
                            min_size=1, max_size=6))
    leads = [lead_of_structs(f"l{k}", s) for k, s in enumerate(structs)]
    mi_words = sorted(set(draw(st.lists(
        st.sampled_from(("alpha", "beta", "gamma", "zeta"))))))
    bundle = FeatureBundle(
        mrc=mrc_space(draw(st.lists(st.sampled_from(VOCAB + ("zeta",)),
                                    min_size=1))),
        mi=FeatureSpace("MI", {w: k for k, w in enumerate(mi_words)}),
        pr=pr_space_of(draw(st.lists(st.sampled_from(leads), max_size=3))),
        pr_value=draw(st.sampled_from(("count", "binary"))))
    return leads, structs, bundle


def dense_oracle(leads, structs, bundle, name):
    """Feature matrix by brute force over tokens and reference rule counts."""
    space = bundle.space(name)
    out = np.zeros((len(leads), space.dim))
    for r, (lead, lead_structs) in enumerate(zip(leads, structs)):
        words = [t.lower() for s in lead.sentences for t in s.tokens]
        rules = Counter()
        for struct in lead_structs:
            rules.update(rules_oracle(struct))
        for key, idx in space.index_of.items():
            if name == "MRC" and key in words:
                out[r, idx] = words.count(key) / len(words)
            elif name == "MI" and key in words:
                out[r, idx] = 1.0
            elif name == "PR" and rules[(key.lhs, key.rhs)]:
                count = rules[(key.lhs, key.rhs)]
                out[r, idx] = 1.0 if bundle.pr_value == "binary" else count
    return out


class TestMatrixOracle:
    @settings(max_examples=60, deadline=None)
    @given(corpora())
    def test_matrix_equals_dense_oracle(self, corpus):
        leads, structs, bundle = corpus
        dense = {name: dense_oracle(leads, structs, bundle, name)
                 for name in SPACE_ORDER}
        cases = [([name], dense[name]) for name in SPACE_ORDER]
        cases.append((list(SPACE_ORDER),
                      np.hstack([dense[name] for name in SPACE_ORDER])))
        for names, expected in cases:
            X = lead_matrix(bundle, leads, names)
            assert (X.n_rows, X.n_cols) == expected.shape
            got = np.zeros(expected.shape)
            for r in range(X.n_rows):
                row = slice(X.indptr[r], X.indptr[r + 1])
                assert np.all(np.diff(X.indices[row]) > 0)
                got[r, X.indices[row]] = X.data[row]
            assert len(X.data) == np.count_nonzero(expected)
            assert np.array_equal(got, expected)


def bundle_of(*spaces):
    return FeatureBundle(**{s.name.lower(): s for s in spaces})


class TestConcat:
    def test_offset_arithmetic(self):
        spaces = [space_of("MRC", 5), space_of("MI", 7), space_of("PR", 9)]
        pr_key = spaces[2].key_at[2]
        lead = make_doc("a", [], parse="(S (X (pr2 w)) (X (pr2 w)) (X (pr2 w)))")
        bundle = bundle_of(*spaces)
        assert bundle.extract_combined(lead).entries == {14: 3.0}
        X = lead_matrix(bundle, [lead], SPACE_ORDER)
        assert (X.indices.tolist(), X.data.tolist(), X.n_cols) == ([14], [3.0], 21)
        assert X.indices[0] == 5 + 7 + spaces[2].index_of[pr_key] == 14

    def test_empty_vectors(self):
        spaces = [space_of("MRC", 5), space_of("MI", 7), space_of("PR", 9)]
        lead = make_doc("a", [], parse="(S (NP (NN cat)))")
        bundle = bundle_of(*spaces)
        assert bundle.extract_combined(lead).entries == {}
        X = lead_matrix(bundle, [lead, lead], SPACE_ORDER)
        assert X.indptr.tolist() == [0, 0, 0] and X.n_cols == 21
        assert sum(s.dim for s in bundle.active_spaces()) == 21

    def test_single_vector_identity(self):
        bundle = bundle_of(space_of("MI", 4))
        lead = make_doc("a", ["mi3", "mi1", "mi3", "other"])
        combined = bundle.extract_combined(lead)
        assert combined.entries == bundle.extract_single(lead, "MI").entries
        assert combined.entries == {1: 1.0, 3: 1.0}

    def test_duplicate_space_rejected(self):
        bundle = bundle_of(space_of("MI", 4))
        with pytest.raises(ValidationError):
            lead_matrix(bundle, [make_doc("a", ["mi0"])], ["MI", "MI"])

    def test_canonical_reorder(self):
        bundle = bundle_of(space_of("PR", 2), space_of("MRC", 3))
        lead = make_doc("a", [], parse="(S (X (pr0 mrc1)))")
        combined = bundle.extract_combined(lead)
        assert combined.space_name == "MRC+PR"
        assert combined.entries == {1: 1.0, 3: 1.0}
        X = lead_matrix(bundle, [lead], ["PR", "MRC"])
        assert (X.indices.tolist(), X.data.tolist(), X.n_cols) == ([1, 3], [1.0, 1.0], 5)

    def test_combined_index_injective(self):
        spaces = [space_of("MRC", 11), space_of("MI", 13), space_of("PR", 7)]
        words = [f"mrc{k}" for k in range(11)] + [f"mi{k}" for k in range(13)]
        lead = make_doc("a", [], parse="(S {})".format(" ".join(
            f"(X (pr{k % 7} {w}))" for k, w in enumerate(words))))
        combined = lead_matrix(bundle_of(*spaces), [lead], SPACE_ORDER)
        assert sorted(combined.indices.tolist()) == list(range(31))


class TestSpaceSerialization:
    def test_word_space_round_trip(self):
        space = space_of("MI", 6)
        again = space_from_lines(space_to_lines(space))
        assert again == space

    def test_rule_space_round_trip(self):
        space = FeatureSpace("PR", {
            ProductionRule("S", ("NP", "VP")): 0,
            ProductionRule("VP", ("VB", "NP", "PRT", "ADVP")): 1,
        })
        again = space_from_lines(space_to_lines(space))
        assert again == space

    def test_composite_rejected(self):
        spaces = [space_of("MRC", 2), space_of("MI", 2)]
        with pytest.raises(ValidationError):
            space_to_lines(FeatureSpace(bundle_of(*spaces).combined_name,
                                        {k: k for k in range(4)}))


class TestTableSelectionMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(mi_cases())
    def test_mi_vocabulary(self, case):
        leads, train, labels, min_count, top_k = case
        expected = outcome(oracle_select_mi_vocabulary, train, labels,
                           min_count, top_k)
        for table in (FeatureTable(train), FeatureTable(leads)):
            got = outcome(select_mi, train, labels, min_count, top_k,
                          table=table)
            assert got == expected
            if isinstance(got[1], list):
                assert ([e.mi.hex() for e in got[1]]
                        == [e.mi.hex() for e in expected[1]])

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.lists(TREE_STRUCTS, max_size=2), min_size=1, max_size=6),
           st.lists(st.integers(0, 5)))
    def test_pr_space(self, structs, picks):
        leads = [lead_of_structs(f"l{k}", s) if s else
                 make_doc(f"l{k}", ["unparsed"]) for k, s in enumerate(structs)]
        train = [leads[k % len(leads)] for k in picks]
        expected = outcome(oracle_pr_space, train)
        for table in (FeatureTable(train), FeatureTable(leads)):
            assert outcome(pr_space_of, train, table) == expected


def test_counting_and_scoring_stash_nothing_on_the_leads():
    """A lead's folded words and (word, POS) tuples are made for the one
    pass that reads them, not kept on the lead."""
    leads = list(generate_corpus(30, seed=7).leads)
    table = FeatureTable(leads)
    table.words, table.rules
    scores, _ = score_leads(leads)
    assert scores
    assert [key for lead in leads for key in vars(lead)
            if key in ("words", "tuples")] == []
