import json
import math
import pickle
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contentdense.corpus import (
    AnnotatedLead,
    InternTable,
    ParseTree,
    Sentence,
    WordPosTuple,
    default_lexicon_path,
    json_field,
    lead_to_record,
    load_corpus,
    load_lexicon,
    parse_ptb_tree,
    save_corpus,
)
from contentdense.errors import (
    CorpusFormatError,
    DuplicateIdError,
    ParseError,
    ValidationError,
)
from contentdense.features import ProductionRule, extract_production_rules

NONTERMINALS = ["S", "NP", "VP", "PP", "SBAR", "ADJP", "ADVP"]
PRETERMINALS = ["DT", "NN", "VBD", "JJ", "IN", "RB", "PRP"]
WORDS = ["the", "cat", "sat", "big", "on", "mat", "quietly", "dogs", "ran"]


def random_struct(rng, depth):
    """Ground-truth tree as nested plain tuples, independent of ParseTree."""
    if depth == 0 or rng.random() < 0.3:
        return (PRETERMINALS[rng.integers(len(PRETERMINALS))],
                WORDS[rng.integers(len(WORDS))])
    n_children = int(rng.integers(1, 4))
    return (NONTERMINALS[rng.integers(len(NONTERMINALS))],
            [random_struct(rng, depth - 1) for _ in range(n_children)])


def render_struct(struct, rng):
    """Serialize the ground-truth structure with random extra whitespace."""
    pad = " " * int(rng.integers(0, 3))
    label, rest = struct
    if isinstance(rest, str):
        return f"({label} {rest}){pad}"
    inner = " ".join(render_struct(c, rng) for c in rest)
    return f"({label}{pad} {inner})"


def tree_to_struct(tree):
    if tree.is_leaf:
        return (tree.label, tree.leaf_word)
    return (tree.label, [tree_to_struct(c) for c in tree.children])


class TestParsePtbTree:
    def test_three_leaf_tree(self):
        tree = parse_ptb_tree("(S (NP (DT the) (NN cat)) (VP (VBD sat)))")
        assert tree.label == "S"
        assert tree.leaf_count() == 3
        assert tree.leaves() == ["the", "cat", "sat"]

    def test_single_preterminal(self):
        tree = parse_ptb_tree("(NN cat)")
        assert tree.is_leaf
        assert tree.label == "NN"
        assert tree.leaf_word == "cat"

    def test_unbalanced_raises(self):
        with pytest.raises(ParseError):
            parse_ptb_tree("(S (NP")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_ptb_tree("")
        with pytest.raises(ParseError):
            parse_ptb_tree("   ")

    def test_error_offsets(self):
        with pytest.raises(ParseError) as err:
            parse_ptb_tree(")")
        assert err.value.offset == 0
        with pytest.raises(ParseError) as err:
            parse_ptb_tree("(S (NP")
        assert err.value.offset == len("(S (NP")
        with pytest.raises(ParseError) as err:
            parse_ptb_tree("(NN cat) x")
        assert err.value.offset == 9

    def test_offset_is_bytes_not_chars(self):
        text = "(NN café) x"
        with pytest.raises(ParseError) as err:
            parse_ptb_tree(text)
        assert err.value.offset == len(text[:10].encode("utf-8"))

    def test_bare_word_rejected(self):
        with pytest.raises(ParseError):
            parse_ptb_tree("cat")

    def test_empty_node_rejected(self):
        with pytest.raises(ParseError):
            parse_ptb_tree("(S (NP) (VP (VBD sat)))")

    def test_random_round_trip(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            struct = random_struct(rng, depth=4)
            text = render_struct(struct, rng)
            tree = parse_ptb_tree(text)
            assert tree_to_struct(tree) == struct
            again = parse_ptb_tree(tree.to_bracketed())
            assert again == tree
            assert again.to_bracketed() == tree.to_bracketed()


def _oracle_byte_offset(text, char_index):
    return len(text[:char_index].encode("utf-8"))


def _oracle_tokenize(text):
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()":
            out.append((ch, i))
            i += 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "()":
                j += 1
            out.append((text[i:j], i))
            i = j
    return out


def oracle_parse(bracketed):
    """The character-by-character, recursive-descent parser the package
    used before its single-pass one: the reference for trees, error
    messages and offsets."""
    tokens = _oracle_tokenize(bracketed)
    if not tokens:
        raise ParseError("empty parse string", offset=0)
    end = _oracle_byte_offset(bracketed, len(bracketed))

    def parse_node(pos):
        tok, at = tokens[pos]
        if tok != "(":
            raise ParseError(f"expected '(' but found {tok!r}",
                             offset=_oracle_byte_offset(bracketed, at))
        pos += 1
        if pos >= len(tokens):
            raise ParseError("unbalanced parentheses: input ends inside a node",
                             offset=end)
        label, label_at = tokens[pos]
        if label in "()":
            raise ParseError("missing node label",
                             offset=_oracle_byte_offset(bracketed, label_at))
        pos += 1
        if pos >= len(tokens):
            raise ParseError("unbalanced parentheses: input ends inside a node",
                             offset=end)
        tok, at = tokens[pos]
        if tok == "(":
            children = []
            while True:
                if pos >= len(tokens):
                    raise ParseError(
                        "unbalanced parentheses: input ends inside a node",
                        offset=end)
                tok, at = tokens[pos]
                if tok == ")":
                    return ParseTree(label, children=tuple(children)), pos + 1
                if tok != "(":
                    raise ParseError(
                        f"expected '(' or ')' but found {tok!r}",
                        offset=_oracle_byte_offset(bracketed, at))
                child, pos = parse_node(pos)
                children.append(child)
        elif tok == ")":
            raise ParseError(f"node {label!r} has no children and no word",
                             offset=_oracle_byte_offset(bracketed, at))
        pos += 1
        if pos >= len(tokens):
            raise ParseError("unbalanced parentheses: input ends inside a node",
                             offset=end)
        closer, at = tokens[pos]
        if closer != ")":
            raise ParseError(
                f"expected ')' after leaf word but found {closer!r}",
                offset=_oracle_byte_offset(bracketed, at))
        return ParseTree(label, leaf_word=tok), pos + 1

    tree, pos = parse_node(0)
    if pos != len(tokens):
        raise ParseError("trailing content after tree",
                         offset=_oracle_byte_offset(bracketed, tokens[pos][1]))
    return tree


def parse_outcome(parser, text):
    """The tree, or the message and offset of the ParseError raised."""
    try:
        return parser(text)
    except ParseError as err:
        return ("ParseError", str(err), err.offset)


# Every character str.isspace() accepts below U+3001, and look-alikes it
# does not (zero-width space, byte-order mark, NUL), which are atom text.
WHITESPACE = (" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u200a"
              "\u2028\u2029\u202f\u205f\u3000")
NOT_WHITESPACE = "\u200b\ufeff\x00"
ATOMS = st.text(st.sampled_from("aZé名-" + NOT_WHITESPACE), min_size=1,
                max_size=3)
PADDING = st.text(st.sampled_from(WHITESPACE), max_size=2)
GAPS = st.text(st.sampled_from(WHITESPACE), min_size=1, max_size=2)
STRUCTS = st.recursive(
    st.tuples(ATOMS, ATOMS),
    lambda kids: st.tuples(ATOMS, st.lists(kids, min_size=1, max_size=3)),
    max_leaves=8)
EDITS = st.lists(st.tuples(st.sampled_from(("insert", "delete", "replace")),
                           st.integers(0, 10_000),
                           st.sampled_from("()aé" + WHITESPACE[:6]
                                           + NOT_WHITESPACE)),
                 max_size=2)


@st.composite
def padded_brackets(draw):
    """A random tree rendered with random Unicode whitespace, then up to two
    one-character edits."""
    def render(struct):
        label, rest = struct
        head = f"({draw(PADDING)}{label}"
        if isinstance(rest, str):
            return f"{head}{draw(GAPS)}{rest}{draw(PADDING)})"
        return head + "".join(draw(PADDING) + render(c) for c in rest) + ")"

    text = draw(PADDING) + render(draw(STRUCTS)) + draw(PADDING)
    for kind, at, ch in draw(EDITS):
        at %= len(text) + 1
        if kind == "insert":
            text = text[:at] + ch + text[at:]
        elif kind == "delete":
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at] + ch + text[at + 1:]
    return text


def struct_tree(struct):
    label, rest = struct
    if isinstance(rest, str):
        return ParseTree(label, leaf_word=rest)
    return ParseTree(label, tuple(struct_tree(c) for c in rest))


class TestParserMatchesOracle:
    @settings(max_examples=400, deadline=None)
    @given(padded_brackets())
    def test_padded_and_corrupted_trees(self, text):
        assert parse_outcome(parse_ptb_tree, text) == parse_outcome(
            oracle_parse, text)

    @settings(max_examples=400, deadline=None)
    @given(st.text(st.sampled_from("()a名 " + WHITESPACE[1:8] + NOT_WHITESPACE),
                   max_size=24))
    def test_arbitrary_bracket_strings(self, text):
        assert parse_outcome(parse_ptb_tree, text) == parse_outcome(
            oracle_parse, text)

    def test_regex_whitespace_is_str_isspace(self):
        import re
        space = re.compile(r"\s")
        for code in range(sys.maxunicode + 1):
            ch = chr(code)
            if 0xD800 <= code <= 0xDFFF:
                continue
            assert bool(space.match(ch)) == ch.isspace(), hex(code)


class TestParseTreeNode:
    def test_equality_is_same_class_only(self):
        tree = ParseTree("NN", leaf_word="cat")
        assert tree == ParseTree("NN", (), "cat")
        assert tree != ("NN", (), "cat")
        assert ("NN", (), "cat") != tree
        assert hash(tree) == hash(ParseTree("NN", leaf_word="cat"))
        assert tree != ParseTree("NN", leaf_word="dog")

    def test_immutable(self):
        tree = parse_ptb_tree("(NP (NN cat))")
        with pytest.raises(AttributeError):
            tree.label = "VP"
        with pytest.raises(AttributeError):
            tree.extra = 1

    def test_node_checks(self):
        with pytest.raises(ValidationError, match="empty label"):
            ParseTree("", leaf_word="cat")
        with pytest.raises(ValidationError, match="neither"):
            ParseTree("NN")
        with pytest.raises(ValidationError, match="both"):
            ParseTree("NN", children=(ParseTree("DT", leaf_word="a"),),
                      leaf_word="cat")

    def test_shared_leaves_and_rules_survive_a_full_table(self, monkeypatch):
        from contentdense import corpus, features
        for module, name in ((corpus, "_LEAVES"), (features, "_RULES")):
            table = getattr(module, name)
            monkeypatch.setattr(module, name, InternTable(table.make, limit=2))
        assert parse_ptb_tree("(NN cat)") is parse_ptb_tree(" (NN cat) ")
        texts = ["(S (NP (DT the) (NN cat)) (VP (VBD sat)))",
                 "(S (NP (DT a) (NN dog)) (VP (VBD ran) (NP (NN home))))"] * 3
        for text in texts:
            tree = parse_ptb_tree(text)
            assert tree == oracle_parse(text)
            assert len(corpus._LEAVES) <= 2
            rules = extract_production_rules(tree)
            assert rules == extract_production_rules(oracle_parse(text))
            assert len(features._RULES) <= 2

    def test_pickle_round_trip(self):
        tree = parse_ptb_tree("(S (NP (DT the) (NN cat)) (VP (VBD sat)))")
        again = pickle.loads(pickle.dumps(tree))
        assert again == tree and type(again) is ParseTree


DEPTH = 5000


def deep_bracketed(depth):
    """One chain of ``depth`` nodes; every level adds a (DT a) leaf."""
    return "(X (DT a) " * (depth - 1) + "(NN w)" + ")" * (depth - 1)


class TestDeepNesting:
    def test_parse_walk_and_serialize(self):
        assert sys.getrecursionlimit() < DEPTH
        text = deep_bracketed(DEPTH)
        tree = parse_ptb_tree(text)
        assert tree.leaf_count() == DEPTH
        assert tree.leaves() == ["a"] * (DEPTH - 1) + ["w"]
        assert tree.to_bracketed() == text
        assert extract_production_rules(tree) == {
            ProductionRule("X", ("DT", "X")): DEPTH - 2,
            ProductionRule("X", ("DT", "NN")): 1,
        }
        assert parse_ptb_tree(text) == tree

    def test_repr(self):
        assert sys.getrecursionlimit() < DEPTH
        tree = parse_ptb_tree(deep_bracketed(DEPTH))
        text = repr(tree)
        assert text.startswith("ParseTree(label='X', children=(ParseTree(")
        assert text.count("ParseTree(") == 2 * DEPTH - 1
        assert text.endswith("children=(), leaf_word='w')"
                             + "), leaf_word=None)" * (DEPTH - 1))

    @settings(max_examples=200, deadline=None)
    @given(STRUCTS.map(struct_tree))
    def test_repr_matches_the_recursive_tuple_repr(self, tree):
        def recursive_repr(node):
            kids = node.children
            inner = ", ".join(recursive_repr(k) for k in kids)
            return (f"ParseTree(label={node.label!r}, children=("
                    f"{inner}{',' if len(kids) == 1 else ''}), "
                    f"leaf_word={node.leaf_word!r})")
        assert repr(tree) == recursive_repr(tree)

    def test_unbalanced_deep_input_is_a_parse_error(self):
        text = deep_bracketed(DEPTH)[:-1]
        with pytest.raises(ParseError, match="ends inside") as err:
            parse_ptb_tree(text)
        assert err.value.offset == len(text)

    def test_corpus_round_trip(self, tmp_path):
        tree = parse_ptb_tree(deep_bracketed(DEPTH))
        lead = AnnotatedLead(
            id="deep", domain="general", lead_text="a w",
            sentences=(Sentence(tokens=tuple(tree.leaves()),
                                pos=("DT",) * (DEPTH - 1) + ("NN",),
                                parse=tree),),
            article_word_count=DEPTH)
        p1, p2 = tmp_path / "c1.jsonl", tmp_path / "c2.jsonl"
        save_corpus([lead], p1)
        again = load_corpus(p1)
        assert again == [lead]
        save_corpus(again, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestSentence:
    def test_pos_length_mismatch(self):
        with pytest.raises(ValidationError):
            Sentence(tokens=("a", "b"), pos=("DT",))

    def test_parse_leaf_mismatch(self):
        tree = parse_ptb_tree("(NP (DT the) (NN cat))")
        with pytest.raises(ValidationError):
            Sentence(tokens=("the",), pos=("DT",), parse=tree)

    def test_folded_words_lowercase_surface(self):
        s = Sentence(tokens=("The", "Cats"), pos=("DT", "NNS"))
        assert s.folded_words() == ["the", "cats"]

    def test_folded_words_prefer_lemma(self):
        s = Sentence(tokens=("Cats", "ran"), pos=("NNS", "VBD"),
                     lemmas=("cat", "run"))
        assert s.folded_words() == ["cat", "run"]
        assert s.word_pos_tuples() == [WordPosTuple("cat", "NNS"),
                                       WordPosTuple("run", "VBD")]


def make_lead(id="a1", n_extra=0, summary=None, domain="general",
              article_word_count=50):
    sentences = [
        Sentence(tokens=("The", "cat", "sat"), pos=("DT", "NN", "VBD"),
                 parse=parse_ptb_tree("(S (NP (DT The) (NN cat)) (VP (VBD sat)))")),
    ]
    for k in range(n_extra):
        sentences.append(Sentence(tokens=("dogs", "ran"), pos=("NNS", "VBD")))
    return AnnotatedLead(
        id=id, domain=domain, lead_text="The cat sat.",
        sentences=tuple(sentences), summary=summary,
        article_word_count=article_word_count,
    )


class TestAnnotatedLead:
    def test_invariants(self):
        with pytest.raises(ValidationError):
            make_lead(id="")
        with pytest.raises(ValidationError):
            make_lead(domain="weather")
        with pytest.raises(ValidationError):
            make_lead(article_word_count=2)

    def test_caches(self):
        lead = make_lead(n_extra=1)
        assert lead.n_tokens == 5
        assert lead.words == ("the", "cat", "sat", "dogs", "ran")
        assert lead.word_counts["the"] == 1
        assert WordPosTuple("cat", "NN") in lead.tuple_set
        assert WordPosTuple("Cat", "NN") not in lead.tuple_set

    def test_pos_kept_verbatim(self):
        lead = make_lead()
        assert lead.tuples[0] == WordPosTuple("the", "DT")


SAMPLE_RECORDS = [
    {
        "id": "a1", "domain": "business", "lead_text": "The cat sat.",
        "sentences": [{"tokens": ["The", "cat", "sat"], "pos": ["DT", "NN", "VBD"],
                       "parse": "(S (NP (DT The) (NN cat)) (VP (VBD sat)))"}],
        "summary": [["cat", "NN"], ["sat", "VBD"]],
        "article_word_count": 120,
    },
    {
        "id": "a2", "domain": "science", "lead_text": "Dogs ran.",
        "sentences": [{"tokens": ["Dogs", "ran"], "pos": ["NNS", "VBD"],
                       "lemmas": ["dog", "run"]}],
        "article_word_count": 80,
    },
]


def write_lines(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


class TestLoadCorpus:
    def test_two_records(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, SAMPLE_RECORDS)
        leads = load_corpus(p)
        assert [l.id for l in leads] == ["a1", "a2"]
        assert leads[0].summary == (WordPosTuple("cat", "NN"),
                                    WordPosTuple("sat", "VBD"))
        assert leads[1].words == ("dog", "run")

    def test_duplicate_id(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, [SAMPLE_RECORDS[0], SAMPLE_RECORDS[0]])
        with pytest.raises(DuplicateIdError, match="line 2"):
            load_corpus(p)

    def test_malformed_json_names_line(self, tmp_path):
        p = tmp_path / "c.jsonl"
        with open(p, "w") as fh:
            fh.write(json.dumps(SAMPLE_RECORDS[0]) + "\n")
            fh.write("{not json\n")
        with pytest.raises(CorpusFormatError, match="line 2"):
            load_corpus(p)

    def test_lines_end_at_any_universal_newline(self, tmp_path):
        p = tmp_path / "c.jsonl"
        a1, a2 = (json.dumps(rec).encode() for rec in SAMPLE_RECORDS)
        p.write_bytes(a1 + b"\r" + a2 + b"\r\n\n\r")
        assert [l.id for l in load_corpus(p)] == ["a1", "a2"]
        p.write_bytes(a1 + b"\r\r\n" + a1 + b"\n")
        with open(p, encoding="utf-8") as fh:  # universal newlines
            dup_line = len(fh.readlines())
        assert dup_line == 3
        with pytest.raises(DuplicateIdError, match=f"line {dup_line}:"):
            load_corpus(p)

    def test_leaf_count_mismatch_is_validation_error(self, tmp_path):
        bad = json.loads(json.dumps(SAMPLE_RECORDS[0]))
        bad["sentences"][0]["tokens"] = ["The", "cat"]
        bad["sentences"][0]["pos"] = ["DT", "NN"]
        p = tmp_path / "c.jsonl"
        write_lines(p, [bad])
        with pytest.raises(ValidationError, match="line 1"):
            load_corpus(p)

    def test_missing_field(self, tmp_path):
        bad = {k: v for k, v in SAMPLE_RECORDS[0].items() if k != "domain"}
        p = tmp_path / "c.jsonl"
        write_lines(p, [bad])
        with pytest.raises(CorpusFormatError, match="domain"):
            load_corpus(p)

    def test_summary_words_are_lowercased(self, tmp_path):
        rec = json.loads(json.dumps(SAMPLE_RECORDS[0]))
        rec["summary"] = [["Cat", "NN"]]
        p = tmp_path / "c.jsonl"
        write_lines(p, [rec])
        lead = load_corpus(p)[0]
        assert lead.summary == (WordPosTuple("cat", "NN"),)

    def test_round_trip_bytes(self, tmp_path):
        p1 = tmp_path / "c1.jsonl"
        p2 = tmp_path / "c2.jsonl"
        write_lines(p1, SAMPLE_RECORDS)
        leads = load_corpus(p1)
        save_corpus(leads, p2)
        again = load_corpus(p2)
        assert again == leads
        p3 = tmp_path / "c3.jsonl"
        save_corpus(again, p3)
        assert p2.read_bytes() == p3.read_bytes()

    def test_record_key_order_fixed(self):
        rec = lead_to_record(make_lead(summary=(WordPosTuple("cat", "NN"),)))
        assert list(rec.keys()) == ["id", "domain", "lead_text", "sentences",
                                    "summary", "article_word_count"]


class TestJsonField:
    @pytest.mark.parametrize("value, kind, items, ok", [
        (3, int, None, True),
        (True, int, None, False),
        (3.0, int, None, False),
        (3, float, None, True),
        (-2.5, float, None, True),
        (False, float, None, False),
        (math.nan, float, None, False),
        (-math.inf, float, None, False),
        (10**400, float, None, False),
        ("3", float, None, False),
        (None, str, None, False),
        ([], list, str, True),
        (["a", None], list, str, False),
        ("ab", list, str, False),
        ([1, 2.5], list, float, True),
        ([1, math.nan], list, float, False),
        ([1, True], list, float, False),
        ([["w", "NN"], ["x", "VB"]], list, (str, str), True),
        ([["w", "NN"], ["x"]], list, (str, str), False),
        ([["w", "NN", "x"]], list, (str, str), False),
        ([[5, "CD"]], list, (str, str), False),
        ([("w", "NN")], list, (str, str), False),
        ({"a": 1}, dict, None, True),
        ([{}], list, dict, True),
    ])
    def test_kinds(self, value, kind, items, ok):
        rec = {"f": value}
        if ok:
            assert json_field(rec, "f", kind, items) is value
        else:
            with pytest.raises(CorpusFormatError,
                               match="^field 'f' of record must be a JSON "):
                json_field(rec, "f", kind, items)

    def test_names_the_first_bad_entry(self):
        with pytest.raises(CorpusFormatError, match=(
                r"^field 'w' of layer 2 must be a JSON array of numbers, "
                r"not NaN at entry 1$")):
            json_field({"w": [0, math.nan, "x"]}, "w", list, float,
                       where="layer 2")

    def test_missing_optional_and_non_objects(self):
        assert json_field({}, "f", str, optional=True) is None
        assert json_field({"f": None}, "f", str, optional=True) is None
        with pytest.raises(CorpusFormatError,
                           match="^sentence 2 missing field 'f'$"):
            json_field({"g": 1}, "f", str, where="sentence 2")
        with pytest.raises(CorpusFormatError,
                           match="^sentence 2 is not a JSON object$"):
            json_field(["f"], "f", str, optional=True, where="sentence 2")


def test_load_lexicon(tmp_path):
    p = tmp_path / "lex.txt"
    p.write_text("# common concrete nouns\nCat\n\ndog\nmat\n")
    assert load_lexicon(p) == frozenset({"cat", "dog", "mat"})


def test_bundled_lexicon_loads():
    words = load_lexicon(default_lexicon_path())
    assert len(words) >= 200
    assert all(w == w.lower() for w in words)
    assert "granite" in words and "copper" in words
