import gc
import json
import math
import pickle
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contentdense.combine import PREF_SYSTEM, SummaryPair, load_pairs, save_pairs
from contentdense.corpus import (
    AnnotatedLead,
    InternTable,
    Parse,
    ProductionRule,
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
from contentdense.features import extract_production_rules
from contentdense.synthetic import generate_corpus

NONTERMINALS = ["S", "NP", "VP", "PP", "SBAR", "ADJP", "ADVP"]
PRETERMINALS = ["DT", "NN", "VBD", "JJ", "IN", "RB", "PRP"]
WORDS = ["the", "cat", "sat", "big", "on", "mat", "quietly", "dogs", "ran"]


def random_struct(rng, depth):
    """Ground-truth tree as nested plain tuples, independent of the parser."""
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


def struct_summary(struct):
    """(canonical text, leaf count, rules in preorder) of a ground-truth
    tree, a (label, word) leaf or a (label, [children]) node."""
    label, rest = struct
    if isinstance(rest, str):
        return f"({label} {rest})", 1, ()
    texts, n_leaves, rules = [], 0, [(label, tuple(c[0] for c in rest))]
    for child in rest:
        text, n, child_rules = struct_summary(child)
        texts.append(text)
        n_leaves += n
        rules += child_rules
    return f"({label} {' '.join(texts)})", n_leaves, tuple(rules)


class TestParsePtbTree:
    def test_three_leaf_tree(self):
        parse = parse_ptb_tree("(S (NP (DT the) (NN cat)) (VP (VBD sat)))")
        assert parse.text == "(S (NP (DT the) (NN cat)) (VP (VBD sat)))"
        assert parse.n_leaves == 3
        assert parse.rules == (ProductionRule("S", ("NP", "VP")),
                               ProductionRule("NP", ("DT", "NN")),
                               ProductionRule("VP", ("VBD",)))

    def test_single_preterminal(self):
        assert parse_ptb_tree("(NN cat)") == Parse("(NN cat)", 1, ())

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

    # (input, message, the input before the fault): one case per message,
    # each with a multibyte character (名 or U+3000) before the fault.
    @pytest.mark.parametrize("text, message, before", [
        ("\u3000", "empty parse string", ""),
        ("\u3000名 (NN x)", "expected '(' but found '名'", "\u3000"),
        ("(S (NN 名) ( (VB x)))", "missing node label", "(S (NN 名) ( "),
        ("(S (NN 名) (VP))", "node 'VP' has no children and no word",
         "(S (NN 名) (VP"),
        ("(S (NN 名) (VB x y))", "expected ')' after leaf word but found 'y'",
         "(S (NN 名) (VB x "),
        ("(S (NN 名) (VB x (NN y)))",
         "expected ')' after leaf word but found '('", "(S (NN 名) (VB x "),
        ("(S (NN 名) x)", "expected '(' or ')' but found 'x'", "(S (NN 名) "),
        ("(NN 名) x", "trailing content after tree", "(NN 名) "),
        ("(S (NN 名)", "unbalanced parentheses: input ends inside a node",
         "(S (NN 名)"),
    ], ids=["empty", "no-open", "no-label", "no-children", "leaf-word",
            "leaf-open", "child", "trailing", "unbalanced"])
    def test_every_message_and_byte_offset(self, text, message, before):
        assert text.startswith(before)
        offset = len(before.encode("utf-8"))
        with pytest.raises(ParseError) as err:
            parse_ptb_tree(text)
        assert str(err.value) == f"{message} (at offset {offset})"
        assert err.value.offset == offset

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
            parse = parse_ptb_tree(text)
            assert parse == struct_summary(struct)
            assert parse_ptb_tree(parse.text) == parse


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
    messages and offsets. A tree is (label, word) at a leaf and (label,
    [children]) elsewhere."""
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
                    return (label, children), pos + 1
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
        return (label, tok), pos + 1

    tree, pos = parse_node(0)
    if pos != len(tokens):
        raise ParseError("trailing content after tree",
                         offset=_oracle_byte_offset(bracketed, tokens[pos][1]))
    return tree


def parse_outcome(parser, text):
    """The parse's (canonical text, leaf count, rules in preorder), or the
    message and offset of the ParseError raised."""
    try:
        parse = parser(text)
    except ParseError as err:
        return ("ParseError", str(err), err.offset)
    return tuple(parse) if type(parse) is Parse else struct_summary(parse)


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
    def test_immutable(self):
        parse = parse_ptb_tree("(NP (NN cat))")
        with pytest.raises(AttributeError):
            parse.text = "(VP (VB sit))"
        with pytest.raises(AttributeError):
            parse.extra = 1

    def test_shared_leaves_and_rules_survive_a_full_table(self, monkeypatch):
        from contentdense import corpus
        for name in ("_TAGS", "_RULES"):
            table = getattr(corpus, name)
            monkeypatch.setattr(corpus, name, InternTable(table.make, limit=2))
        assert (parse_ptb_tree("(NP (NN cat))").rules[0]
                is parse_ptb_tree(" (NP (NN dog)) ").rules[0])
        texts = ["(S (NP (DT the) (NN cat)) (VP (VBD sat)))",
                 "(S (NP (DT a) (NN dog)) (VP (VBD ran) (NP (NN home))))"] * 3
        for text in texts:
            parse = parse_ptb_tree(text)
            assert tuple(parse) == struct_summary(oracle_parse(text))
            assert len(corpus._TAGS) <= 2 and len(corpus._RULES) <= 2

    def test_pickle_round_trip(self):
        parse = parse_ptb_tree("(S (NP (DT the) (NN cat)) (VP (VBD sat)))")
        again = pickle.loads(pickle.dumps(parse))
        assert again == parse and type(again) is Parse
        assert {type(rule) for rule in again.rules} == {ProductionRule}


DEPTH = 5000


def deep_bracketed(depth):
    """One chain of ``depth`` nodes; every level adds a (DT a) leaf."""
    return "(X (DT a) " * (depth - 1) + "(NN w)" + ")" * (depth - 1)


class TestDeepNesting:
    def test_parse_walk_and_serialize(self):
        assert sys.getrecursionlimit() < DEPTH
        text = deep_bracketed(DEPTH)
        parse = parse_ptb_tree(text)
        assert parse.n_leaves == DEPTH
        assert parse.text == text
        assert extract_production_rules(parse) == {
            ProductionRule("X", ("DT", "X")): DEPTH - 2,
            ProductionRule("X", ("DT", "NN")): 1,
        }
        assert parse_ptb_tree(text) == parse

    def test_unbalanced_deep_input_is_a_parse_error(self):
        text = deep_bracketed(DEPTH)[:-1]
        with pytest.raises(ParseError, match="ends inside") as err:
            parse_ptb_tree(text)
        assert err.value.offset == len(text)

    def test_corpus_round_trip(self, tmp_path):
        parse = parse_ptb_tree(deep_bracketed(DEPTH))
        lead = AnnotatedLead(
            id="deep", domain="general", lead_text="a w",
            sentences=(Sentence(tokens=("a",) * (DEPTH - 1) + ("w",),
                                pos=("DT",) * (DEPTH - 1) + ("NN",),
                                parse=parse),),
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
        parse = parse_ptb_tree("(NP (DT the) (NN cat))")
        with pytest.raises(ValidationError):
            Sentence(tokens=("the",), pos=("DT",), parse=parse)

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
        with pytest.raises(ValidationError, match="above 2\\*\\*63 - 1"):
            make_lead(article_word_count=2 ** 63)
        assert make_lead(article_word_count=2 ** 63 - 1)  # int64's largest

    def test_caches(self):
        lead = make_lead(n_extra=1)
        assert lead.n_tokens == 5
        assert lead.words == ("the", "cat", "sat", "dogs", "ran")
        assert WordPosTuple("cat", "NN") in lead.tuples
        assert WordPosTuple("Cat", "NN") not in lead.tuples

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

    def test_article_word_count_beyond_int64(self, tmp_path):
        """A count numpy cannot hold as int64 would make the table's
        lengths an object array."""
        big = dict(SAMPLE_RECORDS[1], article_word_count=10 ** 20)
        p = tmp_path / "c.jsonl"
        write_lines(p, [SAMPLE_RECORDS[0], big])
        with pytest.raises(ValidationError) as err:
            load_corpus(p)
        assert str(err.value) == (f"{p}: line 2: lead a2: article_word_count "
                                  f"{10 ** 20} above 2**63 - 1")
        write_lines(p, [{"article_id": "x", "lead_summary": big,
                         "system_summary": SAMPLE_RECORDS[0],
                         "human_preference": PREF_SYSTEM}])
        with pytest.raises(ValidationError) as err:
            load_pairs(p)
        assert str(err.value).startswith(
            f"{p}: line 1: lead_summary: lead a2: article_word_count")

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


SHARED_TABLES = ("_WORDS", "_TAGS", "_FOLDED", "_PAIRS", "_RULES")


def fresh_tables(monkeypatch, limit=1 << 16):
    """Replace every corpus intern table with an empty one."""
    from contentdense import corpus
    for name in SHARED_TABLES:
        make = getattr(corpus, name).make
        monkeypatch.setattr(corpus, name, InternTable(make, limit=limit))


def decoded_values(leads):
    """The leads' words (tokens, lemmas and folded words), POS tags, node
    labels and domains, production rules, and (word, POS) tuples (summary
    and cached lead tuples)."""
    words, tags, labels, rules, pairs = [], [], [], [], []
    for lead in leads:
        labels.append(lead.domain)
        words += lead.words
        pairs += lead.tuples + (lead.summary or ())
        for s in lead.sentences:
            words += s.tokens + (s.lemmas or ())
            tags += s.pos
            for rule in () if s.parse is None else s.parse.rules:
                rules.append(rule)
                labels += (rule.lhs, *rule.rhs)
    return words, tags, labels, rules, pairs


# fault -> (edit of a record's second sentence, error type, message after
# the record's place, ParseError offset)
SENTENCE_FAULTS = {
    "parse": (lambda s: s.update(parse="(S (NN y)"), ParseError,
              "sentence 1: unbalanced parentheses: input ends inside a node "
              "(at offset 9)", 9),
    "leaf-count": (lambda s: s.update(parse="(NN x)"), ValidationError,
                   "sentence 1: parse has 1 leaves for 2 tokens", None),
    "field": (lambda s: s.update(tokens=5), CorpusFormatError,
              "field 'tokens' of sentence 1 must be a JSON array of strings, "
              "not integer", None),
}


class TestSentenceErrors:
    """An error in one sentence names the file, the line and the sentence,
    once, through either loader; a ParseError keeps its offset."""

    def bad_record(self, fault):
        rec = json.loads(json.dumps(SAMPLE_RECORDS[0]))
        rec["sentences"].append({"tokens": ["Dogs", "ran"],
                                 "pos": ["NNS", "VBD"]})
        SENTENCE_FAULTS[fault][0](rec["sentences"][1])
        return rec

    def check(self, load, path, fault, where):
        _, kind, message, offset = SENTENCE_FAULTS[fault]
        with pytest.raises(kind) as err:
            load(path)
        assert type(err.value) is kind
        assert str(err.value) == f"{path}: line 1: {where}{message}"
        assert getattr(err.value, "offset", None) == offset

    @pytest.mark.parametrize("fault", SENTENCE_FAULTS)
    def test_corpus_loader(self, tmp_path, fault):
        p = tmp_path / "c.jsonl"
        write_lines(p, [self.bad_record(fault)])
        self.check(load_corpus, p, fault, "")

    @pytest.mark.parametrize("fault", SENTENCE_FAULTS)
    def test_pair_loader(self, tmp_path, fault):
        p = tmp_path / "p.jsonl"
        write_lines(p, [{"article_id": "x", "lead_summary": SAMPLE_RECORDS[1],
                         "system_summary": self.bad_record(fault),
                         "human_preference": PREF_SYSTEM}])
        self.check(load_pairs, p, fault, "system_summary: ")


def corpus_file(path, n):
    """A seed-7 synthetic corpus of ``n`` leads, then SAMPLE_RECORDS (mixed
    case, lemmas, a sentence without a parse)."""
    save_corpus(generate_corpus(n, seed=7).leads, path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.writelines(json.dumps(rec) + "\n" for rec in SAMPLE_RECORDS)
    return path


class TestSharedValues:
    def test_equal_values_are_one_object(self, tmp_path, monkeypatch):
        fresh_tables(monkeypatch)
        generated = generate_corpus(40, seed=7).leads
        loaded = load_corpus(corpus_file(tmp_path / "c.jsonl", 40))
        pairs_path = tmp_path / "pairs.jsonl"
        save_pairs([SummaryPair(f"p{k}", generated[2 * k],
                                generated[2 * k + 1], PREF_SYSTEM)
                    for k in range(10)], pairs_path)
        paired = [lead for pair in load_pairs(pairs_path)
                  for lead in (pair.lead_summary, pair.system_summary)]
        for leads in (generated, loaded, paired):
            for values in decoded_values(leads):
                # Values repeat, and each distinct value is one object.
                assert (len({id(v) for v in values}) == len(set(values))
                        < len(values))

    def test_full_tables_change_no_value(self, tmp_path, monkeypatch):
        path = corpus_file(tmp_path / "c.jsonl", 30)

        def decode():
            leads = load_corpus(path)
            save_corpus(leads, tmp_path / "again.jsonl")
            return (leads, [lead.words for lead in leads],
                    [lead.tuples for lead in leads],
                    [extract_production_rules(s.parse) for lead in leads
                     for s in lead.sentences if s.parse is not None],
                    (tmp_path / "again.jsonl").read_bytes())

        fresh_tables(monkeypatch)
        expected = decode()
        fresh_tables(monkeypatch, limit=2)
        assert decode() == expected
        from contentdense import corpus
        assert all(len(getattr(corpus, name)) <= 2 for name in SHARED_TABLES)


# tracemalloc live bytes after loading the seed-7 corpus of 1,000 leads
# into empty tables (CPython 3.11): 10,798,705 when only parse leaves were
# shared and 4,277,707 with every equal decoded value shared (both with a
# tree of nodes per parse); leaving out only the node labels, the tokens or
# the POS tags gave 4.9-5.2 million. Each parse read into its canonical
# text, leaf count and shared rules instead of a tree: 3,505,692. The bound
# keeps the 12% headroom it had over 4,277,707 (4,800,000).
LOADED_CORPUS_BYTES = 3_930_000


def test_loaded_corpus_memory(tmp_path, monkeypatch):
    path = tmp_path / "c.jsonl"
    save_corpus(generate_corpus(1000, seed=7).leads, path)
    fresh_tables(monkeypatch)
    gc.collect()
    tracemalloc.start()
    try:
        leads = load_corpus(path)
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(leads) == 1000
    assert live < LOADED_CORPUS_BYTES
