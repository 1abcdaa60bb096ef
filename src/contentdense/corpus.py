"""Data model and corpus ingestion.

A corpus is a UTF-8 JSON-lines file, one annotated lead per line. Each lead
carries its raw text, per-sentence tokens/POS/optional lemmas, an optional
bracketed constituency parse per sentence, an optional reference-summary
tuple list, and the word count of the full article. The exact field layout
is documented in FORMAT.md at the repository root.

A parse is read straight into what the package uses of it (Parse): its
text in canonical spacing, which is what a saved corpus holds, its leaf
count, and its unlexicalized production rules. No tree is kept.

Words are case-folded at ingestion: the folded form of a token is its lemma
(lower-cased) when a lemma is supplied, otherwise the lower-cased surface
form. POS tags are kept verbatim.

Loaded leads share equal values: each distinct token, lemma, folded word,
POS tag, node label, domain, (word, POS) tuple and production rule is
stored once, through bounded tables (``InternTable``) that start over when
full. Equal values are therefore usually, but not always, the same object,
so callers must compare them by value.
"""

from __future__ import annotations

import codecs
import json
import math
import re
from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .errors import (
    CorpusFormatError,
    DuplicateIdError,
    ParseError,
    ValidationError,
    prefixed,
)

DOMAINS = ("business", "science", "sports", "politics", "general")


class WordPosTuple(NamedTuple):
    """A (word, POS) pair; the unit of summary/lead overlap counting."""

    word: str
    pos: str


# A token is "(", ")" or an atom: the pieces that str.split() leaves once
# every parenthesis is padded with spaces, since \s and str.split() both
# take whitespace to be what str.isspace() accepts. parse_ptb_tree splits;
# the pattern only finds the offset of a token it reports.
_TOKEN = re.compile(r"[()]|[^\s()]+")
_new_tuple = tuple.__new__


class ProductionRule(tuple):
    """Unlexicalized grammar production: LHS label and child labels.

    The immutable tuple ``(lhs, rhs)``, so hashing, equality and ordering
    (by LHS, then RHS) are the tuple's own.
    """

    __slots__ = ()

    def __new__(cls, lhs: str, rhs: tuple[str, ...]):
        if not rhs:
            raise ValidationError(f"production {lhs!r} has an empty RHS")
        return tuple.__new__(cls, (lhs, rhs))

    lhs = property(itemgetter(0))
    rhs = property(itemgetter(1))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self):
        return f"ProductionRule(lhs={self[0]!r}, rhs={self[1]!r})"

    def __str__(self):
        return f"{self.lhs} -> {' '.join(self.rhs)}"


class Parse(NamedTuple):
    """A sentence's constituency parse, as far as the package reads it.

    ``text`` is the bracketed parse in canonical spacing (one space before
    every "(" but the first and between a preterminal's label and word,
    no other whitespace), ``n_leaves`` its number of words, and ``rules``
    one production per internal node, in preorder: the node's label over
    its children's labels. A preterminal (a label
    over a word) makes no rule, so no word is in ``rules``.
    """

    text: str
    n_leaves: int
    rules: tuple[ProductionRule, ...]


class InternTable(dict):
    """Maps each key to one shared immutable value, made by ``make(key)`` on
    first lookup; the table starts over when it holds ``limit`` entries."""

    __slots__ = ("make", "limit")

    def __init__(self, make, limit: int = 1 << 16):
        super().__init__()
        self.make = make
        self.limit = limit

    def __missing__(self, key):
        if len(self) >= self.limit:
            self.clear()
        value = self[key] = self.make(key)
        return value


# Decoded values repeat across a corpus and are immutable, so each distinct
# one is stored once: words (tokens and lemmas, and their folded forms) in
# _WORDS, POS tags, node labels and domains in _TAGS. _FOLDED maps a token or
# lemma to its folded word, _PAIRS an unfolded (word, POS) pair to its
# WordPosTuple, and _RULES a flat (lhs, *rhs) label tuple to its
# ProductionRule. The tables make values only from strings and _PAIRS only
# from pairs of them; any other key raises TypeError, so a lookup also
# checks a decoded JSON value's type (_entries).
def _text(value) -> str:
    if value.__class__ is not str:
        raise TypeError(f"not a string: {value!r}")
    return value


def _word_pos(pair: tuple) -> WordPosTuple:
    if len(pair) != 2:
        raise TypeError(f"not a (word, POS) pair: {pair!r}")
    return _new_tuple(WordPosTuple, (_FOLDED[pair[0]], _TAGS[pair[1]]))


_WORDS = InternTable(_text)
_TAGS = InternTable(_text)
_FOLDED = InternTable(lambda word: _WORDS[_text(word).lower()])
_PAIRS = InternTable(_word_pos)
_RULES = InternTable(
    lambda labels: ProductionRule(_TAGS[labels[0]], intern_tags(labels[1:])))


def intern_words(words: Iterable[str]) -> tuple[str, ...]:
    """The shared copy of each token or lemma."""
    return tuple(map(_WORDS.__getitem__, words))


def intern_tags(tags: Iterable[str]) -> tuple[str, ...]:
    """The shared copy of each POS tag."""
    return tuple(map(_TAGS.__getitem__, tags))


def intern_pairs(pairs: Iterable[tuple[str, str]]) -> tuple[WordPosTuple, ...]:
    """The shared WordPosTuple of each (word, POS) pair, its word folded."""
    return tuple(map(_PAIRS.__getitem__, pairs))


def _byte_offset(text: str, char_index: int) -> int:
    return len(text[:char_index].encode("utf-8", "surrogatepass"))


def parse_ptb_tree(bracketed: str) -> Parse:
    """Parse one bracketed constituency tree, e.g. ``(S (NP (DT the) (NN cat)) (VP (VBD sat)))``.

    Labels are whitespace-delimited (any Unicode whitespace); a node is
    either ``(LABEL word)`` or ``(LABEL subtree...)``, nested to any depth.
    The input is split into tokens by padding every parenthesis with spaces
    and splitting on whitespace; one walk over the tokens checks the tree
    and reads its leaf count and rules, and the canonical text is the
    tokens joined by single spaces with none after "(" or before ")"
    (Parse). Raises ParseError (with the byte offset of the problem) on
    empty input, unbalanced parentheses, or trailing content.
    """
    tokens = bracketed.replace("(", " ( ").replace(")", " ) ").split()
    n = len(tokens)

    def fail(message: str, k: int):
        # Offset of token k, or of the end of the input when k == n.
        at = len(bracketed)
        if k < n:
            at = next(islice(_TOKEN.finditer(bracketed), k, None)).start()
        raise ParseError(message, offset=_byte_offset(bracketed, at))

    if not n:
        raise ParseError("empty parse string", offset=0)
    if tokens[0] != "(":
        fail(f"expected '(' but found {tokens[0]!r}", 0)
    nodes: list[list[str]] = []  # [label, child labels...] per internal node
    path: list[list[str]] = []  # the open nodes, innermost last
    n_leaves = 0
    i = 0  # tokens[i] is the "(" that opens the next node
    try:
        while True:
            label = tokens[i + 1]
            if label in "()":
                fail("missing node label", i + 1)
            if path:
                path[-1].append(label)
            word = tokens[i + 2]
            if word == "(":
                path.append([label])
                nodes.append(path[-1])
                i += 2
                continue
            if word == ")":
                fail(f"node {label!r} has no children and no word", i + 2)
            if tokens[i + 3] != ")":
                fail(f"expected ')' after leaf word but found "
                     f"{tokens[i + 3]!r}", i + 3)
            n_leaves += 1
            i += 4
            # Close every open node whose ")" follows.
            while path:
                tok = tokens[i]
                if tok == "(":
                    break
                if tok != ")":
                    fail(f"expected '(' or ')' but found {tok!r}", i)
                path.pop()
                i += 1
            else:
                if i != n:
                    fail("trailing content after tree", i)
                text = " ".join(tokens).replace("( ", "(").replace(" )", ")")
                return Parse(text, n_leaves,
                             tuple([_RULES[tuple(node)] for node in nodes]))
    except IndexError:
        fail("unbalanced parentheses: input ends inside a node", n)


@dataclass(frozen=True)
class Sentence:
    """One sentence: parallel token/POS arrays, optional lemmas, optional parse."""

    tokens: tuple[str, ...]
    pos: tuple[str, ...]
    lemmas: tuple[str, ...] | None = None
    parse: Parse | None = None

    def __post_init__(self):
        if len(self.tokens) == 0:
            raise ValidationError("sentence has no tokens")
        if len(self.pos) != len(self.tokens):
            raise ValidationError(
                f"{len(self.pos)} POS tags for {len(self.tokens)} tokens"
            )
        if self.lemmas is not None and len(self.lemmas) != len(self.tokens):
            raise ValidationError(
                f"{len(self.lemmas)} lemmas for {len(self.tokens)} tokens"
            )
        if self.parse is not None and self.parse.n_leaves != len(self.tokens):
            raise ValidationError(
                f"parse has {self.parse.n_leaves} leaves for "
                f"{len(self.tokens)} tokens"
            )

    def folded_words(self) -> list[str]:
        """Case-folded word forms (lower-cased lemma when present, else
        lower-cased surface)."""
        words = self.tokens if self.lemmas is None else self.lemmas
        return list(map(_FOLDED.__getitem__, words))

    def word_pos_tuples(self) -> list[WordPosTuple]:
        words = self.tokens if self.lemmas is None else self.lemmas
        return list(map(_PAIRS.__getitem__, zip(words, self.pos)))


@dataclass(frozen=True)
class AnnotatedLead:
    """One lead: the universal input record.

    ``summary`` holds the (word, POS) tuples of the article's reference
    summary when one exists; ``article_word_count`` is the length of the
    full article, used by the article-length baseline.
    """

    id: str
    domain: str
    lead_text: str
    sentences: tuple[Sentence, ...]
    summary: tuple[WordPosTuple, ...] | None = None
    article_word_count: int = 0
    # The number of tokens over all sentences, set from them.
    n_tokens: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.id:
            raise ValidationError("lead id is empty")
        if self.domain not in DOMAINS:
            raise ValidationError(
                f"unknown domain {self.domain!r}; expected one of {', '.join(DOMAINS)}"
            )
        if self.lead_text and not self.sentences:
            raise ValidationError(f"lead {self.id}: non-empty text but no sentences")
        if self.summary is not None:
            for t in self.summary:
                if not t.word:
                    raise ValidationError(f"lead {self.id}: summary tuple with empty word")
        if self.article_word_count < 0:
            raise ValidationError(f"lead {self.id}: negative article_word_count")
        if self.article_word_count >= 2 ** 63:
            raise ValidationError(
                f"lead {self.id}: article_word_count {self.article_word_count} "
                f"above 2**63 - 1")
        n_tokens = sum([len(s.tokens) for s in self.sentences])
        if self.article_word_count < n_tokens:
            raise ValidationError(
                f"lead {self.id}: article_word_count {self.article_word_count} "
                f"smaller than lead token count {n_tokens}"
            )
        object.__setattr__(self, "n_tokens", n_tokens)

    @property
    def words(self) -> tuple[str, ...]:
        out: list[str] = []
        for s in self.sentences:
            out.extend(s.folded_words())
        return tuple(out)

    @property
    def tuples(self) -> tuple[WordPosTuple, ...]:
        out: list[WordPosTuple] = []
        for s in self.sentences:
            out.extend(s.word_pos_tuples())
        return tuple(out)


def _sentence_to_record(s: Sentence) -> dict:
    rec: dict = {"tokens": list(s.tokens), "pos": list(s.pos)}
    if s.lemmas is not None:
        rec["lemmas"] = list(s.lemmas)
    if s.parse is not None:
        rec["parse"] = s.parse.text
    return rec


_JSON_TYPES = {str: "string", list: "array", dict: "object", int: "integer",
               float: "number", bool: "boolean", type(None): "null",
               (str, str): "[string, string] array"}


def _all_of_kind(values, kind) -> bool:
    """Whether every one of ``values`` has the JSON type ``kind`` (json_field)."""
    if kind is float:
        try:
            return ({int, float}.issuperset(map(type, values))
                    and all(map(math.isfinite, values)))
        except OverflowError:  # an integer beyond the range of a float
            return False
    if type(kind) is tuple:
        return ({list}.issuperset(map(type, values))
                and {len(kind)}.issuperset(map(len, values))
                and all(map(_all_of_kind, zip(*values), kind)))
    return {kind}.issuperset(map(type, values))


def json_field(rec, name: str, kind, items=None, optional: bool = False,
               where: str = "record"):
    """``rec[name]``, or CorpusFormatError naming the field and ``where``
    (the record holding it) when ``rec`` is no object, lacks the field or
    holds it with another JSON type. ``kind`` is str, int, float (a finite
    number, integer or not), list or dict; a boolean is neither an integer
    nor a number. ``items`` is the kind of every entry of an array, or
    ``(str, str)`` for ``[word, pos]`` entries. An ``optional`` field may
    be absent or null, giving None."""
    if rec.__class__ is not dict:
        raise CorpusFormatError(f"{where} is not a JSON object")
    value = rec.get(name)
    if value is None:
        if optional:
            return None
        if name not in rec:
            raise CorpusFormatError(f"{where} missing field {name!r}")
    elif ((value.__class__ is kind is not float or _all_of_kind((value,), kind))
          and (items is None or _all_of_kind(value, items))):
        return value
    at = ""
    if items is not None and type(value) is list:  # name the first bad entry
        k = next(k for k, v in enumerate(value) if not _all_of_kind((v,), items))
        value, at = value[k], f" at entry {k}"
    if type(value) is float and not math.isfinite(value):
        found = json.dumps(value)  # NaN, Infinity or -Infinity: not JSON
    else:
        found = _JSON_TYPES.get(type(value), type(value).__name__)
    expected = _JSON_TYPES[kind] + (f" of {_JSON_TYPES[items]}s" if items else "")
    raise CorpusFormatError(f"field {name!r} of {where} must be a JSON "
                            f"{expected}, not {found}{at}")


def _entries(rec, name: str, table: InternTable, items=str,
             optional: bool = False, where: str = "record"):
    """``json_field(rec, name, list, items, optional, where)`` with each
    entry replaced by its shared value in ``table``. A well-formed field is
    checked and interned in one pass, since the table rejects a mistyped
    key (_text); anything else goes to json_field, which names the fault."""
    value = rec.get(name) if rec.__class__ is dict else None
    if value.__class__ is not list or (
            items is not str and not {list}.issuperset(map(type, value))):
        # json_field raises, or gives None for an absent optional field.
        return json_field(rec, name, list, items, optional, where)
    try:
        return tuple(map(table.__getitem__,
                         value if items is str else map(tuple, value)))
    except TypeError:
        json_field(rec, name, list, items, optional, where)
        raise


def _sentence_from_record(rec, where: str) -> Sentence:
    """A field error names ``where`` in its own words; a parse or
    ``Sentence`` error gets it as a prefix."""
    parse = json_field(rec, "parse", str, optional=True, where=where)
    lemmas = _entries(rec, "lemmas", _WORDS, optional=True, where=where)
    tokens = _entries(rec, "tokens", _WORDS, where=where)
    pos = _entries(rec, "pos", _TAGS, where=where)
    try:
        return Sentence(tokens, pos, lemmas,
                        None if parse is None else parse_ptb_tree(parse))
    except (ParseError, ValidationError) as e:
        raise prefixed(e, where)


def lead_to_record(lead: AnnotatedLead) -> dict:
    """Map a lead to its JSON object form (fixed key order)."""
    rec: dict = {
        "id": lead.id,
        "domain": lead.domain,
        "lead_text": lead.lead_text,
        "sentences": [_sentence_to_record(s) for s in lead.sentences],
    }
    if lead.summary is not None:
        rec["summary"] = [[t.word, t.pos] for t in lead.summary]
    rec["article_word_count"] = lead.article_word_count
    return rec


def lead_from_record(rec) -> AnnotatedLead:
    """Build a lead from its JSON object; CorpusFormatError (json_field)
    names a missing or mistyped field and the sentence that holds it."""
    summary = _entries(rec, "summary", _PAIRS, (str, str), optional=True)
    sentences = enumerate(json_field(rec, "sentences", list, dict))
    return AnnotatedLead(
        id=json_field(rec, "id", str),
        domain=_TAGS[json_field(rec, "domain", str)],
        lead_text=json_field(rec, "lead_text", str),
        sentences=tuple(_sentence_from_record(s, f"sentence {k}")
                        for k, s in sentences),
        summary=summary,
        article_word_count=json_field(rec, "article_word_count", int),
    )


# A \uD800-\uDFFF escape can decode to a lone surrogate, which is not text.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def text_lines(path: str | Path, span: tuple[int, int] | None = None,
               ) -> Iterator[tuple[int, str]]:
    """(line number, line with its line end) for each line of a UTF-8 file,
    or of its bytes ``span`` = (start, stop) when given, a range that
    ``line_spans`` cut; line numbers then count from the range's first
    line. Lines end at "\\n", "\\r\\n" or a bare "\\r" and are decoded one at
    a time; a line that is not UTF-8, or a byte-order mark opening line 1
    of the file, raises CorpusFormatError naming the file and the line."""
    start, stop = span or (0, None)
    with Path(path).open("rb") as fh:
        if not start and fh.peek(len(codecs.BOM_UTF8)).startswith(
                codecs.BOM_UTF8):
            raise CorpusFormatError(
                f"{path}: line 1: starts with a UTF-8 byte-order mark (U+FEFF)")
        fh.seek(start)
        chunks = fh if stop is None else _chunks_before(fh, stop)
        lines = (raw for chunk in chunks
                 for raw in chunk.splitlines(keepends=True))
        for lineno, raw in enumerate(lines, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as e:
                raise CorpusFormatError(
                    f"{path}: line {lineno}: not UTF-8: {e}") from e
            yield lineno, line


def _chunks_before(fh, stop: int) -> Iterator[bytes]:
    """The "\\n"-ended chunks of binary file ``fh`` from where it stands up
    to byte ``stop``."""
    left = stop - fh.tell()
    for chunk in fh:
        if left <= 0:
            return
        yield chunk[:left]
        left -= len(chunk)


def line_spans(path: str | Path, n: int) -> list[tuple[int, int]]:
    """Cut the file at ``path`` into at most ``n`` byte ranges (start,
    stop) of about equal size, in file order. Each cut falls just after a
    "\\n", so no line, and no UTF-8 character, is split; no range is empty.
    A file with no "\\n" to cut at, or ``n`` = 1, gives one range, and an
    empty file none."""
    size = Path(path).stat().st_size
    cuts = [0]
    with Path(path).open("rb") as fh:
        for k in range(1, n):
            # The first line start at or after the k-th share's end.
            fh.seek(max(k * size // n, cuts[-1] + 1) - 1)
            fh.readline()
            if fh.tell() >= size:
                break
            cuts.append(fh.tell())
    cuts.append(size)
    return [(a, b) for a, b in zip(cuts, cuts[1:]) if b > a]


def json_lines(path: str | Path, span: tuple[int, int] | None = None,
               ) -> Iterator[tuple[int, object]]:
    """(line number, parsed value) for each non-blank line of a JSON-lines
    file, or of its byte range ``span`` (``text_lines``). A line that is
    not JSON, or holds an escaped lone surrogate, raises CorpusFormatError
    naming the file and the line."""
    for lineno, line in text_lines(path, span):
        if not line.strip():
            continue
        try:
            value = json.loads(line)
            if _SURROGATE_ESCAPE.search(line):
                json.dumps(value, ensure_ascii=False).encode("utf-8")
        except (ValueError, RecursionError) as e:
            raise CorpusFormatError(
                f"{path}: line {lineno}: invalid JSON: {e}") from e
        yield lineno, value


def load_corpus(path: str | Path, span: tuple[int, int] | None = None,
                ) -> list[AnnotatedLead]:
    """Load a JSON-lines corpus, or the records in its byte range ``span``
    (``line_spans``). Deterministic and order-preserving.

    Raises CorpusFormatError / ValidationError / ParseError naming the
    file and the offending line number (within ``span``, when given);
    DuplicateIdError when two records share an id.
    """
    leads: list[AnnotatedLead] = []
    seen: set[str] = set()
    for lineno, rec in json_lines(path, span):
        try:
            lead = lead_from_record(rec)
        except (CorpusFormatError, ValidationError, ParseError) as e:
            raise prefixed(e, f"{path}: line {lineno}")
        if lead.id in seen:
            raise DuplicateIdError(
                f"{path}: line {lineno}: duplicate lead id {lead.id!r}")
        seen.add(lead.id)
        leads.append(lead)
    return leads


def save_corpus(leads: Iterable[AnnotatedLead], path: str | Path) -> None:
    """Write a corpus in canonical form: one compact JSON object per line.

    Canonical output round-trips byte-identically through load_corpus.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for lead in leads:
            fh.write(json.dumps(lead_to_record(lead), ensure_ascii=False,
                                separators=(",", ":")))
            fh.write("\n")


def load_lexicon(path: str | Path) -> frozenset[str]:
    """Load a UTF-8 word-list file (``text_lines``): one word per line,
    lower-cased; blank lines and lines starting with '#' are skipped."""
    words: set[str] = set()
    for _, line in text_lines(path):
        word = line.strip()
        if word and not word.startswith("#"):
            words.add(word.lower())
    return frozenset(words)


def default_lexicon_path() -> Path:
    """Path of the concrete-word list shipped with the package."""
    return Path(__file__).parent / "data" / "mrc_wordlist.txt"
