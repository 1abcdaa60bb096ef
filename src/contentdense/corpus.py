"""Data model and corpus ingestion.

A corpus is a UTF-8 JSON-lines file, one annotated lead per line. Each lead
carries its raw text, per-sentence tokens/POS/optional lemmas, an optional
bracketed constituency parse per sentence, an optional reference-summary
tuple list, and the word count of the full article. The exact field layout
is documented in FORMAT.md at the repository root.

Words are case-folded at ingestion: the folded form of a token is its lemma
(lower-cased) when a lemma is supplied, otherwise the lower-cased surface
form. POS tags are kept verbatim.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .errors import (
    CorpusFormatError,
    DuplicateIdError,
    ParseError,
    ValidationError,
)

DOMAINS = ("business", "science", "sports", "politics", "general")


class WordPosTuple(NamedTuple):
    """A (word, POS) pair; the unit of summary/lead overlap counting."""

    word: str
    pos: str


# A token is "(", ")", an atom, or a whole preterminal "(TAG word)"; the
# scan tries the preterminal first, so a well-formed one is always one token.
_TOKEN = re.compile(r"\(\s*[^\s()]+\s+[^\s()]+\s*\)|[()]|[^\s()]+")
_new_tuple = tuple.__new__


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


class ParseTree(tuple):
    """Node of a constituency tree.

    A node has either children (internal node) or a leaf word (preterminal),
    never both and never neither. A node is the immutable tuple
    ``(label, leaf_word, *children)`` (so ``(label, word)`` for a leaf and
    ``(label, None, child, ...)`` otherwise) and compares equal only to
    nodes.
    """

    __slots__ = ()

    def __new__(cls, label: str, children: tuple["ParseTree", ...] = (),
                leaf_word: str | None = None):
        if not label:
            raise ValidationError("parse tree node has an empty label")
        has_children = len(children) > 0
        has_word = leaf_word is not None
        if has_children == has_word:
            raise ValidationError(
                f"node {label!r} must have children or a leaf word, not "
                f"{'both' if has_children else 'neither'}"
            )
        return _new_tuple(cls, (label, leaf_word, *children))

    label = property(itemgetter(0))
    leaf_word = property(itemgetter(1))

    @property
    def children(self) -> tuple["ParseTree", ...]:
        return self[2:]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return False if isinstance(other, tuple) else NotImplemented
        pending = [(self, other)]
        while pending:
            a, b = pending.pop()
            if len(a) != len(b) or a[0] != b[0] or a[1] != b[1]:
                return False
            for x, y in zip(a[2:], b[2:]):
                if x.__class__ is y.__class__ is self.__class__:
                    pending.append((x, y))
                elif x != y:
                    return False
        return True

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    __hash__ = tuple.__hash__

    def __getnewargs__(self):
        return self[0], self[2:], self[1]

    def __repr__(self):
        parts: list[str] = []  # the recursive tuple repr's text, iteratively
        stack: list = [self]
        while stack:
            node = stack.pop()
            if node.__class__ is str:
                parts.append(node)
                continue
            kids = node[2:]
            parts.append(f"ParseTree(label={node[0]!r}, children=(")
            stack.append(f"{',' * (len(kids) == 1)}), leaf_word={node[1]!r})")
            for k in range(len(kids) - 1, -1, -1):
                stack.append(kids[k])
                if k:
                    stack.append(", ")
        return "".join(parts)

    @property
    def is_leaf(self) -> bool:
        return self[1] is not None

    def leaves(self) -> list[str]:
        """Leaf words in source order."""
        out: list[str] = []
        stack = [self]
        while stack:
            node = stack.pop()
            if node[1] is None:
                stack.extend(reversed(node[2:]))
            else:
                out.append(node[1])
        return out

    def leaf_count(self) -> int:
        count = 0
        stack = [self]
        while stack:
            node = stack.pop()
            if node[1] is None:
                stack.extend(node[2:])
            else:
                count += 1
        return count

    def to_bracketed(self) -> str:
        """Serialize back to the bracketed source form."""
        parts: list[str] = []  # every node's text opens with a space
        stack: list = [self]
        while stack:
            node = stack.pop()
            if node.__class__ is str:
                parts.append(node)
            elif node[1] is not None:
                parts.append(f" ({node[0]} {node[1]})")
            else:
                parts.append(f" ({node[0]}")
                stack.append(")")
                stack.extend(node[:1:-1])  # children, last first
        return "".join(parts)[1:]


# Preterminals repeat across a corpus and nodes are immutable with
# structural equality, so each distinct "(TAG word)" token text maps to one
# shared leaf node.
_LEAVES = InternTable(lambda tok: _new_tuple(ParseTree, tok[1:-1].split()))


def _byte_offset(text: str, char_index: int) -> int:
    return len(text[:char_index].encode("utf-8", "surrogatepass"))


def parse_ptb_tree(bracketed: str) -> ParseTree:
    """Parse one bracketed constituency tree, e.g. ``(S (NP (DT the) (NN cat)) (VP (VBD sat)))``.

    Labels are whitespace-delimited (any Unicode whitespace); a node is
    either ``(LABEL word)`` or ``(LABEL subtree...)``, nested to any depth.
    Raises ParseError (with the byte offset of the problem) on empty input,
    unbalanced parentheses, or trailing content.
    """
    tokens = _TOKEN.findall(bracketed)
    n = len(tokens)

    def fail(message: str, k: int):
        # Offset of token k, or of the end of the input when k == n.
        at = len(bracketed)
        if k < n:
            at = next(islice(_TOKEN.finditer(bracketed), k, None)).start()
        raise ParseError(message, offset=_byte_offset(bracketed, at))

    if not n:
        raise ParseError("empty parse string", offset=0)
    if tokens[0][0] != "(":
        fail(f"expected '(' but found {tokens[0]!r}", 0)
    open_nodes: list[list] = []  # [label, None, children so far...]
    i = 0  # tokens[i] opens the next node: "(" or a whole preterminal
    try:
        while True:
            tok = tokens[i]
            if tok == "(":
                label = tokens[i + 1]
                if label[0] in "()":
                    fail("missing node label", i + 1)
                tok = tokens[i + 2]
                if tok[0] == "(":
                    open_nodes.append([label, None])
                    i += 2
                    continue
                if tok == ")":
                    fail(f"node {label!r} has no children and no word", i + 2)
                # "(TAG word)" would have been one token, so this is no ")".
                found = tokens[i + 3]
                fail(f"expected ')' after leaf word but found "
                     f"{'(' if found[0] == '(' else found!r}", i + 3)
            node = _LEAVES[tok]
            i += 1
            # Attach the finished node, closing every parent whose ")" follows.
            while open_nodes:
                open_nodes[-1].append(node)
                tok = tokens[i]
                if tok[0] == "(":
                    break
                if tok != ")":
                    fail(f"expected '(' or ')' but found {tok!r}", i)
                node = _new_tuple(ParseTree, open_nodes.pop())
                i += 1
            else:
                if i != n:
                    fail("trailing content after tree", i)
                return node
    except IndexError:
        fail("unbalanced parentheses: input ends inside a node", n)


def _fold_word(surface: str, lemma: str | None) -> str:
    return lemma.lower() if lemma is not None else surface.lower()


@dataclass(frozen=True)
class Sentence:
    """One sentence: parallel token/POS arrays, optional lemmas, optional parse."""

    tokens: tuple[str, ...]
    pos: tuple[str, ...]
    lemmas: tuple[str, ...] | None = None
    parse: ParseTree | None = None

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
        if self.parse is not None and self.parse.leaf_count() != len(self.tokens):
            raise ValidationError(
                f"parse has {self.parse.leaf_count()} leaves for "
                f"{len(self.tokens)} tokens"
            )

    def folded_words(self) -> list[str]:
        """Case-folded word forms (lemma when present, else lower-cased surface)."""
        if self.lemmas is None:
            return [t.lower() for t in self.tokens]
        return [_fold_word(t, l) for t, l in zip(self.tokens, self.lemmas)]

    def word_pos_tuples(self) -> list[WordPosTuple]:
        return [WordPosTuple(w, p) for w, p in zip(self.folded_words(), self.pos)]


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
        if self.article_word_count < self.n_tokens:
            raise ValidationError(
                f"lead {self.id}: article_word_count {self.article_word_count} "
                f"smaller than lead token count {self.n_tokens}"
            )

    @cached_property
    def n_tokens(self) -> int:
        return sum(len(s.tokens) for s in self.sentences)

    @cached_property
    def words(self) -> tuple[str, ...]:
        out: list[str] = []
        for s in self.sentences:
            out.extend(s.folded_words())
        return tuple(out)

    @cached_property
    def word_counts(self) -> Counter:
        return Counter(self.words)

    @cached_property
    def tuples(self) -> tuple[WordPosTuple, ...]:
        out: list[WordPosTuple] = []
        for s in self.sentences:
            out.extend(s.word_pos_tuples())
        return tuple(out)

    @cached_property
    def tuple_set(self) -> frozenset[WordPosTuple]:
        return frozenset(self.tuples)


def _sentence_to_record(s: Sentence) -> dict:
    rec: dict = {"tokens": list(s.tokens), "pos": list(s.pos)}
    if s.lemmas is not None:
        rec["lemmas"] = list(s.lemmas)
    if s.parse is not None:
        rec["parse"] = s.parse.to_bracketed()
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


def _sentence_from_record(rec, where: str) -> Sentence:
    parse = json_field(rec, "parse", str, optional=True, where=where)
    lemmas = json_field(rec, "lemmas", list, str, optional=True, where=where)
    return Sentence(
        tokens=tuple(json_field(rec, "tokens", list, str, where=where)),
        pos=tuple(json_field(rec, "pos", list, str, where=where)),
        lemmas=None if lemmas is None else tuple(lemmas),
        parse=None if parse is None else parse_ptb_tree(parse),
    )


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
    summary = json_field(rec, "summary", list, (str, str), optional=True)
    sentences = enumerate(json_field(rec, "sentences", list, dict))
    return AnnotatedLead(
        id=json_field(rec, "id", str),
        domain=json_field(rec, "domain", str),
        lead_text=json_field(rec, "lead_text", str),
        sentences=tuple(_sentence_from_record(s, f"sentence {k}")
                        for k, s in sentences),
        summary=None if summary is None else tuple(
            [_new_tuple(WordPosTuple, (w.lower(), p)) for w, p in summary]),
        article_word_count=json_field(rec, "article_word_count", int),
    )


# A \uD800-\uDFFF escape can decode to a lone surrogate, which is not text.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def text_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line number, line with its line end) for each line of a UTF-8 file.
    Lines end at "\\n", "\\r\\n" or a bare "\\r" and are decoded one at a
    time; a line that is not UTF-8 raises CorpusFormatError naming it."""
    with Path(path).open("rb") as fh:
        lines = (raw for chunk in fh for raw in chunk.splitlines(keepends=True))
        for lineno, raw in enumerate(lines, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as e:
                raise CorpusFormatError(f"line {lineno}: not UTF-8: {e}") from e
            yield lineno, line


def json_lines(path: str | Path) -> Iterator[tuple[int, object]]:
    """(line number, parsed value) for each non-blank line of a JSON-lines
    file (``text_lines``). A line that is not JSON, or holds an escaped lone
    surrogate, raises CorpusFormatError naming it."""
    for lineno, line in text_lines(path):
        if not line.strip():
            continue
        try:
            value = json.loads(line)
            if _SURROGATE_ESCAPE.search(line):
                json.dumps(value, ensure_ascii=False).encode("utf-8")
        except (ValueError, RecursionError) as e:
            raise CorpusFormatError(f"line {lineno}: invalid JSON: {e}") from e
        yield lineno, value


def load_corpus(path: str | Path) -> list[AnnotatedLead]:
    """Load a JSON-lines corpus. Deterministic and order-preserving.

    Raises CorpusFormatError / ValidationError / ParseError naming the
    offending line number; DuplicateIdError when two records share an id.
    """
    leads: list[AnnotatedLead] = []
    seen: set[str] = set()
    for lineno, rec in json_lines(path):
        try:
            lead = lead_from_record(rec)
        except (CorpusFormatError, ValidationError, ParseError) as e:
            raise type(e)(f"line {lineno}: {e}") from e
        if lead.id in seen:
            raise DuplicateIdError(f"line {lineno}: duplicate lead id {lead.id!r}")
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
