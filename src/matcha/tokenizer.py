"""Byte-level BPE tokenization over a GPT-2 style vocabulary.

Texts are mapped to ids that index the pre-trained embedding table, so the
vocabulary and merge rules must be the ones the table was built with.  A
small word-level fallback tokenizer is provided for self-contained runs
where no vocabulary files are available.
"""

from __future__ import annotations

import json
import re
from collections import Counter, deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

from .errors import (
    EmptyInputError,
    TextEncodingError,
    TokenRangeError,
    VocabularyFormatError,
    VocabularyIntegrityError,
    open_atomic,
    read_json,
    read_lines,
)

DEFAULT_MAX_LEN = 512

# Distinct words and pretokens whose ids one Vocabulary remembers; its two maps are cleared
# when together they reach this size, so a stream of novel text cannot grow them unboundedly.
PRETOKEN_MEMO_SIZE = 1 << 16

# GPT-2 style pretokenization: contractions, words with an optional leading
# space, digit runs, punctuation runs, whitespace runs.  Merges never cross
# pretoken boundaries.  Stdlib approximation of the original pattern:
# [^\W\d_] stands in for \p{L} and \d for \p{N}.
_PRETOKEN = re.compile(
    r"'s|'t|'re|'ve|'m|'ll|'d"
    r"| ?[^\W\d_]+"
    r"| ?\d+"
    r"| ?(?:[^\s\w]|_)+"
    r"|\s+(?!\S)"
    r"|\s+"
)


def byte_to_unicode() -> dict[int, str]:
    """Bijection between the 256 byte values and printable unicode stand-ins.

    Printable bytes map to themselves; the rest are shifted into the
    private range starting at U+0100 so every byte has a visible character.
    """
    keep = (
        list(range(ord("!"), ord("~") + 1))
        + list(range(ord("\xa1"), ord("\xac") + 1))
        + list(range(ord("\xae"), ord("\xff") + 1))
    )
    mapping = {b: chr(b) for b in keep}
    shift = 0
    for b in range(256):
        if b not in mapping:
            mapping[b] = chr(256 + shift)
            shift += 1
    return mapping


@dataclass
class _TokenTable:
    """Token -> id map with ids covering [0, vocab_size); decode builds the inverse once."""

    token_to_id: dict[str, int]

    @cached_property
    def id_to_token(self) -> dict[int, str]:
        return {i: t for t, i in self.token_to_id.items()}

    @property
    def vocab_size(self) -> int:
        return len(self.token_to_id)

    def _tokens(self, ids: list[int]) -> list[str]:
        try:
            return list(map(self.id_to_token.__getitem__, ids))
        except KeyError as missing:
            raise TokenRangeError(f"id {missing.args[0]} outside [0, {self.vocab_size})") from None


@dataclass
class Vocabulary(_TokenTable):
    """Immutable token table plus ordered byte-pair merge rules."""

    merges: list[tuple[str, str]]
    byte_encoder: dict[int, str] = field(default_factory=byte_to_unicode)

    def __post_init__(self) -> None:
        self.merge_ranks = {pair: rank for rank, pair in enumerate(self.merges)}
        # `str.translate` table: each byte stand-in -> the latin-1 character of its byte.  Any other
        # character below U+0100 -> U+FFFD, so that it too fails the latin-1 encode after the pass.
        self._to_latin1 = dict.fromkeys(range(256), 0xFFFD) | {ord(c): b for b, c in self.byte_encoder.items()}
        # The memo of `encode`, in two maps: a chunk -> the ids of " " + chunk, and a pretoken,
        # first word or joined word -> its ids.  Sound because the table and merges never
        # change after load; plain attributes, so == and repr see only the fields.
        self._chunk_ids: dict[str, tuple[int, ...]] = {}
        self._pretoken_ids: dict[str, tuple[int, ...]] = {}

    def encode(self, text: str, max_len: int = DEFAULT_MAX_LEN) -> list[int]:
        """Encode text to vocabulary ids, truncated to max_len tokens.

        Deterministic: pretokenize, map each pretoken's bytes to the unicode
        stand-ins, apply lowest-rank-first merges within the pretoken, look the
        resulting symbols up in the token table.  No pretoken spans a space that
        precedes a non-whitespace character, so the memo keys each later chunk c of
        `text.split(" ")` in `_chunk_ids` as the word " " + c, and C-level passes
        look every chunk up and join the ids of each known run.  A Python step is
        left for the first word and a word the next chunks join (`_joins`), both
        keyed by their text in `_pretoken_ids`, and for a word not met before,
        whose new pretokens are merged and stored there too.  The two maps hold at
        most PRETOKEN_MEMO_SIZE entries together.  Nothing past max_len ids is
        merged, and a word cut by max_len is not stored.
        """
        if max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {max_len}")
        if not text:
            raise EmptyInputError("cannot encode an empty text")
        chunks = text.split(" ")
        end = len(chunks)
        known = list(map(self._chunk_ids.get, chunks))
        known[0] = None  # the first word has no space before it
        known.append(None)  # past the last chunk
        ids: list[int] = []
        start = 0
        while True:
            first = known.index(None, start)  # the next word not known: chunks[start:first] are known words
            if first > start:
                if first < end and _joins(chunks[first]):  # never a key: it joins the chunk before it
                    first -= 1
                deque(map(ids.extend, known[start:first]), maxlen=0)  # their ids, at C level
            if first == end or len(ids) >= max_len:
                return ids[:max_len]
            start = first + 1
            while start < end and _joins(chunks[start]):
                start += 1
            try:
                ids += self._word_ids(chunks, first, start, max_len - len(ids))
            except UnicodeEncodeError:  # the text before this word has none
                at = next(i for i, c in enumerate(text) if "\ud800" <= c <= "\udfff")
                raise TextEncodingError(
                    f"character {at} of the text is a lone surrogate {text[at]!r}, which UTF-8 cannot encode"
                ) from None

    def _word_ids(self, chunks: list[str], first: int, stop: int, room: int) -> tuple[int, ...] | list[int]:
        """Ids of the word chunks[first:stop] (with the space before it, unless first is 0): from the
        memo, else from its pretokens, stored unless it reaches `room` ids before its last pretoken."""
        if first and stop == first + 1:  # one chunk after a space
            memo, key = self._chunk_ids, chunks[first]
            word = " " + key
        else:  # the first word, or a word of joined chunks
            memo = self._pretoken_ids
            key = word = " " * (first > 0) + " ".join(chunks[first:stop])
        word_ids = memo.get(key)
        if word_ids is not None:
            return word_ids
        pretokens = self._pretoken_ids
        word_ids = []
        for pretoken in _PRETOKEN.findall(word):
            pretoken_ids = pretokens.get(pretoken)
            if pretoken_ids is None:
                pretoken_ids = self._remember(pretokens, pretoken, _merge(self, pretoken))
            word_ids += pretoken_ids
            if len(word_ids) >= room:
                return word_ids
        return self._remember(memo, key, tuple(word_ids))

    def _remember(self, memo: dict[str, tuple[int, ...]], key: str, ids: tuple[int, ...]) -> tuple[int, ...]:
        if len(self._chunk_ids) + len(self._pretoken_ids) >= PRETOKEN_MEMO_SIZE:
            self._chunk_ids.clear()
            self._pretoken_ids.clear()
        return memo.setdefault(key, ids)

    def decode(self, ids: list[int]) -> str:
        """Invert encode: ids -> token strings -> bytes -> UTF-8 text."""
        return self._bytes(self._tokens(ids)).decode("utf-8", errors="replace")

    def pieces(self, ids: list[int]) -> list[str]:
        """`decode([i])` for each id in `ids`: one translate pass over the joined tokens, then each
        token's byte slice decoded on its own, so a character split across tokens is U+FFFD in each."""
        tokens = self._tokens(ids)
        data = self._bytes(tokens)
        ends = list(accumulate(map(len, tokens)))
        return [data[start:end].decode("utf-8", "replace") for start, end in zip([0, *ends], ends)]

    def _bytes(self, tokens, where: str = "") -> bytes:
        """The bytes of the joined tokens, one per character; a character that is no byte stand-in
        raises VocabularyIntegrityError naming its token, after `where`."""
        text = "".join(tokens)
        try:
            return text.translate(self._to_latin1).encode("latin-1")
        except UnicodeEncodeError as exc:
            ends = accumulate(map(len, tokens))
            token = next(t for t, end in zip(tokens, ends) if end > exc.start)
            raise VocabularyIntegrityError(
                f"{where}token {token!r} holds {text[exc.start]!r}, which is not a byte stand-in"
            ) from None


def _token_ids(path: str, raw) -> dict[str, int]:
    """Check a JSON token -> id object: integer ids covering [0, n) once each."""
    if not isinstance(raw, dict):
        raise VocabularyFormatError(f"{path}: expected a JSON object of token -> id")
    for token, token_id in raw.items():
        if type(token_id) is not int:  # excludes bool, which JSON true/false decode to
            raise VocabularyFormatError(f"{path}: id for token {token!r} is not an integer")
    ids = set(raw.values())
    n = len(raw)
    if len(ids) != n:
        duplicate = next(i for i, count in Counter(raw.values()).items() if count > 1)
        raise VocabularyIntegrityError(f"{path}: duplicate id {duplicate}")
    if ids and (min(ids) != 0 or max(ids) != n - 1):
        raise VocabularyIntegrityError(
            f"{path}: ids must cover [0, {n}) exactly, got [{min(ids)}, {max(ids)}]"
        )
    return raw


def load_vocabulary(vocab_file: str, merges_file: str) -> Vocabulary:
    """Load a token->id JSON object and a merges text file (header + "left right" lines)."""
    token_to_id = _token_ids(vocab_file, read_json(vocab_file, VocabularyFormatError))

    merges: list[tuple[str, str]] = []
    for lineno, line in read_lines(merges_file, VocabularyFormatError):
        if lineno == 1 or not line.strip():  # the first line is a header
            continue
        parts = line.split(" ")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise VocabularyFormatError(
                f"{merges_file}:{lineno}: expected 'left right', got {line!r}"
            )
        left, right = parts
        for piece in (left, right, left + right):
            if piece not in token_to_id:
                raise VocabularyIntegrityError(
                    f"{merges_file}:{lineno}: merge references {piece!r} absent from vocabulary"
                )
        merges.append((left, right))

    vocab = Vocabulary(token_to_id=token_to_id, merges=merges)
    # Every token is a run of byte stand-ins: one search for any other character, which `_bytes` names.
    if re.search(f"[^{re.escape(''.join(vocab.byte_encoder.values()))}]", "".join(token_to_id)):
        vocab._bytes(token_to_id, where=f"{vocab_file}: ")
    return vocab


def _merge(vocab: Vocabulary, pretoken: str) -> tuple[int, ...]:
    """Ids of one pretoken: its bytes' stand-ins, adjacent pairs merged lowest rank first."""
    symbols = [vocab.byte_encoder[b] for b in pretoken.encode("utf-8")]
    ranks = vocab.merge_ranks
    while len(symbols) > 1:
        best = min(zip(symbols, symbols[1:]), key=lambda p: ranks.get(p, float("inf")))
        if best not in ranks:
            break
        left, right = best
        merged: list[str] = []
        for symbol in symbols:  # left to right; a merged symbol never equals left
            if merged and merged[-1] == left and symbol == right:
                merged[-1] = left + right
            else:
                merged.append(symbol)
        symbols = merged
    try:
        return tuple([vocab.token_to_id[symbol] for symbol in symbols])
    except KeyError as missing:
        raise VocabularyIntegrityError(f"symbol {missing.args[0]!r} not covered by the vocabulary") from None


def _joins(chunk: str) -> bool:
    r"""Whether a chunk of `text.split(" ")` belongs to the word before it: empty, or led by whitespace.
    No pretoken spans the other cuts: `\s+(?!\S)` backtracks off the space; the rest take at most a
    leading space."""
    return not chunk or chunk[0].isspace()


@dataclass
class WordVocabulary(_TokenTable):
    """Whitespace word-level fallback with a corpus-built id map.

    Unknown words map to the reserved <unk> entry.  Round trips are exact
    only up to whitespace normalization; the BPE path is the lossless one.
    """

    UNK = "<unk>"

    def encode(self, text: str, max_len: int = DEFAULT_MAX_LEN) -> list[int]:
        if max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {max_len}")
        words = text.split()
        if not words:
            raise EmptyInputError("cannot encode an empty text")
        unk = self.token_to_id[self.UNK]
        return [self.token_to_id.get(w, unk) for w in words[:max_len]]

    def decode(self, ids: list[int]) -> str:
        return " ".join(self._tokens(ids))

    def pieces(self, ids: list[int]) -> list[str]:
        """`decode([i])` for each id in `ids`: its token."""
        return self._tokens(ids)

    def save(self, path: str) -> None:
        """Write {"kind": "word", "tokens": [...]}, a token's id being its index.  A table whose
        ids are not 0..n-1, or that `load` would refuse, raises before any file is made."""
        ids = self.token_to_id
        tokens = sorted(ids, key=ids.__getitem__)
        raw = {"kind": "word", "tokens": tokens}
        if self._from_json(path, raw) != self:
            token = next(t for i, t in enumerate(tokens) if ids[t] != i)
            raise VocabularyIntegrityError(
                f"{path}: ids must cover [0, {len(tokens)}) once each, but {token!r} has id {ids[token]!r}"
            )
        with open_atomic(path) as fh:
            json.dump(raw, fh, ensure_ascii=False)

    @classmethod
    def load(cls, path: str) -> "WordVocabulary":
        """Read the token list `save` writes, or a {"kind": "word", "token_to_id": {...}} table."""
        return cls._from_json(path, read_json(path, VocabularyFormatError))

    @classmethod
    def _from_json(cls, path: str, raw) -> "WordVocabulary":
        if not isinstance(raw, dict) or raw.get("kind") != "word":
            raise VocabularyFormatError(f"{path}: not a word-level vocabulary file")
        if "tokens" in raw and "token_to_id" in raw:
            raise VocabularyFormatError(f"{path}: both a 'tokens' list and a 'token_to_id' table")
        if "tokens" in raw:
            token_to_id = _listed_ids(path, raw["tokens"])
        elif "token_to_id" in raw:
            token_to_id = _token_ids(path, raw["token_to_id"])
        else:
            raise VocabularyFormatError(f"{path}: no 'token_to_id' table or 'tokens' list")
        if cls.UNK not in token_to_id:
            raise VocabularyIntegrityError(f"{path}: no {cls.UNK!r} entry")
        return cls(token_to_id=token_to_id)


def _listed_ids(path: str, tokens) -> dict[str, int]:
    """Check a JSON token list, a token's id being its index: distinct strings."""
    if not isinstance(tokens, list):
        raise VocabularyFormatError(f"{path}: 'tokens' is not a list")
    if not set(map(type, tokens)) <= {str}:
        index, token = next((i, t) for i, t in enumerate(tokens) if type(t) is not str)
        raise VocabularyFormatError(f"{path}: token {index} is {token!r}, not a string")
    token_to_id = dict(zip(tokens, range(len(tokens))))
    if len(token_to_id) != len(tokens):  # a repeated token keeps the id of its last copy
        duplicate = next(t for i, t in enumerate(tokens) if token_to_id[t] != i)
        raise VocabularyIntegrityError(f"{path}: duplicate token {duplicate!r}")
    return token_to_id


def build_word_vocabulary(texts) -> WordVocabulary:
    """Assign ids to the sorted unique whitespace tokens of a corpus."""
    tokens = list(dict.fromkeys([WordVocabulary.UNK, *sorted({w for text in texts for w in text.split()})]))
    return WordVocabulary(token_to_id=dict(zip(tokens, range(len(tokens)))))
