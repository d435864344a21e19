import inspect
import json
import os
import re
from itertools import islice, product

import numpy as np
import pytest

from conftest import SP, random_utf8_text
from matcha.errors import (
    EmptyInputError,
    TextEncodingError,
    TokenRangeError,
    VocabularyFormatError,
    VocabularyIntegrityError,
)
from matcha import tokenizer
from matcha.tokenizer import (
    Vocabulary,
    WordVocabulary,
    build_word_vocabulary,
    byte_to_unicode,
    load_vocabulary,
)
from oracles import bpe_decode_map, bpe_encode_naive, bpe_encode_word_loop, pieces_per_id, words


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadVocabulary:
    def test_minimal_vocab(self, tmp_path):
        vocab_path = _write(tmp_path / "v.json", json.dumps({"a": 0, "b": 1, "c": 2}))
        merges_path = _write(tmp_path / "m.txt", "#header\n")
        vocab = load_vocabulary(vocab_path, merges_path)
        assert vocab.vocab_size == 3
        assert vocab.merges == []

    def test_merge_result_missing_from_vocab(self, tmp_path):
        vocab_path = _write(tmp_path / "v.json", json.dumps({"a": 0, "b": 1}))
        merges_path = _write(tmp_path / "m.txt", "#header\na b\n")
        with pytest.raises(VocabularyIntegrityError, match="'ab'"):
            load_vocabulary(vocab_path, merges_path)

    def test_duplicate_id(self, tmp_path):
        vocab_path = _write(tmp_path / "v.json", json.dumps({"a": 0, "b": 0}))
        merges_path = _write(tmp_path / "m.txt", "#header\n")
        with pytest.raises(VocabularyIntegrityError, match="duplicate id"):
            load_vocabulary(vocab_path, merges_path)

    def test_sparse_ids_rejected(self, tmp_path):
        vocab_path = _write(tmp_path / "v.json", json.dumps({"a": 0, "b": 2}))
        merges_path = _write(tmp_path / "m.txt", "#header\n")
        with pytest.raises(VocabularyIntegrityError):
            load_vocabulary(vocab_path, merges_path)

    def test_malformed_json_names_line(self, tmp_path):
        vocab_path = _write(tmp_path / "v.json", '{"a": 0,\n "b": }')
        merges_path = _write(tmp_path / "m.txt", "#header\n")
        with pytest.raises(VocabularyFormatError, match="line 2"):
            load_vocabulary(vocab_path, merges_path)

    def test_malformed_merge_line(self, tmp_path):
        vocab_path = _write(tmp_path / "v.json", json.dumps({"a": 0}))
        merges_path = _write(tmp_path / "m.txt", "#header\na b c\n")
        with pytest.raises(VocabularyFormatError, match="m.txt:2"):
            load_vocabulary(vocab_path, merges_path)

    def test_full_fixture_loads(self, bpe_vocab):
        assert bpe_vocab.vocab_size == 256 + len(bpe_vocab.merges)

    def test_non_utf8_vocab_names_byte_offset(self, tmp_path):
        vocab_path = tmp_path / "v.json"
        vocab_path.write_bytes(b'{"a": 0, "\xe9": 1}')
        merges_path = _write(tmp_path / "m.txt", "#header\n")
        with pytest.raises(VocabularyFormatError, match=r"v\.json: line 1: not UTF-8 at byte 10"):
            load_vocabulary(str(vocab_path), merges_path)

    @pytest.mark.parametrize("token", ["a b", "\t", "\x7f", "\xad", "\u0144", "\u2603"])
    def test_token_outside_byte_alphabet(self, tmp_path, token):
        # Only the 256 byte stand-ins may appear in a token: a space, a control character, the soft
        # hyphen, the first character past the shifted stand-ins, a snowman.
        byte_encoder = byte_to_unicode()
        tokens = [byte_encoder[b] for b in range(256)] + [token]
        vocab_path = _write(tmp_path / "encoder.json", json.dumps(dict(zip(tokens, range(257)))))
        merges_path = _write(tmp_path / "m.txt", "#header\n")
        with pytest.raises(VocabularyIntegrityError, match=rf"encoder\.json: token {re.escape(repr(token))} holds"):
            load_vocabulary(vocab_path, merges_path)

    @pytest.mark.parametrize("token", ["\u2603", "a b"])
    def test_token_outside_byte_alphabet_last_of_a_large_table(self, tmp_path, token):
        # 50,000 tokens of two stand-ins each, then one that holds a character outside them.
        tokens = list(map("".join, islice(product(byte_to_unicode().values(), repeat=2), 50_000)))
        vocab_path = _write(tmp_path / "encoder.json", json.dumps(dict(zip(tokens + [token], range(50_001)))))
        merges_path = _write(tmp_path / "m.txt", "#header\n")
        with pytest.raises(VocabularyIntegrityError,
                           match=rf"^{re.escape(vocab_path)}: token {re.escape(repr(token))} holds"):
            load_vocabulary(vocab_path, merges_path)
        assert load_vocabulary(_write(tmp_path / "ok.json", json.dumps(dict(zip(tokens, range(50_000))))),
                               merges_path).vocab_size == 50_000

    def test_non_utf8_merges_names_byte_offset(self, tmp_path):
        vocab_path = _write(tmp_path / "v.json", json.dumps({"a": 0, "b": 1, "ab": 2}))
        merges_path = tmp_path / "m.txt"
        merges_path.write_bytes(b"#header\na b\n\xc3(\n")
        with pytest.raises(VocabularyFormatError, match=r"m\.txt: line 3: not UTF-8 at byte 12"):
            load_vocabulary(vocab_path, str(merges_path))


class TestEncode:
    def test_empty_text(self, bpe_vocab):
        with pytest.raises(EmptyInputError):
            bpe_vocab.encode("")

    def test_single_char_no_merges(self, bpe_vocab):
        ids = bpe_vocab.encode("q")
        assert ids == [bpe_vocab.token_to_id["q"]]

    def test_merges_fire(self, bpe_vocab):
        # "t h" outranks the space merges in the fixture, so " the" stays
        # two tokens: the space, then the fully merged word.
        assert bpe_vocab.encode("the") == [bpe_vocab.token_to_id["the"]]
        assert bpe_vocab.encode(" the") == [
            bpe_vocab.token_to_id[SP],
            bpe_vocab.token_to_id["the"],
        ]

    def test_matches_naive_oracle_on_sentences(self, bpe_vocab, bpe_files):
        sentences = [
            "the cat sat on the mat",
            "hello world",
            "this and that, or the other!",
            "  leading and   internal spaces ",
            "tab\tand\nnewline",
            "numbers 12345 mixed with words",
            "don't stop, it's fine",
            "ünïcödé wörds përsist",
        ]
        for text in sentences:
            expected = bpe_encode_naive(bpe_files.merges, bpe_files.token_to_id, text, 512)
            assert bpe_vocab.encode(text) == expected, text

    def test_determinism(self, bpe_vocab):
        text = "the world and his cat"
        assert bpe_vocab.encode(text) == bpe_vocab.encode(text)

    def test_truncation(self, bpe_vocab):
        text = " ".join(["word"] * 50)
        assert len(bpe_vocab.encode(text, max_len=7)) == 7

    def test_bad_max_len(self, bpe_vocab):
        with pytest.raises(ValueError):
            bpe_vocab.encode("a", max_len=0)


def _repeating_texts(rng, n_texts: int = 40) -> list[str]:
    """Texts drawn from a small pool of words and marks, so pretokens repeat."""
    pool = ["the", "cat", "sat", "on", "mat", "hello", "world", "and", "is",
            "12", "345", ",", "!", "don't", "ünï", "日本", "🙂", "\t", "\n"]
    texts = []
    for _ in range(n_texts):
        words = [pool[int(i)] for i in rng.integers(0, len(pool), int(rng.integers(1, 30)))]
        texts.append(" ".join(words))
    return texts


class TestPretokenMemo:
    """Encoding memoizes each pretoken's ids on its vocabulary; ids never change."""

    @pytest.fixture()
    def fresh_vocab(self, bpe_files):
        return load_vocabulary(bpe_files.vocab_path, bpe_files.merges_path)

    @pytest.mark.parametrize("max_len", [1, 2, 5, 17, 512])
    def test_cold_and_warm_match_naive(self, bpe_files, fresh_vocab, max_len):
        texts = _repeating_texts(np.random.default_rng(max_len))
        expected = [bpe_encode_naive(bpe_files.merges, bpe_files.token_to_id, t, max_len) for t in texts]
        assert [fresh_vocab.encode(t, max_len) for t in texts] == expected
        assert fresh_vocab._pretoken_ids
        assert [fresh_vocab.encode(t, max_len) for t in texts] == expected

    def test_instances_do_not_share(self, bpe_files, fresh_vocab):
        other = load_vocabulary(bpe_files.vocab_path, bpe_files.merges_path)
        fresh_vocab.encode("the cat sat on the mat")
        assert fresh_vocab._pretoken_ids and not other._pretoken_ids
        assert fresh_vocab == other
        assert repr(fresh_vocab) == repr(other)

    def test_results_survive_clearing(self, bpe_files, fresh_vocab, monkeypatch):
        monkeypatch.setattr(tokenizer, "PRETOKEN_MEMO_SIZE", 3)
        texts = _repeating_texts(np.random.default_rng(9))
        for _ in range(2):
            for text in texts:
                expected = bpe_encode_naive(bpe_files.merges, bpe_files.token_to_id, text, 512)
                assert fresh_vocab.encode(text) == expected
                assert len(fresh_vocab._chunk_ids) + len(fresh_vocab._pretoken_ids) <= 3

    def test_uncovered_pretoken_raises_every_time_and_is_not_stored(self):
        byte_encoder = byte_to_unicode()
        vocab = Vocabulary(token_to_id={byte_encoder[b]: i for i, b in enumerate(b"abc")}, merges=[])
        for _ in range(3):
            with pytest.raises(VocabularyIntegrityError, match="not covered"):
                vocab.encode("ab!c")
        assert "!" not in vocab._pretoken_ids
        assert vocab._pretoken_ids == {"ab": (0, 1)}


# Every code point `str.isspace()` accepts; the cut rule (`tokenizer._joins`, `oracles.words`) relies
# on it being exactly the set the pretoken pattern's `\s` matches.
SPACES = [chr(c) for c in range(0x110000) if chr(c).isspace()]


def _word_texts(rng, n_texts: int, spaces: list[str]) -> list[str]:
    """Texts of spaces, letters, digits, 's, punctuation and the given whitespace."""
    pool = [" ", " ", " ", "  ", "the", "cat", "é", "日本", "7", "42", "'s", "'t", ",", "!?", "_", "-"]
    pool += spaces
    return ["".join(pool[int(i)] for i in rng.integers(0, len(pool), int(rng.integers(1, 40))))
            for _ in range(n_texts)]


def _abc_vocab() -> Vocabulary:
    """The bytes of "abc " and no merges."""
    byte_encoder = byte_to_unicode()
    return Vocabulary(token_to_id={byte_encoder[b]: i for i, b in enumerate(b"abc ")}, merges=[])


class TestWordMemo:
    """Encoding memoizes whole space-delimited words next to their pretokens; ids never change."""

    @pytest.fixture()
    def fresh_vocab(self, bpe_files):
        return load_vocabulary(bpe_files.vocab_path, bpe_files.merges_path)

    def test_backslash_s_is_isspace(self):
        assert re.findall(r"\s", "".join(map(chr, range(0x110000)))) == SPACES

    @pytest.mark.parametrize("space", SPACES, ids=[f"U+{ord(c):04X}" for c in SPACES])
    def test_words_split_the_pretokens(self, space):
        rng = np.random.default_rng(ord(space))
        for text in _word_texts(rng, 60, [space, space + space, space + " "]):
            cut = words(text)
            assert "".join(cut) == text
            # cut before every space that precedes a non-whitespace character, and nowhere else
            assert all(re.match(r" \S", w) for w in cut[1:])
            assert not any(re.search(r".(?= \S)", w, re.DOTALL) for w in cut)
            chunks = text.split(" ")[1:]
            assert [tokenizer._joins(c) for c in chunks] == [not re.match(r"\S", c) for c in chunks]
            pieces = [p for word in cut for p in tokenizer._PRETOKEN.findall(word)]
            assert pieces == tokenizer._PRETOKEN.findall(text), text

    @pytest.mark.parametrize("max_len", [1, 2, 5, 17, 512])
    def test_cold_warm_and_cleared_match_naive(self, bpe_files, fresh_vocab, max_len, monkeypatch):
        texts = _word_texts(np.random.default_rng(max_len), 80, SPACES)
        expected = [bpe_encode_naive(bpe_files.merges, bpe_files.token_to_id, t, max_len) for t in texts]
        assert [fresh_vocab.encode(t, max_len) for t in texts] == expected
        assert [fresh_vocab.encode(t, max_len) for t in texts] == expected
        monkeypatch.setattr(tokenizer, "PRETOKEN_MEMO_SIZE", 3)
        fresh_vocab._chunk_ids.clear()
        fresh_vocab._pretoken_ids.clear()
        for _ in range(2):
            for text, ids in zip(texts, expected):
                assert fresh_vocab.encode(text, max_len) == ids
                assert len(fresh_vocab._chunk_ids) + len(fresh_vocab._pretoken_ids) <= 3

    def test_warm_words_skip_the_pretokenizer(self, fresh_vocab, monkeypatch):
        texts = _word_texts(np.random.default_rng(3), 40, ["\t", "\n", "　"])
        cold = [fresh_vocab.encode(t) for t in texts]
        assert " the" in fresh_vocab._pretoken_ids
        calls = []

        class Counting:
            def findall(self, text):
                calls.append(text)
                return re.findall(tokenizer._PRETOKEN.pattern, text)

        monkeypatch.setattr(tokenizer, "_PRETOKEN", Counting())
        assert [fresh_vocab.encode(t) for t in texts] == cold
        assert calls == []

    def test_random_merge_lists_match_naive(self):
        # Many merges over three letters, so merged symbols sit next to the pair being merged.
        rng = np.random.default_rng(11)
        byte_encoder = byte_to_unicode()
        for _ in range(20):
            tokens = [byte_encoder[b] for b in range(256)]
            pieces, merges = list("abc"), []
            while len(merges) < 30:
                left, right = (pieces[int(i)] for i in rng.integers(0, len(pieces), 2))
                if left + right not in pieces:
                    pieces.append(left + right)
                    merges.append((left, right))
            token_to_id = {t: i for i, t in enumerate(tokens + [a + b for a, b in merges])}
            vocab = Vocabulary(token_to_id=token_to_id, merges=merges)
            texts = ["".join(rng.choice(list("abc  "), int(rng.integers(1, 30)))) for _ in range(30)]
            expected = [bpe_encode_naive(merges, token_to_id, t, 512) for t in texts]
            assert [vocab.encode(t) for t in texts] == expected
            assert [vocab.encode(t) for t in texts] == expected

    def test_cut_word_with_uncovered_symbol_past_the_cut(self):
        vocab = _abc_vocab()
        # words "ab" and " ca!b"; the cut falls inside " ca", before the uncovered "!"
        for _ in range(2):
            assert vocab.encode("ab ca!b", max_len=4) == [0, 1, 3, 2]
            assert vocab.encode("ab ca!b", max_len=2) == [0, 1]
        assert vocab._pretoken_ids == {"ab": (0, 1), " ca": (3, 2, 0)}
        with pytest.raises(VocabularyIntegrityError, match="not covered"):
            vocab.encode("ab ca!b", max_len=6)
        assert " ca!b" not in vocab._pretoken_ids
        assert vocab._chunk_ids == {}

    def test_word_with_uncovered_symbol_raises_every_time_and_is_not_stored(self):
        vocab = _abc_vocab()
        for _ in range(3):
            with pytest.raises(VocabularyIntegrityError, match="not covered"):
                vocab.encode("ab c!a ba")
        assert vocab._pretoken_ids == {"ab": (0, 1), " c": (3, 2)}
        assert vocab.encode("ab ba") == [0, 1, 3, 1, 0]


class TestChunkMemo:
    """`encode` against the word loop it replaced (`oracles.bpe_encode_word_loop`) and the naive oracle:
    the same ids, and, with no clear, the same memo once chunk keys are read as " " + chunk."""

    @pytest.fixture()
    def fresh_vocab(self, bpe_files):
        return load_vocabulary(bpe_files.vocab_path, bpe_files.merges_path)

    @staticmethod
    def _as_word_memo(vocab) -> dict:
        return {**{" " + chunk: ids for chunk, ids in vocab._chunk_ids.items()}, **vocab._pretoken_ids}

    def _check(self, vocab, memo, texts, max_len, bpe_files=None):
        for text in texts:
            ids = vocab.encode(text, max_len)
            assert ids == bpe_encode_word_loop(vocab, memo, text, max_len), text
            if bpe_files is not None:
                assert ids == bpe_encode_naive(bpe_files.merges, bpe_files.token_to_id, text, max_len), text
        assert self._as_word_memo(vocab) == memo

    @pytest.mark.parametrize("space", SPACES, ids=[f"U+{ord(c):04X}" for c in SPACES])
    def test_every_whitespace(self, bpe_files, fresh_vocab, space):
        texts = _word_texts(np.random.default_rng(ord(space)), 30, [space, space + space, space + " "])
        memo: dict = {}
        for max_len in (3, 512, 512):
            self._check(fresh_vocab, memo, texts, max_len, bpe_files)

    @pytest.mark.parametrize("max_len", [1, 2, 5, 17, 512])
    def test_partly_warm_memos(self, bpe_files, fresh_vocab, max_len):
        # Each round meets some words the rounds before stored and some they did not.
        rng = np.random.default_rng(100 + max_len)
        memo: dict = {}
        for _ in range(4):
            self._check(fresh_vocab, memo, _word_texts(rng, 15, SPACES), max_len, bpe_files)

    def test_texts_longer_than_max_len(self, bpe_files, fresh_vocab):
        rng = np.random.default_rng(5)
        texts = [" ".join(_word_texts(rng, 12, ["\n", "\t"])) for _ in range(10)]
        memo: dict = {}
        for max_len in (8, 40, 8, 40):
            self._check(fresh_vocab, memo, texts, max_len, bpe_files)
            assert all(len(fresh_vocab.encode(t, max_len)) == max_len for t in texts)

    @pytest.mark.parametrize("max_len, stored", [
        (4, set()),          # inside the known run " ab ab"
        (8, set()),          # just before the unknown word " ca!b": " ca" is not merged
        (10, {" ca"}),       # inside " ca!b", before its uncovered "!": no raise, the word is not stored
    ], ids=["in-known-run", "before-unknown", "in-unknown"])
    def test_max_len_cuts(self, max_len, stored):
        vocab = _abc_vocab()
        memo: dict = {}
        text = "ab ab ab ca!b"
        self._check(vocab, memo, ["ab ab"], 512)
        for _ in range(2):
            self._check(vocab, memo, [text], max_len)
        assert set(vocab._pretoken_ids) == {"ab", " ab"} | stored
        assert vocab._chunk_ids == {"ab": (3, 0, 1)}
        with pytest.raises(VocabularyIntegrityError, match="not covered"):
            vocab.encode(text, 12)

    @pytest.mark.parametrize("text, at", [("a\udcffb", 1), ("ab c\ud800d", 4), ("\udfff", 0)])
    def test_lone_surrogate_names_its_position_and_is_not_stored(self, fresh_vocab, text, at):
        for _ in range(2):
            with pytest.raises(TextEncodingError, match=f"character {at} of the text is a lone surrogate"):
                fresh_vocab.encode(text)
        stored = set(fresh_vocab._chunk_ids) | set(fresh_vocab._pretoken_ids)
        assert not any(re.search("[\ud800-\udfff]", key) for key in stored), stored

    def test_lone_surrogate_past_the_cut_does_not_raise(self, fresh_vocab):
        assert fresh_vocab.encode("ab c\ud800d", 3) == fresh_vocab.encode("ab cd", 3)
        assert "c\ud800d" not in fresh_vocab._chunk_ids


class TestLazyInverse:
    """Both vocabularies build id -> token on first decode; == and repr see only the table."""

    @pytest.mark.parametrize("kind", ["bpe", "word"])
    def test_built_on_first_decode(self, bpe_files, tmp_path, kind):
        if kind == "bpe":
            first, second = (load_vocabulary(bpe_files.vocab_path, bpe_files.merges_path) for _ in range(2))
        else:
            path = str(tmp_path / "w.json")
            build_word_vocabulary(["the cat sat", "a dog"]).save(path)
            first, second = WordVocabulary.load(path), WordVocabulary.load(path)
        assert "id_to_token" not in vars(first)
        ids = first.encode("the cat")
        assert second.decode(ids) == first.decode(ids)
        assert "id_to_token" in vars(first)
        assert first.id_to_token == {i: t for t, i in first.token_to_id.items()}
        assert first == second and repr(first) == repr(second)
        with pytest.raises(TokenRangeError, match=f"id {first.vocab_size} outside"):
            first.decode([0, first.vocab_size])

    def test_word_load_is_a_classmethod(self):
        assert isinstance(inspect.getattr_static(WordVocabulary, "load"), classmethod)


class TestDecode:
    def test_round_trip_hello_world(self, bpe_vocab):
        assert bpe_vocab.decode(bpe_vocab.encode("hello world")) == "hello world"

    def test_round_trip_multibyte(self, bpe_vocab):
        text = "héllo wörld — ça va? 日本語 🙂"
        assert bpe_vocab.decode(bpe_vocab.encode(text)) == text

    def test_unknown_id(self, bpe_vocab):
        with pytest.raises(TokenRangeError):
            bpe_vocab.decode([bpe_vocab.vocab_size])

    def test_token_outside_byte_alphabet(self):
        # A table built directly is not checked; decoding a token that is no run of byte stand-ins
        # raises the error `load_vocabulary` would, naming the token.
        vocab = Vocabulary({"a": 0, "\u2603": 1, "b c": 2}, [])
        assert vocab.decode([0, 0]) == "aa"
        for ids, token in (([0, 1], "'\u2603'"), ([2, 0], "'b c'")):
            for decode in (vocab.decode, vocab.pieces):
                with pytest.raises(VocabularyIntegrityError, match=f"token {token} holds"):
                    decode(ids)

    def test_round_trip_random_strings(self, bpe_vocab):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            text = random_utf8_text(rng)
            assert bpe_vocab.decode(bpe_vocab.encode(text)) == text


class TestPieces:
    """`pieces` and `decode` give, character for character, what the per-character byte map gave."""

    def check(self, vocab, ids):
        assert vocab.pieces(ids) == pieces_per_id(vocab, ids)
        assert vocab.decode(ids) == bpe_decode_map(vocab, ids)

    def test_every_single_byte_token(self, bpe_vocab):
        byte_encoder = byte_to_unicode()
        ids = [bpe_vocab.token_to_id[byte_encoder[b]] for b in range(256)]
        self.check(bpe_vocab, ids)
        # A lone lead or continuation byte is not UTF-8 on its own.
        assert bpe_vocab.pieces(ids) == [chr(b) for b in range(128)] + ["\ufffd"] * 128

    @pytest.mark.parametrize("text, n_bytes", [("é", 2), ("€", 3), ("😀", 4), ("café  Zürich €5", None)])
    def test_characters_split_across_tokens(self, bpe_vocab, text, n_bytes):
        ids = bpe_vocab.encode(text)
        if n_bytes:
            assert len(ids) == n_bytes
            assert bpe_vocab.pieces(ids) == ["\ufffd"] * n_bytes
        self.check(bpe_vocab, ids)
        assert bpe_vocab.decode(ids) == text

    def test_repeated_ids(self, bpe_vocab):
        ids = bpe_vocab.encode("the cat the cat, hello hello é é")
        ids += ids[::-1]
        assert len(set(ids)) < len(ids)
        self.check(bpe_vocab, ids)

    def test_random_texts(self, bpe_vocab):
        rng = np.random.default_rng(33)
        for _ in range(200):
            self.check(bpe_vocab, bpe_vocab.encode(random_utf8_text(rng)))

    def test_custom_byte_encoder(self):
        rng = np.random.default_rng(4)
        # The default stand-ins, shuffled: each character now stands in for another byte.
        default = byte_to_unicode()
        shuffled = dict(zip(range(256), (default[int(b)] for b in rng.permutation(256))))
        # Stand-ins far from the default ones: the printable ASCII characters stand for no byte.
        cjk = {b: chr(0x4E00 + b) for b in range(256)}
        for byte_encoder in (shuffled, cjk):
            tokens = [byte_encoder[b] for b in range(256)]
            tokens += ["".join(byte_encoder[b] for b in word.encode("utf-8")) for word in ("é", "€5", " 😀x")]
            vocab = Vocabulary(dict(zip(tokens, range(len(tokens)))), [], byte_encoder)
            self.check(vocab, [int(i) for i in rng.integers(0, len(tokens), 300)])
            self.check(vocab, list(range(256, len(tokens))))
        with pytest.raises(VocabularyIntegrityError, match="token 'a' holds 'a'"):
            Vocabulary({"a": 0}, [], cjk).pieces([0])

    @pytest.mark.parametrize("bad", [-1, 10**6])
    def test_out_of_range_id(self, bpe_vocab, bad):
        for decode in (bpe_vocab.decode, bpe_vocab.pieces):
            with pytest.raises(TokenRangeError, match=f"id {bad} outside"):
                decode([0, bad])
        with pytest.raises(KeyError):
            bpe_decode_map(bpe_vocab, [0, bad])

    def test_word_vocabulary(self):
        vocab = build_word_vocabulary(["the cat sat", "a dög ran", "日本 語"])
        ids = vocab.encode("the dög the 日本 zebra cat")
        assert vocab.pieces(ids) == pieces_per_id(vocab, ids) == ["the", "dög", "the", "日本", "<unk>", "cat"]
        with pytest.raises(TokenRangeError):
            vocab.pieces([vocab.vocab_size])

    def test_empty(self, bpe_vocab):
        assert bpe_vocab.pieces([]) == [] and bpe_vocab.decode([]) == ""


class TestByteEncoder:
    def test_bijection(self):
        mapping = byte_to_unicode()
        assert len(mapping) == 256
        assert len(set(mapping.values())) == 256
        inverse = {c: b for b, c in mapping.items()}
        for b in range(256):
            assert inverse[mapping[b]] == b


class TestWordVocabulary:
    def test_build_and_round_trip(self):
        vocab = build_word_vocabulary(["the cat sat", "the dog ran"])
        ids = vocab.encode("the cat ran")
        assert vocab.decode(ids) == "the cat ran"

    def test_unknown_maps_to_unk(self):
        vocab = build_word_vocabulary(["a b"])
        assert vocab.encode("zebra") == [vocab.token_to_id[WordVocabulary.UNK]]

    def test_empty_text(self):
        vocab = build_word_vocabulary(["a"])
        with pytest.raises(EmptyInputError):
            vocab.encode("   ")

    def test_truncation(self):
        vocab = build_word_vocabulary(["a b c d e"])
        assert len(vocab.encode("a b c d e", max_len=3)) == 3

    def test_save_load(self, tmp_path):
        vocab = build_word_vocabulary(["the cat sat"])
        path = str(tmp_path / "word.json")
        vocab.save(path)
        loaded = WordVocabulary.load(path)
        assert loaded.token_to_id == vocab.token_to_id

    def test_failed_save_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "word.json"
        build_word_vocabulary(["the cat sat"]).save(str(path))
        before = path.read_bytes()
        # Ordering the tokens by id raises on "b"'s id.
        broken = WordVocabulary(token_to_id={WordVocabulary.UNK: 0, "a": 1, "b": object()})
        with pytest.raises(TypeError):
            broken.save(str(path))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["word.json"]

    @pytest.mark.parametrize("table, error, message", [
        ({WordVocabulary.UNK: 0, "a": 2}, VocabularyIntegrityError,
         r"ids must cover \[0, 2\) once each, but 'a' has id 2"),
        ({WordVocabulary.UNK: 0, "a": 0}, VocabularyIntegrityError, r"once each, but 'a' has id 0"),
        ({WordVocabulary.UNK: 1, "a": 2}, VocabularyIntegrityError, r"once each, but '<unk>' has id 1"),
        ({"a": 0, "b": 1}, VocabularyIntegrityError, r"no '<unk>' entry"),
        ({WordVocabulary.UNK: 0, 5: 1}, VocabularyFormatError, r"token 1 is 5, not a string"),
    ], ids=["gap", "shared-id", "from-one", "no-unk", "int-token"])
    def test_save_refuses_what_load_would_refuse(self, tmp_path, table, error, message):
        path = tmp_path / "word.json"
        build_word_vocabulary(["the cat sat"]).save(str(path))
        before = path.read_bytes()
        with pytest.raises(error, match=r"word\.json: .*" + message):
            WordVocabulary(token_to_id=table).save(str(path))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["word.json"]

    def test_save_writes_a_token_list(self, tmp_path):
        path = tmp_path / "word.json"
        WordVocabulary(token_to_id={"b": 2, WordVocabulary.UNK: 0, "a": 1}).save(str(path))
        assert json.loads(path.read_text(encoding="utf-8")) == {"kind": "word", "tokens": ["<unk>", "a", "b"]}

    def test_both_layouts_load_the_same_vocabulary(self, tmp_path):
        vocab = build_word_vocabulary(["the cat sat", "a dög ran", "日本 語"])
        listed, table = tmp_path / "listed.json", tmp_path / "table.json"
        vocab.save(str(listed))
        # The layout `save` wrote before the token list, byte for byte.
        table.write_text(json.dumps({"kind": "word", "token_to_id": vocab.token_to_id}, ensure_ascii=False),
                         encoding="utf-8")
        first, second = WordVocabulary.load(str(listed)), WordVocabulary.load(str(table))
        assert first == second == vocab
        text = "the dög sat on 日本 zebra"
        assert first.encode(text) == second.encode(text) == vocab.encode(text)

    def test_unknown_id_on_decode(self):
        vocab = build_word_vocabulary(["a"])
        with pytest.raises(TokenRangeError):
            vocab.decode([99])


class TestWordVocabularyLoad:
    """Every malformed word-vocabulary file fails with an error naming the file."""

    def _load(self, tmp_path, content: str):
        return WordVocabulary.load(_write(tmp_path / "word.json", content))

    def test_missing_table(self, tmp_path):
        with pytest.raises(VocabularyFormatError, match=r"word\.json: no 'token_to_id'"):
            self._load(tmp_path, json.dumps({"kind": "word"}))

    def test_table_not_an_object(self, tmp_path):
        with pytest.raises(VocabularyFormatError, match=r"word\.json: expected a JSON object"):
            self._load(tmp_path, json.dumps({"kind": "word", "token_to_id": ["<unk>"]}))

    @pytest.mark.parametrize("bad_id", ["1", 1.0, True, None])
    def test_non_integer_id(self, tmp_path, bad_id):
        table = {"<unk>": 0, "a": bad_id}
        with pytest.raises(VocabularyFormatError, match=r"word\.json: id for token 'a' is not an integer"):
            self._load(tmp_path, json.dumps({"kind": "word", "token_to_id": table}))

    def test_bad_json(self, tmp_path):
        with pytest.raises(VocabularyFormatError, match=r"word\.json: invalid JSON at line 2"):
            self._load(tmp_path, '{"kind": "word",\n "token_to_id": }')

    def test_non_utf8(self, tmp_path):
        path = tmp_path / "word.json"
        path.write_bytes(b'{"kind": "word", "token_to_id": {"\xff": 0}}')
        with pytest.raises(VocabularyFormatError, match=r"word\.json: line 1: not UTF-8 at byte 34"):
            WordVocabulary.load(str(path))

    def test_duplicate_ids(self, tmp_path):
        table = {"<unk>": 0, "a": 1, "b": 1}
        with pytest.raises(VocabularyIntegrityError, match=r"word\.json: duplicate id 1"):
            self._load(tmp_path, json.dumps({"kind": "word", "token_to_id": table}))

    def test_gapped_ids(self, tmp_path):
        table = {"<unk>": 0, "a": 2}
        with pytest.raises(VocabularyIntegrityError, match=r"word\.json: ids must cover \[0, 2\)"):
            self._load(tmp_path, json.dumps({"kind": "word", "token_to_id": table}))

    def test_no_unk(self, tmp_path):
        table = {"a": 0, "b": 1}
        with pytest.raises(VocabularyIntegrityError, match=r"word\.json: no '<unk>' entry"):
            self._load(tmp_path, json.dumps({"kind": "word", "token_to_id": table}))

    def test_tokens_not_a_list(self, tmp_path):
        with pytest.raises(VocabularyFormatError, match=r"word\.json: 'tokens' is not a list"):
            self._load(tmp_path, json.dumps({"kind": "word", "tokens": {"<unk>": 0}}))

    @pytest.mark.parametrize("entry", [None, 1, 1.5, True, ["a"]], ids=["null", "int", "float", "bool", "list"])
    def test_non_string_token(self, tmp_path, entry):
        tokens = ["<unk>", "a", entry, "b", 7]
        message = rf"word\.json: token 2 is {re.escape(repr(entry))}, not a string"
        with pytest.raises(VocabularyFormatError, match=message):
            self._load(tmp_path, json.dumps({"kind": "word", "tokens": tokens}))

    def test_duplicate_token(self, tmp_path):
        tokens = ["<unk>", "a", "b", "c", "b", "a"]
        with pytest.raises(VocabularyIntegrityError, match=r"word\.json: duplicate token 'a'"):
            self._load(tmp_path, json.dumps({"kind": "word", "tokens": tokens}))

    @pytest.mark.parametrize("tokens", [["a", "b"], []], ids=["two-words", "empty"])
    def test_no_unk_in_token_list(self, tmp_path, tokens):
        with pytest.raises(VocabularyIntegrityError, match=r"word\.json: no '<unk>' entry"):
            self._load(tmp_path, json.dumps({"kind": "word", "tokens": tokens}))

    def test_both_layouts_in_one_file(self, tmp_path):
        raw = {"kind": "word", "tokens": ["<unk>"], "token_to_id": {"<unk>": 0}}
        with pytest.raises(VocabularyFormatError, match=r"word\.json: both a 'tokens' list and a 'token_to_id' table"):
            self._load(tmp_path, json.dumps(raw))

    def test_neither_layout(self, tmp_path):
        with pytest.raises(VocabularyFormatError, match=r"word\.json: no 'token_to_id' table or 'tokens' list"):
            self._load(tmp_path, json.dumps({"kind": "word", "words": ["<unk>"]}))
