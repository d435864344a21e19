"""Whatever an outside file or text holds, `matcha` exits with a code, never a traceback.

Each example puts a drawn JSON value, a long integer or raw bytes into one
file a command reads (a corpus line, a registry, a `--scores` row, a
`--config` file, a word vocabulary, a checkpoint manifest, a BPE encoder or
merges file), either in the slot of its template or as the whole file, and
runs the command in-process.  `tokenize` also takes drawn text, lone
surrogates included, with each kind of vocabulary.
"""

import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import OUTSIDE_INPUTS, write_bpe_files, write_outside_input  # noqa: E402
from matcha.cli import main  # noqa: E402
from matcha.tokenizer import build_word_vocabulary  # noqa: E402

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=10,
)
long_integers = st.builds(lambda sign, digits: sign + digits, st.sampled_from(["", "-"]),
                          st.text("0123456789", min_size=300, max_size=5000))
payloads = st.one_of(json_values.map(json.dumps), long_integers).map(str.encode) | st.binary(max_size=40)


@pytest.mark.parametrize("kind", list(OUTSIDE_INPUTS))
@settings(max_examples=12, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=payloads, whole_file=st.booleans())
def test_any_outside_input_gives_an_exit_code(tmp_path, capsys, kind, payload, whole_file):
    text = payload if whole_file else OUTSIDE_INPUTS[kind][1].encode().replace(b"@", payload)
    _, argv = write_outside_input(tmp_path, kind, text)
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3), code
    assert "Traceback" not in err


# Python hands `main` a command-line byte that is not UTF-8 as a lone surrogate; a library caller can pass any.
texts = st.text(st.characters() | st.characters(categories=["Cs"]), max_size=12)


@pytest.mark.parametrize("vocab", ["bpe", "word"])
@settings(max_examples=12, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=texts)
def test_any_text_gives_an_exit_code(tmp_path, capsys, vocab, text):
    if vocab == "bpe":
        vocab_path, merges_path, _, _ = write_bpe_files(tmp_path)  # every byte is a token
        flags = ["--vocab", vocab_path, "--merges", merges_path]
    else:
        build_word_vocabulary(["the door cat sat"]).save(str(tmp_path / "v.json"))
        flags = ["--vocab", str(tmp_path / "v.json")]
    code = main(["tokenize", *flags, "--", text])
    err = capsys.readouterr().err
    assert code in (0, 1, 2), code
    assert "Traceback" not in err
