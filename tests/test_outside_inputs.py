"""Whatever an outside JSON or JSONL file holds, `matcha` exits with a code, never a traceback.

Each example puts a drawn JSON value, a long integer or raw bytes into one
file a command reads (a corpus line, a registry, a `--scores` row, a
`--config` file, a word vocabulary or a checkpoint manifest), either in the
slot of its template or as the whole file, and runs the command in-process.
"""

import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import OUTSIDE_INPUTS, write_outside_input  # noqa: E402
from matcha.cli import main  # noqa: E402

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
