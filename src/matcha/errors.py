"""Exception hierarchy shared by all matcha modules, the atomic writer, and the one reader of the
text and JSON files matcha takes in: how their bytes become values, and how bad input is reported."""

import contextlib
import json
import os
import sys


class MatchaError(Exception):
    """Base class for all errors raised by this package."""


class EmptyInputError(MatchaError):
    """Raised when a text or tensor that must be non-empty is empty."""


class TextEncodingError(MatchaError):
    """Raised when a text holds a code point UTF-8 cannot encode (a lone surrogate); names its position."""


class DegenerateRepresentationError(MatchaError):
    """Raised when a pooled document vector has zero norm, making cosine undefined."""


class VocabularyFormatError(MatchaError):
    """Malformed vocabulary or merges file; message names the file and line/offset."""


class VocabularyIntegrityError(MatchaError):
    """Internally inconsistent vocabulary (duplicate ids, merge result missing, ...)."""


class TokenRangeError(MatchaError):
    """Token id outside [0, vocab_size)."""


class ShapeError(MatchaError):
    """Tensor dimensions inconsistent with the model hyperparameters."""


class NumericError(MatchaError):
    """Non-finite value produced where a finite one is required."""


class SchemaError(MatchaError):
    """A JSONL record violates the corpus schema; message names the line."""


class InsufficientCorpusError(MatchaError):
    """Too few records to construct the requested triplets."""


class CheckpointFormatError(MatchaError):
    """Checkpoint container is malformed (bad magic, version, or truncation)."""


class CheckpointIntegrityError(MatchaError):
    """Checkpoint manifest disagrees with the stored tensors."""


class ConfigError(MatchaError):
    """Invalid run configuration; message enumerates every problem found."""


def read_lines(path: str, error: type[MatchaError]):
    """Yield (line number, text) of a UTF-8 file one line at a time, without its ending, never
    holding the whole file.  "\n", "\r\n" and a lone "\r" each end a line.  An undecodable
    byte raises `error`, after the lines before it, naming the file, the line and the byte's offset."""
    offset = 0
    lineno = 0
    with open(path, "rb") as fh:
        for chunk in fh:
            for raw in chunk.splitlines(keepends=True):
                lineno += 1
                try:
                    line = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise error(f"{path}: line {lineno}: not UTF-8 at byte {offset + exc.start}") from None
                offset += len(raw)
                yield lineno, line.rstrip("\r\n")


def parse_json(text: str, error: type[MatchaError], path: str, lineno: int | None = None):
    """Decode one JSON value read from `path` (a file, or a part of one): all of it, or its line `lineno`.

    Malformed JSON, an integer longer than Python's int-string digit limit and
    nesting deeper than the recursion limit each raise `error` naming the file.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        reason = f"at line {exc.lineno}, column {exc.colno}" if lineno is None else f"({exc.msg})"
    except ValueError:  # an integer longer than Python reads from a string
        reason = f"(an integer of more than {sys.get_int_max_str_digits()} digits)"
    except RecursionError:
        reason = "(nested too deeply)"
    where = path if lineno is None else f"{path}: line {lineno}"
    raise error(f"{where}: invalid JSON {reason}")


def read_json(path: str, error: type[MatchaError]):
    """The value of a UTF-8 JSON file; bad bytes or bad JSON raise `error` naming the file and where."""
    return parse_json("\n".join(line for _, line in read_lines(path, error)), error, path)


def read_jsonl(path: str, error: type[MatchaError]):
    """Yield (line number, value) for each non-blank line of a JSON Lines file, read by `read_lines`."""
    for lineno, line in read_lines(path, error):
        if line.strip():
            yield lineno, parse_json(line, error, path, lineno)


def refuse_lone_surrogate(value, where: str, key: str) -> None:
    """Raise SchemaError at `where` if `value` is a string holding a lone surrogate, which UTF-8 cannot encode:
    a JSON escape such as "\\ud800" decodes to one."""
    if isinstance(value, str) and not value.isascii():
        try:
            value.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise SchemaError(f"{where}: {key!r} holds a lone surrogate at character {exc.start}") from None


def is_number(value, *, finite: bool = True) -> bool:
    """Whether a decoded JSON value is a number that converts to a float: not a bool, nor an
    integer beyond the float range.  With `finite`, NaN and inf are refused too (NaN fails `<=`)."""
    return (type(value) is float and not finite) or (type(value) in (int, float) and abs(value) <= sys.float_info.max)


@contextlib.contextmanager
def open_atomic(path: str, mode: str = "w"):
    """Write `path` through a new file beside it ("w" text in UTF-8, or "wb").

    The file replaces `path` when the block ends and is removed if the block
    raises, so `path` is never left half written.  It is created with mode
    0o666 less the umask, as `open` would create `path` itself.
    """
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".matcha-{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
