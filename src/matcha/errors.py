"""Exception hierarchy shared by all matcha modules, the file readers that raise it, and the atomic writer."""

import contextlib
import json
import os


class MatchaError(Exception):
    """Base class for all errors raised by this package."""


class EmptyInputError(MatchaError):
    """Raised when a text or tensor that must be non-empty is empty."""


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


def read_text(path: str, error: type[MatchaError]) -> str:
    """The whole file as UTF-8 text; an undecodable byte raises `error` naming the file and its offset."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 at byte {exc.start}") from None


def read_lines(path: str, error: type[MatchaError]):
    """Yield (line number, text) of a UTF-8 file one line at a time, split as
    `read_text(path, error).split("\n")` splits it (newlines translated, a
    lone "\r" ends a line too) but never holding the whole file.  An
    undecodable byte raises `error` naming the file and its offset in it."""
    offset = 0
    lineno = 0
    with open(path, "rb") as fh:
        for chunk in fh:
            for raw in chunk.splitlines(keepends=True):
                try:
                    line = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise error(f"{path}: not UTF-8 at byte {offset + exc.start}") from None
                offset += len(raw)
                lineno += 1
                yield lineno, line.rstrip("\r\n")


def read_json(path: str, error: type[MatchaError]):
    """Parse a UTF-8 JSON file; bad bytes or bad JSON raise `error` naming the file and where."""
    try:
        return json.loads(read_text(path, error))
    except json.JSONDecodeError as exc:
        raise error(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc


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
