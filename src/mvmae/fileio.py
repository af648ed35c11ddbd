"""File access shared by every reader and writer: outside input that
cannot be read raises the caller's typed error, and outputs are replaced
whole."""

from __future__ import annotations

import contextlib
import os
from collections.abc import Sequence
from pathlib import Path


@contextlib.contextmanager
def _input_errors(path: Path, error: type[Exception], what: str):
    """Raise `error`, with the path in its message, for a missing,
    unreadable or undecodable input met inside the block."""
    try:
        yield
    except FileNotFoundError:
        raise error(f"{what} not found: {path}") from None
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path} is not text: {exc}") from None


def read_input(path: str | Path, error: type[Exception], what: str) -> str:
    """The text of an input file. A missing, unreadable or undecodable file
    raises `error` with the path in its message."""
    path = Path(path)
    with _input_errors(path, error, what):
        return path.read_text()


@contextlib.contextmanager
def open_input(path: str | Path, error: type[Exception], what: str):
    """An input file open for binary reading, for the length of the block.
    Failing to open it, or a read inside the block that fails, raises
    `error` with the path in its message."""
    path = Path(path)
    with _input_errors(path, error, what), path.open("rb") as fh:
        yield fh


def write_atomic(path: str | Path, data: bytes | str | Sequence) -> None:
    """Create the parent directory, write a temp file beside `path`, fsync
    it, rename it over `path`, then fsync the directory so that the rename
    survives a power loss. A crash at any instant leaves the old file or the
    new one. A failed write removes the temp file and re-raises.

    `data` is text (written as utf-8), one bytes-like buffer, or a list or
    tuple of C-contiguous buffers (bytes, ndarrays) that are written in
    order, one `write` each, so the file is their concatenation without
    ever joining them in memory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    scratch = path.with_name(path.name + ".tmp")
    try:
        with open(scratch, "wb") as fh:
            if isinstance(data, str):
                data = data.encode("utf-8")
            for chunk in data if isinstance(data, (list, tuple)) else (data,):
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(scratch, path)
    except BaseException:
        with contextlib.suppress(OSError):
            scratch.unlink()
        raise
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)
