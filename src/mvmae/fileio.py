"""File access shared by every reader and writer: outside input that
cannot be read raises the caller's typed error, and outputs are replaced
whole."""

from __future__ import annotations

import contextlib
import os
from pathlib import Path


def read_input(path: str | Path, error: type[Exception], what: str, binary: bool = False):
    """The text (or bytes) of an input file. A missing, unreadable or
    undecodable file raises `error` with the path in its message."""
    path = Path(path)
    try:
        return path.read_bytes() if binary else path.read_text()
    except FileNotFoundError:
        raise error(f"{what} not found: {path}") from None
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path} is not text: {exc}") from None


def write_atomic(path: str | Path, data: bytes | str) -> None:
    """Create the parent directory, write a temp file beside `path`, fsync
    it, then rename it over `path`, so a crash at any instant leaves the old
    file or the new one. A failed write removes the temp file and re-raises."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    scratch = path.with_name(path.name + ".tmp")
    try:
        with open(scratch, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(scratch, path)
    except BaseException:
        with contextlib.suppress(OSError):
            scratch.unlink()
        raise
