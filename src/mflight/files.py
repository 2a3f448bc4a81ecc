"""How mflight writes a file (complete or absent, never partial) and reads one."""

from __future__ import annotations

import os


def atomic_write(path, text: str) -> None:
    """Write ``text`` to ``path`` through a ``.tmp`` sibling and an atomic rename."""
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def read_text(path, error: type[Exception], what: str) -> str:
    """The text of ``path``; a file that cannot be opened or decoded raises ``error``."""
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
