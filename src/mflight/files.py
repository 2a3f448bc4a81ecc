"""The one way mflight writes a file: complete or absent, never partial."""

from __future__ import annotations

import os


def atomic_write(path, text: str) -> None:
    """Write ``text`` to ``path`` through a ``.tmp`` sibling and an atomic rename."""
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)
