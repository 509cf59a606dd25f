"""``grep -rnI`` for the structural tests: the text lines under a path that match.

A file holding a NUL byte is binary and skipped (bytecode caches, for
one), as ``grep -I`` skips it; other bytes that are not UTF-8 are read as
replacement characters, so such a file is still searched.  The test file
that spells a pattern passes itself as ``skip``: it is the one text file
its own scans leave out.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def text_files(scope: Path, skip: str):
    """``(path, text)`` for ``scope`` itself if it is a file, else for every
    file under it, that holds no NUL byte, except ``skip``."""
    skipped = Path(skip).resolve()
    paths = [scope] if scope.is_file() else sorted(scope.rglob("*"))
    for path in paths:
        if path.is_file() and path.resolve() != skipped:
            data = path.read_bytes()
            if b"\0" not in data:
                yield path, data.decode("utf-8", errors="replace")


def matching_lines(scope: Path, pattern: re.Pattern, skip: str) -> list[str]:
    """Every text line under ``scope`` that ``pattern`` matches, as ``path:line: text``."""
    files = list(text_files(scope, skip))
    assert files, scope
    return [
        f"{path.relative_to(ROOT)}:{number}: {line.strip()}"
        for path, text in files
        for number, line in enumerate(text.splitlines(), start=1)
        if pattern.search(line)
    ]
