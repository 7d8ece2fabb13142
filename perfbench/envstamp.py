"""The environment stamp written into every result record."""

from __future__ import annotations

import hashlib
import os
import platform
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

#: Offset of the confirmation seed: a claim made on ``--seed s`` is
#: confirmed on ``--seed s + CONFIRM_OFFSET``, inputs no change was
#: tuned on.
CONFIRM_OFFSET = 1_000_003


def git_commit(root: Path) -> Optional[str]:
    """HEAD of the checkout's git repository, read from ``.git`` (or None)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        return None
    return None


def source_size(root: Path) -> dict:
    """Non-blank line count and content hash of ``src/**/*.py``."""
    h = hashlib.sha256()
    lines = 0
    for path in sorted((root / "src").rglob("*.py")):
        data = path.read_bytes()
        h.update(str(path.relative_to(root)).encode())
        h.update(data)
        lines += sum(1 for line in data.splitlines() if line.strip())
    return {"src_lines": lines, "src_sha256": h.hexdigest()}


def stamp(root: Path, seed: int, pins: Sequence[str]) -> dict:
    """Everything a result depends on besides the code under test."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "thread_pins": {name: os.environ.get(name) for name in pins},
        "git_commit": git_commit(root),
        **source_size(root),
        "seed": seed,
        "confirm_seed": seed + CONFIRM_OFFSET,
    }


def combine(digests: Sequence[str]) -> str:
    """One digest over the per-round output digests."""
    return hashlib.sha256("".join(digests).encode()).hexdigest()
