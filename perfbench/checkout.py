"""Locate the checkout the benchmark runs in and import ``repro`` from it.

The benchmark measures the program in its own checkout, never an
installed copy: ``src/`` of the checkout goes first on ``sys.path``, and
a missing or foreign ``repro`` stops the run with exit code 2 before any
result is printed.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (listed in .gitignore).
STATE_DIR = ROOT / ".perfbench"
#: What a run's work depends on: the program and the input generator.
PROGRAM = (SRC / "repro", Path(__file__).resolve().parent / "workloads.py")


def program_digest(paths: tuple[Path, ...] = PROGRAM) -> str:
    """A content hash of every file under ``paths`` (caches excluded)."""
    h = hashlib.sha256()
    for top in paths:
        files = [top] if top.is_file() else sorted(top.rglob("*"))
        for path in files:
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(top.parent)).encode() + b"\0")
                h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def require_repro() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        sys.stderr.write(f"perfbench: cannot import repro from {SRC}: {exc}\n")
        raise SystemExit(2) from None
    location = Path(repro.__file__).resolve()
    if SRC not in location.parents:
        sys.stderr.write(
            f"perfbench: repro was imported from {location}, not {SRC}\n"
        )
        raise SystemExit(2)
