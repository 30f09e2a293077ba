"""Every source file parses at the oldest Python that pyproject.toml allows."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_file_parses_at_the_requires_python_floor():
    # ast rejects newer syntax, such as 3.11's except*, at an older feature_version
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"',
                      (ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    version = (int(floor[1]), int(floor[2]))
    files = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=version)
