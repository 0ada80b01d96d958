"""Make ``perf`` and the checkout's ``repro`` importable for these tests."""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)
