"""Rewrite `tests/golden.json` from the current code.

    python3 tests/regenerate_golden.py

Run it only in a change that alters output bytes on purpose, and say in
that change which files moved and why; `tests/test_golden.py` never
rewrites the file itself.
"""

import json
import tempfile

from golden_chain import GOLDEN, hashes

if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        result = hashes(directory)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(f"wrote {len(result['files'])} hashes (numpy {result['numpy']}) to {GOLDEN}")
