"""Rewrite `tests/golden.json` from the current code.

    python3 tests/regenerate_golden.py

Run it only in a change that alters output bytes on purpose, and say in
that change which files moved and why; `tests/test_golden.py` never
rewrites the file itself. It prints each file whose digest changed, was
added or was removed against the record it replaces, as `old -> new`
(`-` for a file the record lacks or the new run did not write).
"""

import json
import os
import tempfile

from golden_chain import GOLDEN, hashes

if __name__ == "__main__":
    old = {"files": {}, "numpy": "-"}
    if os.path.exists(GOLDEN):
        with open(GOLDEN, encoding="utf-8") as fh:
            old = json.load(fh)
    with tempfile.TemporaryDirectory() as directory:
        result = hashes(directory)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    before, after = old["files"], result["files"]
    changed = sorted(n for n in before.keys() | after.keys() if before.get(n) != after.get(n))
    for name in changed:
        print(f"{name}: {before.get(name, '-')[:12]} -> {after.get(name, '-')[:12]}")
    print(f"wrote {len(after)} hashes (numpy {old['numpy']} -> {result['numpy']}), "
          f"{len(changed)} changed, to {os.path.relpath(GOLDEN)}")
