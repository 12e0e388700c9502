"""Output bytes pinned across commits: every file of a tiny CLI chain
hashes as recorded in `tests/golden.json` (see `golden_chain.py`;
`regenerate_golden.py` rewrites the record)."""

import json

from golden_chain import GOLDEN, hashes


def test_every_output_file_hashes_as_recorded(tmp_path):
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    got = hashes(str(tmp_path))
    changed = sorted(
        name for name in golden["files"].keys() | got["files"].keys()
        if golden["files"].get(name) != got["files"].get(name)
    )
    assert not changed, (
        f"output bytes differ from tests/golden.json in {changed}; it was made with "
        f"numpy {golden['numpy']}, this run used numpy {got['numpy']}"
    )
