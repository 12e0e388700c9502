"""The CLI chain whose output bytes `tests/golden.json` pins.

`python3 tests/golden_chain.py DIR` runs, inside DIR and with relative
paths, synth → preprocess → train → crossval → embed → evaluate → plot on a
tiny shape, then a phase-1-only train (`train.phase2_epochs=0`), its
phase-2 `--resume` (`train.phase1_epochs=0`) and an expression-only train. It
prints one JSON object: the numpy version and the sha256 of every file the
chain wrote. `hashes` runs it in a fresh process with OpenBLAS pinned to
one thread, so the bytes do not depend on the machine's cores.
"""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
GOLDEN = os.path.join(HERE, "golden.json")

SHAPE = [
    "--set", "synth.num_classes=3", "--set", "synth.samples_per_class=12",
    "--set", "synth.num_blocks=2", "--set", "synth.features_per_block=20",
    "--set", "synth.expr_features=30",
    "--set", "model.per_block_hidden=6", "--set", "model.modality_dim=8",
    "--set", "model.fusion_dim=8", "--set", "model.latent_dim=3",
    "--set", "model.classifier_hidden=5,4", "--set", "train.batch_size=8",
    "--set", "train.phase1_epochs=3", "--set", "train.phase2_epochs=3",
]
CHECKPOINT = ["--checkpoint", "model.omvae", "--data", "cache.omids"]
CHAIN = [
    ["synth", *SHAPE, "--out", "synth"],
    ["preprocess", *SHAPE, "--expression", "synth/expression.tsv",
     "--methylation", "synth/methylation.tsv", "--annotations", "synth/annotations.tsv",
     "--labels", "synth/labels.tsv", "--out", "cache.omids"],
    ["train", *SHAPE, "--data", "cache.omids", "--out", "model.omvae"],
    ["crossval", *SHAPE, "--data", "cache.omids", "--k", "3", "--out", "cv"],
    ["embed", *CHECKPOINT, "--out", "embedding.tsv"],
    ["evaluate", *CHECKPOINT, "--confusion", "confusion.tsv", "--out", "report.txt"],
    ["plot", "--embedding", "embedding.tsv", "--out", "embedding.svg"],
    ["train", *SHAPE, "--data", "cache.omids", "--set", "train.phase2_epochs=0",
     "--out", "phase1.omvae"],
    ["train", *SHAPE, "--data", "cache.omids", "--set", "train.phase1_epochs=0",
     "--resume", "phase1.omvae", "--out", "resumed.omvae"],
    ["train", *SHAPE, "--data", "cache.omids", "--set", "model.modalities=expression",
     "--out", "expression.omvae"],
]


def run_chain(directory: str) -> dict:
    """Run `CHAIN` in `directory`; the numpy version and each file's sha256."""
    from omivae import cli  # here: only the chain's own process has `src` on its path

    os.chdir(directory)
    for argv in CHAIN:
        code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"omivae {' '.join(argv)} exited {code}")
    files = {}
    for root, _, names in os.walk("."):
        for name in names:
            path = os.path.relpath(os.path.join(root, name))
            with open(path, "rb") as fh:
                files[path] = hashlib.sha256(fh.read()).hexdigest()
    return {"numpy": np.__version__, "files": dict(sorted(files.items()))}


def hashes(directory: str) -> dict:
    """`run_chain` in a fresh process on one OpenBLAS thread and one fold thread."""
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1", OMIVAE_THREADS="1")
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), directory],
        capture_output=True, text=True, env=env, timeout=300,
    )
    if proc.returncode != 0:
        raise AssertionError(f"the golden chain failed:\n{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


if __name__ == "__main__":
    print(json.dumps(run_chain(sys.argv[1])))
