"""Byte identity of the outputs against committed digests.

`tests/golden/digests.json` holds the sha256 of every file of three
outputs at synth_n = 300, seed 7: the `synth` extracts and manifest, the
`run-all` bundle, and the bundle of the eight stage commands run one after
another into one directory.  The test rebuilds all three in process and
names each file whose digest differs.

A change that moves bytes on purpose regenerates the file with

    PYTHONPATH=src python tests/test_digests.py

and says which files moved and why.  The digests hold for the numpy and
scipy versions recorded beside them; with other versions installed the
test skips and names them, except where the CI environment variable is
set: CI pins both versions, so there a mismatch means the recorded ones
drifted, and the test fails.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from icustudy.cli import main

GOLDEN = Path(__file__).parent / "golden" / "digests.json"
SYNTH_N, SEED = 300, 7
#: the stage commands of the stage-by-stage bundle, in order
STAGE_COMMANDS = (
    "cohort run", "varprep run",
    "propensity fit", "propensity stratify", "propensity balance", "propensity refine",
    "outcome run", "ml run",
)


def versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def build(root: Path) -> dict:
    """Output -> {file name: sha256} of the extracts, the run-all bundle
    and the stage-by-stage bundle, each built in its own directory under
    `root`."""
    config = root / "run.cfg"
    config.write_text(
        f"synth_n = {SYNTH_N}\nseed = {SEED}\nextracts_dir = {root / 'extracts'}\nout_dir = {root / 'run-all'}\n"
    )
    commands = [
        ["synth", "--out", str(root / "extracts")],
        ["run-all"],
        *(command.split() + ["--out", str(root / "stages")] for command in STAGE_COMMANDS),
    ]
    for command in commands:
        assert main(command + ["--config", str(config)]) == 0, command
    return {
        output: {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted((root / output).iterdir())}
        for output in ("extracts", "run-all", "stages")
    }


def test_outputs_match_committed_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    if golden["versions"] != versions():
        message = f"digests recorded with {golden['versions']}, installed {versions()}"
        if os.environ.get("CI"):
            pytest.fail(message)
        pytest.skip(message)
    built = build(tmp_path)
    differing = [
        f"{output}/{name}"
        for output, files in golden["outputs"].items()
        for name in sorted(files.keys() | built[output].keys())
        if files.get(name) != built[output].get(name)
    ]
    assert not differing, f"digests differ from {GOLDEN.name}: {', '.join(differing)}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        outputs = build(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    record = {"synth_n": SYNTH_N, "seed": SEED, "versions": versions(), "outputs": outputs}
    GOLDEN.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {GOLDEN}")
