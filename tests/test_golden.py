"""Byte-level regression against the committed golden run outputs.

The goldens are produced by scripts/make_goldens.py: short-horizon runs of
the two grid scenarios and the shipped particle concentration demo, and the
standard output of `mfjq verify all`.  Every golden file must reproduce
exactly (the CSV writer uses a fixed %.12g format, so any numerical change
shows up as a byte diff).  Where only the last snapshot file is kept, every
snapshot must match the sha256 manifest.  Each run's meta.json, its package
version dropped, must parse to the golden one with every float exact.
"""
import hashlib
import json
from pathlib import Path

import pytest

from mfjq.cli import main as cli_main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
VERIFY_ALL = GOLDEN_DIR / "verify_all.txt"  # the stdout of `mfjq verify all`
# "<sha256>  snapshots/<file>" per snapshot, in a run that keeps only its last
MANIFEST = "snapshots.sha256"

# scenario name -> (extra CLI flags, every snapshot is golden); also read by
# scripts/make_goldens.py.  The concentration demo keeps its trajectory, its
# last snapshot and the sha256 of each of its 48 snapshots: the files would
# take 4.2 MB.  At 100 cells the controlled run's strict eta_min reaches its
# 2*dx floor at t ~ 4.2, so its golden covers both eta regimes.
RUNS = {
    "hk_free": (["--t-end", "2.0"], True),
    "hk_ctrl_h05": (["--t-end", "6.0", "--cells", "100"], True),
    "concentration": ([], False),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_run_reproduces(name, tmp_path):
    flags, all_snapshots = RUNS[name]
    golden = GOLDEN_DIR / name
    out = tmp_path / name
    rc = cli_main(["run", "--scenario", name, "--out", str(out), *flags])
    assert rc == 0

    golden_csvs = sorted(p.relative_to(golden) for p in golden.rglob("*.csv"))
    assert golden_csvs, "golden directory is empty; run scripts/make_goldens.py"
    if all_snapshots:
        fresh_csvs = sorted(p.relative_to(out) for p in out.rglob("*.csv"))
        assert golden_csvs == fresh_csvs
    else:
        fresh = sorted(f"{hashlib.sha256(p.read_bytes()).hexdigest()}  snapshots/{p.name}"
                       for p in (out / "snapshots").glob("*.csv"))
        assert fresh == sorted((golden / MANIFEST).read_text().splitlines())
    for rel in golden_csvs:
        assert (out / rel).read_bytes() == (golden / rel).read_bytes(), rel
    meta = json.loads((out / "meta.json").read_text())
    del meta["version"]
    assert meta == json.loads((golden / "meta.json").read_text())


def test_verify_all_stdout_reproduces(capsys):
    assert cli_main(["verify", "all"]) == 0
    assert capsys.readouterr().out.encode() == VERIFY_ALL.read_bytes()
