#!/usr/bin/env python3
"""Regenerate the committed golden run outputs under tests/golden/.

Usage: python scripts/make_goldens.py

The goldens are runs of three builtin scenarios: short horizons of the two
grid scenarios and the shipped particle concentration demo.  The byte-level
regression test in tests/test_golden.py re-runs them with identical flags and
compares the CSV outputs.  Regenerate (and review the diff) only after an
intentional change to the numerics or the log format.
"""
import shutil
from pathlib import Path

from mfjq.cli import main as cli_main

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden"

# scenario name -> (extra CLI flags, keep every snapshot); keep in sync with
# tests/test_golden.py.  The concentration demo keeps its trajectory and last
# snapshot only: its 48 snapshots would take 4.2 MB.
RUNS = {
    "hk_free": (["--t-end", "2.0"], True),
    "hk_ctrl_h05": (["--t-end", "3.0", "--cells", "100"], True),
    "concentration": ([], False),
}


def main():
    for name, (flags, all_snapshots) in RUNS.items():
        out = GOLDEN_DIR / name
        if out.exists():
            shutil.rmtree(out)
        rc = cli_main(["run", "--scenario", name, "--out", str(out), *flags])
        if rc != 0:
            raise SystemExit(f"{name}: CLI exited with {rc}")
        # meta.json carries the package version; only the CSVs are golden
        (out / "meta.json").unlink()
        if not all_snapshots:
            snaps = sorted((out / "snapshots").glob("*.csv"),
                           key=lambda p: float(p.stem.removeprefix("snapshot_t")))
            for p in snaps[:-1]:
                p.unlink()
        print(f"wrote {out}")


if __name__ == "__main__":
    main()
