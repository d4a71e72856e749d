#!/usr/bin/env python3
"""Regenerate the committed golden run outputs under tests/golden/.

Usage: python scripts/make_goldens.py

The goldens are runs of three builtin scenarios: short horizons of the two
grid scenarios and the shipped particle concentration demo; and the standard
output of `mfjq verify all`.  A run that keeps only its last snapshot file
also gets a sha256 manifest of all its snapshots.  Each run keeps its
meta.json (the perf counts and the switch list) without its package version.
The byte-level regression test in tests/test_golden.py re-runs them with
identical flags and compares the CSV outputs, the manifest, the parsed
meta.json and the printed lines.  Regenerate (and review the diff) only after an
intentional change to the numerics or the log format.
"""
import contextlib
import hashlib
import io
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
from mfjq.cli import main as cli_main  # noqa: E402
from tests.test_golden import GOLDEN_DIR, MANIFEST, RUNS, VERIFY_ALL  # noqa: E402


def main():
    for name, (flags, all_snapshots) in RUNS.items():
        out = GOLDEN_DIR / name
        if out.exists():
            shutil.rmtree(out)
        rc = cli_main(["run", "--scenario", name, "--out", str(out), *flags])
        if rc != 0:
            raise SystemExit(f"{name}: CLI exited with {rc}")
        # meta.json is golden but for the package version it carries
        meta = json.loads((out / "meta.json").read_text())
        del meta["version"]
        (out / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
        if not all_snapshots:
            snaps = sorted((out / "snapshots").glob("*.csv"),
                           key=lambda p: float(p.stem.removeprefix("snapshot_t")))
            (out / MANIFEST).write_text("".join(
                f"{hashlib.sha256(p.read_bytes()).hexdigest()}  snapshots/{p.name}\n"
                for p in snaps))
            for p in snaps[:-1]:
                p.unlink()
        print(f"wrote {out}")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        rc = cli_main(["verify", "all"])
    if rc != 0:
        raise SystemExit(f"verify all: CLI exited with {rc}")
    VERIFY_ALL.write_bytes(printed.getvalue().encode())
    print(f"wrote {VERIFY_ALL}")


if __name__ == "__main__":
    main()
