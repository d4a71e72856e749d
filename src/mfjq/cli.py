"""Command-line entry point: run scenarios and verification suites.

Exit codes: 0 success, 2 invalid configuration, 3 runtime invariant
violation (a report is written next to the outputs).
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .scenarios import BUILTIN_SCENARIOS, ScenarioSpec, run_concentration_demo, run_hk
from .solver import SupportEscapeError
from .verify import SUITES, run_suite


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mfjq")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario and write logs/snapshots")
    run.add_argument("--scenario", help=f"one of {', '.join(BUILTIN_SCENARIOS)}")
    run.add_argument("--config", type=Path, help="inline scenario spec (JSON file)")
    run.add_argument("--out", type=Path, default=Path("out"))
    run.add_argument("--seed", type=int)
    run.add_argument("--dt", type=float)
    run.add_argument("--cells", type=int)
    run.add_argument("--t-end", dest="t_end", type=float)
    run.add_argument("--h", type=float)
    run.add_argument("--c", type=float)
    run.add_argument("--kappa", type=float)

    ver = sub.add_parser("verify", help="run a named invariant suite")
    ver.add_argument("suite", choices=SUITES)
    ver.add_argument("--run-dir", type=Path,
                     help="audit a finished run directory (constraints and all only)")
    return p


def _load_spec(args) -> ScenarioSpec:
    if (args.scenario is None) == (args.config is None):
        raise ValueError("give exactly one of --scenario or --config")
    if args.config is not None:
        spec = ScenarioSpec.from_json(args.config)
    else:
        spec = ScenarioSpec.builtin(args.scenario)
    return spec.apply_overrides(seed=args.seed, dt=args.dt, cells=args.cells,
                                t_end=args.t_end, h=args.h, c=args.c,
                                kappa=args.kappa).validate()


def _clear_outputs(out: Path) -> None:
    """Remove the files an earlier run wrote into ``out``, and no other file."""
    for name in ("trajectory.csv", "meta.json", "violation.txt"):
        (out / name).unlink(missing_ok=True)
    for path in (out / "snapshots").glob("snapshot_t*.csv"):
        path.unlink()


def _write_outputs(out: Path, spec: ScenarioSpec, log, extra: dict) -> None:
    log.to_csv(out / "trajectory.csv")
    meta = dict(version=__version__, seed=spec.seed, spec=spec.to_dict(),
                n_switches=log.n_switches, **extra, perf=log.perf, switches=log.switches)
    with open(out / "meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, default=str)


def cmd_run(args) -> int:
    try:
        spec = _load_spec(args)
    except (ValueError, KeyError, TypeError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    snap_dir = args.out / "snapshots"
    try:
        _clear_outputs(args.out)
        snap_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot write to {args.out}: {exc}", file=sys.stderr)
        return 2

    def write_snapshot(t, mu):
        mu.to_csv(snap_dir / f"snapshot_t{t:.6g}.csv")

    try:
        if spec.concentration is not None:
            log, report = run_concentration_demo(spec, on_snapshot=write_snapshot)
            extra = dict(max_omega_mass=float(report["omega_mass"].max()),
                         final_window_mass=float(report["window_mass"][-1]))
        else:
            log, report = run_hk(spec, on_snapshot=write_snapshot)
            # a controlled run's meta.json lists consensus_time before n_clusters
            timing = ({} if spec.controller is None
                      else dict(consensus_time=log.meta["consensus_time"]))
            extra = dict(consensus=report.consensus, **timing,
                         n_clusters=report.n_clusters)
    except SupportEscapeError as exc:
        report_path = args.out / "violation.txt"
        report_path.write_text(f"{exc}\n")
        print(f"invariant violation: {exc} (see {report_path})", file=sys.stderr)
        return 3
    _write_outputs(args.out, spec, log, extra)
    # the snapshot files of earlier runs were removed above
    n_snapshots = sum(1 for _ in snap_dir.glob("snapshot_t*.csv"))
    print(f"wrote {args.out}/trajectory.csv ({len(log.rows)} rows, "
          f"{n_snapshots} snapshots)")
    return 0


def cmd_verify(args) -> int:
    try:
        rows = run_suite(args.suite, args.run_dir)
    except (KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    width = max(len(name) for name, _, _ in rows)
    ok_all = True
    for name, ok, detail in rows:
        ok_all &= ok
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  {detail}")
    return 0 if ok_all else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    return cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
