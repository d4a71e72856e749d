"""mfjq benchmark: runs of the mfjq CLI, timed from outside.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --smoke

Runs from the root of a source checkout; the CLI is loaded from ``src/``.
Workloads run in a closed loop, one single-threaded child process at a time
(BLAS pinned to one thread): the next run starts when the previous one
exits, until ``--seconds`` of runs have been measured (at least one run).
Every run's outputs are checked; a run failing a check counts as failed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced runs with runs under ``tracer.py``, which wraps the public layer
functions, and reports the per-layer metrics and the tracing overhead.
``--smoke`` runs every workload at a tiny horizon, plus an invalid config
that must count as failed, and checks that every metric is emitted.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics (the metrics BENCHMARK.json lists
for the trace mode).  Run outputs, spans and a result file with the
environment go to ``perfbench_out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from layers import EXACT_COUNTS, LAYERS, TRACED  # noqa: E402
from workloads import INVALID, WORKLOADS  # noqa: E402

N_SETUP = 9           # set-up processes per run; setup_s is their median
DEADLINE_S = 170.0    # no child is left running past this, counted from start
OUT = ROOT / "perfbench_out"
BLAS_ENV = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                             "MKL_NUM_THREADS")}


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return self.end - time.monotonic()


def child_env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def spawn(cmd: list, log: Path, deadline: Deadline) -> dict:
    """Run one child to exit; its wall time from launch to exit and CPU time."""
    log.parent.mkdir(parents=True, exist_ok=True)
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=fh,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(deadline.left(), 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    # not ru_maxrss: it also holds the harness's resident set (see child.py)
    return dict(rc=proc.returncode, wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                output=log.read_text(errors="replace"))


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def src_files() -> list:
    return sorted(p for p in (ROOT / "src").rglob("*") if p.is_file()
                  and p.suffix in (".py", ".json") and "__pycache__" not in p.parts)


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = res.stdout.strip() or None
    digest = hashlib.sha256()
    lines = 0
    for p in src_files():
        data = p.read_bytes()
        digest.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        if p.suffix == ".py":
            lines += data.count(b"\n")
    return dict(cpu=cpu, nproc=os.cpu_count(), python=platform.python_version(),
                numpy=np.__version__, blas=f"{blas.get('name')} {blas.get('version')}",
                blas_threads=BLAS_ENV, git_commit=commit,
                src_sha256=digest.hexdigest(), src_py_lines=lines)


# ---------------------------------------------------------------------------
# Traced runs
# ---------------------------------------------------------------------------

def layer_metrics(prefix: Path, wall: float) -> dict:
    """Per-function calls, time and self time from the spans of one traced run."""
    info = json.loads(prefix.with_suffix(".json").read_text())
    spans = np.load(prefix.with_suffix(".npy"))
    n = len(info["names"])
    nid = spans[:, 0].astype(int)
    dur = spans[:, 2] - spans[:, 1]
    parent = spans[:, 3].astype(int)
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(spans))
    calls = np.bincount(nid, minlength=n)
    total = np.bincount(nid, weights=dur, minlength=n)
    own = np.bincount(nid, weights=dur - covered, minlength=n)
    index = {name: i for i, name in enumerate(info["names"])}
    m = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, _mod, _attr, layer in TRACED:
        i = index[name]
        m[f"{name}.calls"] = (int(calls[i]), "count")
        m[f"{name}.s"] = (float(total[i]), "s")
        m[f"{name}.self_s"] = (float(own[i]), "s")
        m[f"{name}.self_share"] = (float(own[i]) / wall, "ratio")
        layer_self[layer] += float(own[i])
    for layer, s in layer_self.items():
        m[f"layer.{layer}.share"] = (s / wall, "ratio")
    m["layer.other.share"] = (1.0 - sum(layer_self.values()) / wall, "ratio")
    c = info["counters"]
    for key, unit in (("controller.candidates", "count"), ("controller.switches", "count"),
                      ("solver.cfl_substeps", "count"),
                      ("kernels.matvec_bytes_computed", "B"),
                      ("output.bytes_written", "B")):
        m[key] = (int(c.get(key, 0)), unit)
    searches = m["controller.search_maximizer.calls"][0]
    m["controller.search_useful_ratio"] = (
        m["controller.switches"][0] / searches if searches else 0.0, "ratio")
    m["trace.wall_s"] = (wall, "s")
    return m


def check_exact_counts(key: str, traced: list, notes: list) -> bool:
    """Exact counters must agree between traced runs of one input and commit."""
    counts = [{k: m[k][0] for k in EXACT_COUNTS} for m in traced]
    store_path = OUT / "exact_counts.json"
    store = json.loads(store_path.read_text()) if store_path.is_file() else {}
    ok = all(c == counts[0] for c in counts)
    if key in store:
        ok &= store[key] == counts[0]
        notes.append(f"exact counts vs earlier traced run of this input: "
                     f"{'same' if store[key] == counts[0] else 'DIFFERENT'}")
    else:
        store[key] = counts[0]
        store_path.parent.mkdir(parents=True, exist_ok=True)
        store_path.write_text(json.dumps(store, indent=1))
        notes.append("exact counts recorded for later traced runs of this input")
    if len(counts) > 1:
        notes.append(f"exact counts across {len(counts)} traced runs here: "
                     f"{'same' if all(c == counts[0] for c in counts) else 'DIFFERENT'}")
    return ok


# ---------------------------------------------------------------------------
# One benchmark run
# ---------------------------------------------------------------------------

def tail_percentile(values: list):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def one_run(workload, seed, run_dir, traced, smoke, deadline) -> dict:
    inv = workload.invoke(ROOT, seed, run_dir, smoke)
    peak = run_dir / "peak_rss_mb.txt"
    if traced:
        cmd = [sys.executable, str(HERE / "tracer.py"), str(run_dir / "spans"), str(peak)]
    else:
        cmd = [sys.executable, str(HERE / "child.py"), str(peak)]
    res = spawn(cmd + inv.cli_args, run_dir / "stdout.txt", deadline)
    res["rss_mb"] = float(peak.read_text()) if peak.is_file() else None
    checks = [("exit code 0", res["rc"] == 0, f"exit code {res['rc']}")]
    if res["rc"] == 0:
        checks += workload.check(run_dir, inv, res["output"])
    res.update(traced=traced, steps=inv.steps, ok=all(ok for _, ok, _ in checks),
               checks=[list(c) for c in checks])
    traj = run_dir / "trajectory.csv"
    if traj.is_file():
        res["trajectory_sha256"] = hashlib.sha256(traj.read_bytes()).hexdigest()
    elif res["rc"] == 0:
        res["stdout_sha256"] = hashlib.sha256(res["output"].encode()).hexdigest()
    meta = run_dir / "meta.json"
    if meta.is_file():
        meta = json.loads(meta.read_text())
        if "consensus_time" in meta:  # written by controlled runs only
            res["switches"] = meta["n_switches"]
            res["consensus_t"] = meta["consensus_time"]
    if traced and res["ok"]:
        res["layers"] = layer_metrics(run_dir / "spans", res["wall_s"])
    if res["ok"]:
        shutil.rmtree(run_dir)  # outputs are checked; keep only a failed run's
    else:
        res["run_dir"] = str(run_dir)
    del res["output"]
    return res


def measure(workload, seed: int, seconds: float, trace: int, smoke: bool, env: dict,
            n_setup: int = N_SETUP) -> dict:
    deadline = Deadline(DEADLINE_S)
    out = OUT / workload.name / f"seed{seed}-trace{trace}{'-smoke' if smoke else ''}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    notes = []
    if workload.seed_note:
        notes.append(f"--seed has no effect here ({workload.seed_note}); runs with "
                     f"other seeds repeat one input, they are not samples of others")

    # Set-up probes are spread over the measuring window, in proportion to the
    # time measured so far, so that their median does not hang on one moment
    # of a machine whose speed drifts.
    setup_inv = workload.invoke(ROOT, seed, out / "setup", smoke)
    setups = []

    def probe_until(count):
        while len(setups) < count:
            setups.append(spawn([sys.executable, str(HERE / "setup_probe.py"), workload.name]
                                + setup_inv.setup_args,
                                out / "setup" / f"probe{len(setups)}.txt", deadline))

    runs, measured = [], 0.0
    while not runs or (measured < seconds and deadline.left() > 0):
        probe_until(min(n_setup, math.ceil(n_setup * measured / seconds) if seconds else 1))
        for traced in ((False, True) if trace else (False,)):
            runs.append(one_run(workload, seed, out / f"run{len(runs)}", traced, smoke,
                                deadline))
            measured += runs[-1]["wall_s"]
    probe_until(n_setup)
    setup_ok = all(s["rc"] == 0 for s in setups)

    plain = [r for r in runs if not r["traced"]]
    failed = sum(not r["ok"] for r in runs)
    walls = [r["wall_s"] for r in plain]
    wall = statistics.median(walls)
    m = {
        "wall_s": (wall, "s"),
        "failed_share": (failed / len(runs), "ratio"),
    }
    peaks = [r["rss_mb"] for r in plain if r["rss_mb"] is not None]
    if peaks:
        m["peak_rss_mb"] = (statistics.median(peaks), "MB")
    if setups:
        m["setup_s"] = (statistics.median(s["wall_s"] for s in setups), "s")
    tail = tail_percentile(walls)
    if plain[0]["steps"]:
        m["steps_per_s"] = (plain[0]["steps"] / wall, "steps/s")
    if "switches" in plain[0]:
        m["consensus_t"] = (plain[0]["consensus_t"], "sim_time")
        if plain[0]["consensus_t"] is None:
            notes.append("consensus_t is n/a: V stayed above 1% of V(0) up to t_end")
        m["switches"] = (plain[0]["switches"], "count")

    counts_ok = True
    traced = [r["layers"] for r in runs if r.get("layers")]
    if traced:
        for key, (first, unit) in traced[0].items():
            # counts are exact (checked below); times and shares vary per run
            m[key] = (first if isinstance(first, int) else
                      statistics.median(t[key][0] for t in traced), unit)
        pairs = [(a["wall_s"], b["wall_s"]) for a, b in zip(runs[::2], runs[1::2])]
        m["trace.overhead"] = (statistics.median(t / u - 1.0 for u, t in pairs), "ratio")
        # one input of one program: the resolved spec, the seed and the sources
        key = hashlib.sha256(json.dumps(
            [workload.name, seed, setup_inv.spec, setup_inv.steps, env["src_sha256"]],
            sort_keys=True).encode()).hexdigest()
        counts_ok = check_exact_counts(key, traced, notes)

    shas = {r.get("trajectory_sha256") or r.get("stdout_sha256") for r in runs if r["ok"]}
    if len(shas) > 1:
        notes.append("outputs differ between runs of the same input")
    result = dict(workload=workload.name, why=workload.why, seed=seed, trace=trace,
                  smoke=smoke, seconds=seconds, environment=env, notes=notes,
                  correct=setup_ok and counts_ok and failed == 0 and len(shas) <= 1,
                  attempted=len(runs), failed=failed,
                  wall_tail=None if tail is None else dict(percentile=tail[0], value=tail[1]),
                  output_sha256=sorted(s for s in shas if s),
                  setup_walls=[s["wall_s"] for s in setups], setup_ok=setup_ok,
                  runs=runs, metrics={k: dict(value=v, unit=u) for k, (v, u) in m.items()})
    (out / "result.json").write_text(json.dumps(result, indent=1))
    return result


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}


def missing_metrics(result: dict, wanted: dict) -> list:
    have = result["metrics"]
    return [n for n, unit in wanted.items() if n not in have or have[n]["unit"] != unit]


def report(result: dict) -> None:
    env = result["environment"]
    print(f"workload {result['workload']}: {result['why']}")
    print(f"  seed {result['seed']}, trace {result['trace']}, {result['seconds']} s of runs"
          f"{', smoke' if result['smoke'] else ''}")
    print(f"  env: {env['cpu']}, nproc {env['nproc']}, python {env['python']}, "
          f"numpy {env['numpy']}, blas {env['blas']} pinned to 1 thread, "
          f"commit {env['git_commit'] or 'n/a (not a git checkout)'}, "
          f"src {env['src_py_lines']} lines (sha256 {env['src_sha256'][:12]})")
    for note in result["notes"]:
        print(f"  note: {note}")
    for i, r in enumerate(result["runs"]):
        bad = [c for c in r["checks"] if not c[1]]
        print(f"  run {i}{' traced' if r['traced'] else ''}: exit {r['rc']}, "
              f"{r['wall_s']:.3f} s, cpu {r['cpu_s']:.3f} s, "
              f"{'n/a' if r['rss_mb'] is None else format(r['rss_mb'], '.1f')} MB, "
              + ("checks pass" if not bad else "FAILED: " + "; ".join(
                  f"{name} ({detail})" for name, _, detail in bad)))
    print(f"  setup: {len(result['setup_walls'])} processes, "
          + ", ".join(f"{w:.3f}" for w in result["setup_walls"]) + " s")
    if result["output_sha256"]:
        print(f"  output sha256: {', '.join(result['output_sha256'])}")
    m = result["metrics"]
    plain = sum(not r["traced"] for r in result["runs"])
    tail = result["wall_tail"]
    print(f"  wall_s median of {plain} runs; "
          + (f"p{tail['percentile']:.1f} {tail['value']:.4f} s" if tail
             else "no percentile has 10 samples beyond it"))
    print(f"  failed {result['failed']} of {result['attempted']} runs")
    width = max(len(k) for k in m)
    for name, mv in m.items():
        v = mv["value"]
        text = "n/a" if v is None else (f"{v}" if isinstance(v, int) else f"{v:.6g}")
        print(f"  {name:<{width}}  {text} {mv['unit']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    # so that a terminated harness still kills and reaps its child (spawn)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "mfjq" / "cli.py").is_file():
        print(f"error: no mfjq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        p.error("--workload is required without --smoke")
    env, wanted = environment(), declared()
    if args.smoke:
        return smoke(args.seed, wanted, env)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = measure(WORKLOADS[name], args.seed, args.seconds, args.trace,
                         smoke=False, env=env)
        missing = missing_metrics(result, wanted[args.trace])
        if missing and result["correct"]:
            raise RuntimeError(f"metrics not measured: {missing}")
        report(result)
        results.append(result)
    prefix = len(results) > 1
    correct = all(r["correct"] for r in results)
    print(json.dumps(dict(
        correct=correct,
        attempted=sum(r["attempted"] for r in results),
        failed=sum(r["failed"] for r in results),
        metrics={(f"{r['workload']}.{k}" if prefix else k): r["metrics"][k]
                 for r in results for k in wanted[args.trace] if k in r["metrics"]})))
    return 0 if correct else 1


def smoke(seed: int, wanted: dict, env: dict) -> int:
    """Tiny horizons: every workload in both trace modes, plus an invalid config."""
    ok, attempted, failed = True, 0, 0
    for workload in WORKLOADS.values():
        for trace in (0, 1):
            result = measure(workload, seed, 0.0, trace, smoke=True, env=env, n_setup=1)
            report(result)
            missing = missing_metrics(result, wanted[trace])
            if missing:
                print(f"  MISSING metrics: {missing}")
            ok &= result["correct"] and not missing
            attempted += result["attempted"]
            failed += result["failed"]
    bad = measure(INVALID, seed, 0.0, 0, smoke=True, env=env, n_setup=0)
    report(bad)
    counted = bad["failed"] == bad["attempted"] == 1
    print(f"invalid config counted as a failed run: {counted} "
          f"(exit code {bad['runs'][0]['rc']})")
    ok &= counted
    print(json.dumps(dict(correct=bool(ok), attempted=attempted + bad["attempted"],
                          failed=failed + bad["failed"], metrics={})))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
