"""Run the mfjq CLI in this process and record the process's peak resident set.

Usage: python3 perfbench/child.py PEAK_FILE [mfjq CLI arguments ...]

When the CLI returns, VmHWM of this process, in MB, is written to PEAK_FILE.
VmHWM counts only the memory this program touched since it started.  The
ru_maxrss that wait4 reports for a child also holds the resident set of the
process that spawned it, here the harness, which can be larger than the
program's own.  The exit code is the CLI's.
"""
from __future__ import annotations

import sys


def peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def write_peak(path: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"{peak_rss_mb()!r}\n")


def main(argv) -> int:
    peak_file, cli_args = argv[0], argv[1:]
    from mfjq.cli import main as cli_main
    try:
        return cli_main(cli_args)
    finally:
        write_peak(peak_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
