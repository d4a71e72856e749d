"""Set-up work of one workload, in a fresh process, without any time stepping.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED [CONFIG.json]

Imports mfjq, resolves the scenario spec, and builds the initial measure and
the kernel matrices through the public functions a run of the workload calls.
The harness times the process from launch to exit.
"""
from __future__ import annotations

import sys

import numpy as np

from mfjq.kernels import constant_kernel, make_kernel
from mfjq.measures import ParticleMeasure
from mfjq.scenarios import ScenarioSpec, default_epsilon_schedule, make_initial_measure


def grid_setup(spec: ScenarioSpec, controlled: bool) -> None:
    mu0 = make_initial_measure(spec)
    f = make_kernel(spec.kernel, epsilon=spec.epsilon, **spec.kernel_params)
    f.field_matrix(mu0.edges, mu0.centers)
    if controlled:
        g = constant_kernel(1.0)
        g.field_matrix(mu0.edges, mu0.centers)
        g.field_matrix(mu0.centers, mu0.centers)


def particle_setup(spec: ScenarioSpec) -> None:
    conc = spec.concentration
    default_epsilon_schedule(conc["c"], conc.get("n_intervals", 20))
    n = conc.get("n_particles", 5000)
    ParticleMeasure(((np.arange(n) + 0.5) / n)[:, None], np.full(n, 1.0 / n))
    constant_kernel(1.0)


def main(argv) -> int:
    workload, seed = argv[0], int(argv[1])
    if workload == "ctrl_h05":
        grid_setup(ScenarioSpec.builtin("hk_ctrl_h05").apply_overrides(seed=seed), True)
    elif workload == "free_400":
        grid_setup(ScenarioSpec.builtin("hk_free").apply_overrides(seed=seed), False)
    elif workload == "conc_5k":
        particle_setup(ScenarioSpec.from_json(argv[2]))
    elif workload == "verify_all":
        # the two runs the suites make: constraints (controlled, t = 5) and
        # conservation (free, seed 2)
        grid_setup(ScenarioSpec.builtin("hk_ctrl_h05").apply_overrides(t_end=5.0), True)
        grid_setup(ScenarioSpec(name="conservation-probe", seed=2, t_end=2.0), False)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
