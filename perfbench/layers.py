"""The functions the traced pass times, grouped into the layers they belong to.

Each entry is (metric prefix, module of mfjq, attribute, layer).  An
attribute ``Class.method`` is wrapped on the class; a plain function is
replaced under every name that binds it in a loaded ``mfjq`` module, because
``solver`` and ``scenarios`` import functions by name.  ``ConstantKernel``
overrides both methods of ``InteractionKernel``, so each class is listed.
"""

TRACED = [
    ("controller.decide_multi", "controller", "decide_multi", "controller"),
    ("controller.search_maximizer", "controller", "search_maximizer", "controller"),
    ("controller.SlopeEvaluator", "controller", "SlopeEvaluator.__init__", "controller"),
    ("controller.SlopeEvaluator.signed_batch", "controller",
     "SlopeEvaluator.signed_batch", "controller"),
    ("kernels.InteractionKernel.field_matrix", "kernels",
     "InteractionKernel.field_matrix", "kernels"),
    ("kernels.InteractionKernel.field_at", "kernels", "InteractionKernel.field_at", "kernels"),
    ("kernels.ConstantKernel.field_matrix", "kernels", "ConstantKernel.field_matrix", "kernels"),
    ("kernels.ConstantKernel.field_at", "kernels", "ConstantKernel.field_at", "kernels"),
    ("solver.evolve", "solver", "evolve", "solver"),
    ("solver.step_grid", "solver", "step_grid", "solver"),
    ("solver.step_particles", "solver", "step_particles", "solver"),
    ("lyapunov.value", "lyapunov", "value", "logging"),
    ("measures.support_bounds", "measures", "support_bounds", "logging"),
    ("measures.sup_norm", "measures", "sup_norm", "logging"),
    ("measures.total_mass", "measures", "total_mass", "logging"),
    ("solver.TrajectoryLog.to_csv", "solver", "TrajectoryLog.to_csv", "output"),
    ("measures.GridMeasure.to_csv", "measures", "GridMeasure.to_csv", "output"),
    ("measures.ParticleMeasure.to_csv", "measures", "ParticleMeasure.to_csv", "output"),
    ("scenarios.make_initial_measure", "scenarios", "make_initial_measure", "scenarios_verify"),
    ("scenarios.detect_clusters", "scenarios", "detect_clusters", "scenarios_verify"),
    ("verify.suite_oracle", "verify", "suite_oracle", "scenarios_verify"),
    ("verify.suite_dissipativity", "verify", "suite_dissipativity", "scenarios_verify"),
    ("verify.suite_conservation", "verify", "suite_conservation", "scenarios_verify"),
    ("verify.suite_constraints", "verify", "suite_constraints", "scenarios_verify"),
    ("lyapunov.lie_derivative_fd_oracle", "lyapunov", "lie_derivative_fd_oracle",
     "scenarios_verify"),
]

LAYERS = ("controller", "kernels", "solver", "logging", "output", "scenarios_verify")

# Counters that must repeat exactly between traced runs of one input and commit.
EXACT_COUNTS = ("controller.candidates", "controller.switches", "solver.cfl_substeps",
                "kernels.InteractionKernel.field_at.calls",
                "kernels.ConstantKernel.field_at.calls")
