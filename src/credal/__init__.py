"""Exact minimax decision making with finitely generated credal sets.

The package works entirely in rational arithmetic: credal sets are
given by finitely many joint distributions over signal x outcome, and
every solver, consistency check and calibration report returns exact
``fractions.Fraction`` values.  The most common entry points are
re-exported here; the submodules hold the rest (``linprog`` for the
simplex core, ``sampling`` for random instances, ``corpus`` for the
bundled worked cases).

Layers load on first use: ``import credal`` imports no submodule, and
the first access of an exported name or a submodule (PEP 562) imports
its home module, so ``credal.parse_problem_file`` loads the problem-file
chain (``problemfile``, ``core``, ``polytope``, ``linprog``,
``rationals``) and none of the solvers or checks.
"""

import importlib

# Every submodule, each with the names the package exports from it.
_EXPORTS = {
    "calibration": (
        "CalibrationReport",
        "SharpnessVerdict",
        "UpdateRule",
        "check_calibration",
        "equivalence_classes",
        "ignore_rule",
        "is_sharply_calibrated",
        "partition_conditioning",
        "sharp_partition",
        "standard_conditioning",
        "table_rule",
    ),
    "cli": (),
    "consistency": (
        "ConsistencyVerdict",
        "PairWitness",
        "SignalWitness",
        "check_time_consistency",
        "check_weak_time_consistency",
        "falsify_dynamic_consistency",
        "sufficient_conditions",
    ),
    "core": (
        "CredalSet",
        "DecisionProblem",
        "DecisionRule",
        "DilationReport",
        "JointDistribution",
        "LossFunction",
        "Partition",
        "ProblemSpace",
        "RandomizedAction",
        "UndefinedConditionalError",
        "c_condition",
        "classification_loss",
        "condition",
        "constant_rule",
        "credal_set",
        "deterministic_rule",
        "dilation_report",
        "hull",
        "is_conservative",
        "is_rectangular",
        "joint",
        "joint_polytope",
        "loss_function",
        "marginal_y",
        "posterior_y",
        "rule_from_weights",
        "support_x",
    ),
    "corpus": ("corpus_ids", "load_case", "run_case", "run_corpus"),
    "linprog": (),
    "minimax": (
        "IgnoringSolution",
        "MinimaxSolution",
        "PosteriorSolution",
        "SaddleReport",
        "brute_force_value",
        "expected_loss",
        "solve_a_posteriori",
        "solve_a_priori",
        "solve_ignoring",
        "verify_saddle",
        "worst_case_loss",
        "worst_case_posterior_loss",
    ),
    "partitions": (),
    "polytope": ("VPolytope", "member", "prune", "set_equal", "subset"),
    "problemfile": (
        "ProblemFile",
        "ProblemFileError",
        "load_problem_file",
        "parse_problem_file",
        "problem_file_from",
        "render_problem_file",
    ),
    "rationals": ("rat", "rat_matrix", "rat_seq"),
    "sampling": (),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    if name in _EXPORTS:  # importing a submodule binds it here
        return importlib.import_module("." + name, __name__)
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + _HOME[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
