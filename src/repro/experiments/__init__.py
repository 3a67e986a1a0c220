"""Experiment harness: one module per paper table/figure.

Every experiment returns an :class:`~repro.experiments.common.ExperimentReport`
whose rows mirror the corresponding paper plot, alongside the paper's
reported values so the shape comparison is explicit.

>>> from repro.experiments import run_experiment
>>> report = run_experiment("fig9", scale="quick")   # doctest: +SKIP
>>> print(report)                                     # doctest: +SKIP
"""

from repro.experiments.common import ExperimentReport, ExperimentScale, SCALES
from repro.experiments.registry import EXPERIMENTS, run_experiment

__all__ = [
    "ExperimentReport",
    "ExperimentScale",
    "SCALES",
    "EXPERIMENTS",
    "run_experiment",
]
