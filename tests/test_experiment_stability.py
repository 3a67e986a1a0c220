"""Seed-stability checks: reported reductions are not one-seed flukes."""

import numpy as np
import pytest

from repro.experiments import run_experiment


def _per_seed(workload, metric):
    """CAGC-vs-Baseline reduction (%) of ``metric`` on seeds 0, 1, 2."""
    report = run_experiment("stability", scale="quick")
    return report.data[workload][metric]["per_seed"]


@pytest.mark.parametrize("workload", ["homes", "mail"])
def test_migration_reduction_stable_across_seeds(workload):
    reductions = _per_seed(workload, "pages_migrated")
    assert all(r > 15.0 for r in reductions), reductions
    # spread across seeds stays moderate relative to the effect size
    assert np.std(reductions) < max(10.0, 0.3 * np.mean(reductions))


def test_erase_reduction_positive_every_seed():
    reductions = _per_seed("mail", "blocks_erased")
    assert all(r > 5.0 for r in reductions), reductions


def test_response_reduction_positive_every_seed():
    reductions = _per_seed("mail", "mean_response_us")
    assert all(r > 0.0 for r in reductions), reductions


def test_mail_beats_homes_on_every_seed():
    mail = _per_seed("mail", "pages_migrated")
    homes = _per_seed("homes", "pages_migrated")
    assert all(m > h for m, h in zip(mail, homes))
