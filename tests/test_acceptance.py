"""Acceptance gate: every criterion runs at its pinned size and tolerance.

The shared session workspace keeps the total cost near a single verify-all
run; each test prints the one-line verdict and fails with full details.
"""
import pytest

from fastslow import acceptance
from fastslow.experiments import Ensemble


@pytest.mark.parametrize("cid", range(1, 13))
def test_criterion(cid, workspace, capsys):
    result = acceptance.run_criterion(cid, workspace)
    with capsys.disabled():
        print("\n" + result.line(), end="")
    assert result.passed, f"criterion {cid} failed: {result.details}"


def test_full_runner_reports(workspace):
    results = acceptance.run_all(workspace, ids=[1, 2, 3], echo=lambda *_: None)
    blob = acceptance.results_to_json(results)
    assert '"all_passed": true' in blob


def test_full_run_releases_every_ensemble(workspace):
    # each ensemble's last reader in CRITERIA order passes release=True, so
    # the workspace ends a full run holding its caches and no ensemble
    assert workspace.config.out_times == acceptance.OUT_TIMES     # run on this workspace
    results = acceptance.run_all(workspace, echo=lambda *_: None)
    assert [r.cid for r in results] == list(range(1, 13))
    held = [key for key, value in workspace._memo.items() if isinstance(value, Ensemble)]
    assert held == []
    assert ("cache", "CPL") in workspace._memo
