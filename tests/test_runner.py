"""Coupled orchestration: each trajectory validated once, and the concurrence
column that the runner's unvalidated Wootters core gives."""

from unittest import mock

import pytest

from qmemristor import analysis, dynamics, linalg, runner
from qmemristor.config import apply_overrides
from qmemristor.presets import preset

from conftest import COUPLED_PRESETS, assert_same_bits


@pytest.fixture
def validations(monkeypatch):
    """A spy on every module's name for `require_density_matrix`."""
    spy = mock.Mock(wraps=linalg.require_density_matrix)
    for module in (linalg, dynamics, analysis):
        monkeypatch.setattr(module, "require_density_matrix", spy)
    return spy


def contexts(spy):
    return [call.kwargs["context"] for call in spy.call_args_list]


class TestOneValidationPerTrajectory:
    def test_execute(self, validations):
        runner.execute(apply_overrides(preset("fig7"), periods=2))
        assert contexts(validations) == ["coupled trajectory"]

    def test_delta_scan(self, validations):
        runner.delta_scan(apply_overrides(preset("fig9"), periods=2), (0.1, 0.5, 0.9))
        assert contexts(validations) == ["coupled trajectory"] * 3

    def test_public_concurrence_still_validates(self, validations):
        analysis.concurrence(coupled_trajectory(preset("fig7")))
        assert contexts(validations) == ["coupled trajectory", "concurrence input"]


def coupled_trajectory(config):
    """The one trajectory `dynamics.run_coupled` steps for ``config``."""
    parts = config.validate()
    return dynamics.run_coupled(parts.init1, parts.init2, parts.profile1, parts.profile2,
                                parts.grid, [parts.interaction])[0]


@pytest.mark.parametrize("name", COUPLED_PRESETS)
def test_concurrence_column_equals_public_concurrence(name):
    config = apply_overrides(preset(name), periods=2)
    assert_same_bits(runner.execute(config).trace.concurrence,
                     analysis.concurrence(coupled_trajectory(config)))
