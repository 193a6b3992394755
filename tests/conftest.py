"""Shared fixtures."""

import numpy as np
import pytest

from geominima import FourierBody2D


@pytest.fixture
def radial_solves(monkeypatch):
    """The sizes of the FourierBody2D.radial_angle calls made in the test."""
    calls = []
    solve = FourierBody2D.radial_angle

    def counted(self, phi):
        calls.append(np.size(phi))
        return solve(self, phi)

    monkeypatch.setattr(FourierBody2D, "radial_angle", counted)
    return calls
