"""Shared fixtures."""

import numpy as np
import pytest

from geominima import FourierBody2D


@pytest.fixture
def calls(monkeypatch):
    """calls(owner, name, arg=1) counts the calls of owner.name for the rest
    of the test.  It returns a list that gets, per call, the length of the
    positional argument number ``arg`` (the first after self for a method;
    1 for a scalar): the number of angles or directions the call was given."""

    def count(owner, name, arg=1):
        log = []
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            log.append(len(np.atleast_1d(args[arg])))
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return log

    return count


@pytest.fixture
def radial_solves(calls):
    """The sizes of the FourierBody2D.radial_angle calls made in the test."""
    return calls(FourierBody2D, "radial_angle")
