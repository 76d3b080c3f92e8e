"""Shared fixtures: the differential oracles behind ``run_atpg``."""

import functools

import pytest

from repro.atpg import driver
from repro.atpg.engine import make_atpg
from repro.sim.resident import make_resident_dropper


@pytest.fixture
def use_oracles(monkeypatch):
    """Point ``run_atpg`` (and everything above it) at the oracles.

    ``use_oracles()`` swaps the ``repro.atpg.driver`` module globals
    ``make_atpg`` and ``make_resident_dropper`` for the reference PODEM
    engine and the reference fault simulator; ``engine=False`` or
    ``simulator=False`` keeps that half on its default path.  The swap
    lasts until the test ends.
    """

    def install(engine: bool = True, simulator: bool = True) -> None:
        if engine:
            monkeypatch.setattr(driver, "make_atpg", functools.partial(
                make_atpg, engine="reference"))
        if simulator:
            monkeypatch.setattr(
                driver, "make_resident_dropper",
                functools.partial(make_resident_dropper,
                                  backend="reference"))

    return install
