import pytest
from hypothesis import settings

from linkdomain import ConnectivityGraph, kernels

settings.register_profile("linkdomain", deadline=None)
settings.load_profile("linkdomain")


@pytest.fixture
def seed_lists_refused_after_sweep(monkeypatch):
    """Once a seed sweep returns, reading a graph's seed lists fails the test."""
    sweep = kernels.sweep_seeds

    def refuse(graph):
        raise AssertionError("read the seed lists")

    def sweep_then_refuse(*args):
        order = sweep(*args)
        monkeypatch.setattr(ConnectivityGraph, "seed_arrays", refuse)
        return order

    monkeypatch.setattr(kernels, "sweep_seeds", sweep_then_refuse)
