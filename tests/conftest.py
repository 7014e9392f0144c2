import pytest

from fixcat import poly


@pytest.fixture
def stage_builds(monkeypatch):
    """Record the size of every tree set `poly._apply_trees` applies a
    polynomial to, in call order: one entry per chain stage built."""
    built = []
    real = poly._apply_trees

    def counting(P, trees):
        built.append(len(trees))
        return real(P, trees)

    monkeypatch.setattr(poly, "_apply_trees", counting)
    return built
