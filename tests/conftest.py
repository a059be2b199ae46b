import pathlib
import sys

import pytest

from smoothsieve import mpoly

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCHEMES = ROOT / "schemes"

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))


@pytest.fixture(scope="session")
def schemes_dir():
    return SCHEMES


@pytest.fixture
def enumeration_calls(monkeypatch):
    """The calls made to the point engine's chunk generator,
    `mpoly.normalized_projective_points`, while the test runs."""
    calls = []
    real = mpoly.normalized_projective_points

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(mpoly, "normalized_projective_points", counting)
    return calls
