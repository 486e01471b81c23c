import numpy as np
import pytest


@pytest.fixture
def svd_calls(monkeypatch):
    """Shapes of the SVDs numpy runs while the test runs: the direct
    ``np.linalg.svd`` calls and the ones ``np.linalg.norm`` makes for a
    2-norm, which go to the ``svd`` of the module that defines it."""
    calls = []
    real = np.linalg.svd

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    norm = getattr(np.linalg.norm, "__wrapped__", np.linalg.norm)
    monkeypatch.setitem(norm.__globals__, "svd", counting)
    return calls
