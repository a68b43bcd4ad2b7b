import numpy as np
import pytest
import scipy.linalg

from framelift import Frame, random_frame

# Factorizations watched by nxn_factorizations. pinv is listed on its own:
# its internal SVD does not go through the np.linalg.svd attribute.
_FACTORIZATIONS = (
    (np.linalg, ("svd", "inv", "eigh", "eigvalsh", "qr", "pinv")),
    (scipy.linalg, ("eigh",)),
)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def small_frame(rng) -> Frame:
    return random_frame(rng, 12, 6)


@pytest.fixture
def tight_frame(rng) -> Frame:
    return random_frame(rng, 6, 3, kind="tight")


@pytest.fixture
def nxn_factorizations(monkeypatch):
    """``watch(n)`` patches the factorizations above for the rest of the test
    and returns the list that names each call taking or returning an n x n
    matrix (a full SVD of a d x n matrix returns one)."""

    def watch(n: int) -> list:
        seen = []

        def counting(name, fn):
            def wrapper(a, *args, **kwargs):
                out = fn(a, *args, **kwargs)
                parts = out if isinstance(out, tuple) else (out,)
                if any(np.shape(x)[-2:] == (n, n) for x in (a, *parts)):
                    seen.append(name)
                return out

            return wrapper

        for mod, names in _FACTORIZATIONS:
            for name in names:
                monkeypatch.setattr(mod, name, counting(f"{mod.__name__}.{name}", getattr(mod, name)))
        return seen

    return watch


def random_vector(rng, d: int) -> np.ndarray:
    return rng.standard_normal(d) + 1j * rng.standard_normal(d)
