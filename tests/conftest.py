import numpy as np
import pytest

from liptrack.datasets import DataPair, synthetic_fallback


def tiny_pair(n_train=96, n_test=32, d=12, k=4, seed=5) -> DataPair:
    train, test = synthetic_fallback(n_train, n_test, d, k, seed)
    return DataPair(train, test)


@pytest.fixture
def tiny_data() -> DataPair:
    return tiny_pair()


def active_input(net, rng: np.random.Generator, margin: float = 1e-4) -> np.ndarray:
    """An input whose pre-activations all clear ``margin``, so finite
    differences and Jacobians never straddle a ReLU kink."""
    for _ in range(200):
        x = rng.standard_normal(net.input_dim)
        a = x[None, :]
        ok = True
        for w in net.weights:
            z = a @ w.T
            if np.min(np.abs(z)) <= margin:
                ok = False
                break
            a = np.maximum(z, 0.0)
        if ok:
            return x
    raise AssertionError("no kink-free input found in 200 draws")
