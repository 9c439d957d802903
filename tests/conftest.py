import numpy as np
import pytest

from croftoncloud.rng import ScalarSource

#: the benchmark's expression torus; a polynomial, so the scan takes its cells from Bernstein bounds on each line
TORUS_EXPR = "(x^2+y^2+z^2+3.75)^2-16*(x^2+y^2)"


class ScriptedSource(ScalarSource):
    """Feeds a fixed list of scalars; for exact sampler arithmetic tests."""

    def __init__(self, values):
        self.values = list(values)
        self.cursor = 0

    def take(self, count):
        if self.cursor + count > len(self.values):
            raise RuntimeError("scripted source exhausted")
        out = np.array(self.values[self.cursor : self.cursor + count], dtype=np.float64)
        self.cursor += count
        return out


@pytest.fixture
def scripted():
    return ScriptedSource


def binomial_sigma(n, p):
    return np.sqrt(n * p * (1.0 - p))
