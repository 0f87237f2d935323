import numpy as np
import pytest
from hypothesis import settings

from tarnpricer import ConstantVol, LocalVolSurface, MarketModel, RateCurve, TarnContract

# These tests check behaviour, not speed (perfbench times the engines), so a
# slow example on a busy host is no failure.
settings.register_profile("no_deadline", deadline=None)
settings.load_profile("no_deadline")


def flat_model(sigma=0.2, r_d=0.0, r_f=0.0):
    return MarketModel(
        domestic=RateCurve.flat(r_d),
        foreign=RateCurve.flat(r_f),
        vol=ConstantVol(sigma),
    )


def smile_model():
    surface = LocalVolSurface(time_knots=[0.0, 0.5, 2.0], spot_knots=[0.7, 1.0, 1.4],
                              values=[[0.3, 0.18, 0.25], [0.26, 0.16, 0.22],
                                      [0.24, 0.15, 0.2]])
    return MarketModel(domestic=RateCurve.flat(0.02), foreign=RateCurve.flat(0.01),
                       vol=surface)


def benchmark_times(k=20):
    return tuple(i * 30 / 365 for i in range(1, k + 1))


def benchmark_contract(knockout, target):
    return TarnContract(strike=1.0, target=target, beta=1,
                        fixing_times=benchmark_times(), knockout=knockout)


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)
