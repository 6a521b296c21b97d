import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "randdd",
    deadline=None,
    max_examples=30,
    suppress_health_check=[HealthCheck.too_slow],
)
# a deeper run: pytest --hypothesis-profile=thorough. A test's own
# @settings(max_examples=n) wins over any profile; a test that should go
# deeper here sets max(n, settings.default.max_examples)
settings.register_profile("thorough", parent=settings.get_profile("randdd"), max_examples=3000)
settings.load_profile("randdd")


@pytest.fixture
def standard_pulses():
    from randdd.model import PulseParams

    return PulseParams(tau=0.02, delta=0.008, phi=0.2)


@pytest.fixture
def system02():
    from randdd.model import SystemParams

    return SystemParams(omega=1.0, Gamma=1.0, gamma=0.2)
