import warnings

import pytest
from hypothesis import strategies as st

from delayphase import SystemConfig

HEADLINE = dict(
    f_c=300e9,
    bandwidth=30e9,
    n_subcarriers=129,
    n_tx=256,
    n_rx=4,
    n_rf=4,
    n_streams=4,
    ttds_per_rf=16,
    ps_per_ttd=16,
    t_max=340e-12,
    rho=10 ** 0.3,  # 3 dB
    seed=20260811,
)


def make_config(**overrides) -> SystemConfig:
    """Headline system config with overrides; small-array warnings silenced."""
    params = dict(HEADLINE)
    params.update(overrides)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return SystemConfig(**params)


@pytest.fixture
def cfg() -> SystemConfig:
    return make_config()


@st.composite
def systems(draw):
    """Small configurations with n_streams = n_rf = n_rx, as the model requires."""
    m_ttd = draw(st.integers(1, 8))
    n_ps = draw(st.integers(1, 8))
    n_rf = draw(st.integers(1, min(4, m_ttd * n_ps)))
    return make_config(
        n_tx=m_ttd * n_ps, ttds_per_rf=m_ttd, ps_per_ttd=n_ps,
        n_rx=n_rf, n_rf=n_rf, n_streams=n_rf,
        n_subcarriers=2 * draw(st.integers(0, 20)) + 1,
        bandwidth=draw(st.floats(1e9, 1e11)),
        t_max=draw(st.floats(1e-12, 1e-9)),
        rho=draw(st.floats(0.1, 100.0)),
    )
