"""The package's public surface is the written list in ``delayphase.__all__``."""

import types

import delayphase as dp

PUBLIC = [
    "AnalogDesign", "ChannelRealization", "DesignReport", "GainProfile", "PathSet",
    "PrecoderSet", "RateProfile", "Scenario", "SizingResult", "SystemConfig",
    "achievable_rate", "analog_stack", "array_gain", "design_benchmark", "design_joint",
    "digital_precoder", "dirichlet_gain", "divisor_ceiling", "divisors", "eigenbeam_rate",
    "empirical_cdf", "freq_ratio", "freq_ratios", "gain_profile", "ideal_precoder",
    "ideal_stack", "make_rng", "materialize", "min_ttds", "min_ttds_linear",
    "nt_upper_bound", "rate_lower_bound", "rate_profile", "run", "sample_channel",
    "sample_paths", "size_ttds", "squint_offset", "subcarrier_frequencies", "taylor_gain",
    "tmax_lower_bound",
]

# names that left the library: the QP oracle now lives in tests/qp_oracle.py,
# channel_matrices was a wrapper of model._channel_factors, and ula_response
# was ideal_precoder(cfg, [psi], k)[:, 0]
GONE = ["BranchQP", "KKTSolution", "branch_eta", "branch_qp", "solve_kkt",
        "solve_projected", "channel_matrices", "qp", "ula_response"]


def test_all_is_the_written_list():
    assert sorted(dp.__all__) == PUBLIC
    assert len(set(dp.__all__)) == len(dp.__all__)


def test_every_public_name_resolves():
    for name in dp.__all__:
        assert getattr(dp, name) is not None, name


def test_star_import_binds_no_module_and_no_removed_name():
    namespace = {}
    exec("from delayphase import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == PUBLIC
    assert not any(isinstance(v, types.ModuleType) for v in namespace.values())
    assert not set(GONE) & set(namespace)
    assert not any(hasattr(dp, name) for name in GONE)
