"""delayphase: joint true-time-delay / phase-shifter precoding for wideband
massive MIMO OFDM, with closed-form designs, sizing rules, and a CDF harness.

``__all__`` is the public surface: the functions the harness, the CLI, the
scenarios and the benchmark reach, the dataclasses they take or return, and
four paper formulas kept for their tests (squint_offset, taylor_gain,
min_ttds_linear, dirichlet_gain). Submodules stay importable by name.
"""

from .design import (DesignReport, design_benchmark, design_joint,
                     nt_upper_bound, tmax_lower_bound)
from .harness import Scenario, run
from .metrics import (GainProfile, RateProfile, achievable_rate, array_gain,
                      dirichlet_gain, eigenbeam_rate, empirical_cdf, gain_profile,
                      rate_lower_bound, rate_profile, squint_offset)
from .model import (ChannelRealization, PathSet, SystemConfig, freq_ratio, freq_ratios,
                    make_rng, sample_channel, sample_paths, subcarrier_frequencies)
from .precoders import (AnalogDesign, PrecoderSet, analog_stack, digital_precoder,
                        ideal_precoder, ideal_stack, materialize)
from .sizing import (SizingResult, divisor_ceiling, divisors, min_ttds, min_ttds_linear,
                     size_ttds, taylor_gain)

__version__ = "0.1.0"

__all__ = [
    # design
    "DesignReport", "design_benchmark", "design_joint", "nt_upper_bound", "tmax_lower_bound",
    # harness
    "Scenario", "run",
    # metrics
    "GainProfile", "RateProfile", "achievable_rate", "array_gain", "dirichlet_gain",
    "eigenbeam_rate", "empirical_cdf", "gain_profile", "rate_lower_bound", "rate_profile",
    "squint_offset",
    # model
    "ChannelRealization", "PathSet", "SystemConfig", "freq_ratio", "freq_ratios", "make_rng",
    "sample_channel", "sample_paths", "subcarrier_frequencies",
    # precoders
    "AnalogDesign", "PrecoderSet", "analog_stack", "digital_precoder", "ideal_precoder",
    "ideal_stack", "materialize",
    # sizing
    "SizingResult", "divisor_ceiling", "divisors", "min_ttds", "min_ttds_linear",
    "size_ttds", "taylor_gain",
]
