"""delayphase: joint true-time-delay / phase-shifter precoding for wideband
massive MIMO OFDM, with closed-form designs, sizing rules, and a CDF harness.

``__all__`` is the public surface: the functions the harness, the CLI, the
scenarios and the benchmark reach, and the dataclasses they take or return.
Every name in it has a caller in the package or the benchmark. Submodules
stay importable by name; the legacy shim the benchmark alone reads
(``precoders.materialize``, ``precoders.PrecoderSet``,
``precoders.ideal_precoder`` and ``metrics.array_gain``) is reached only
through them.
"""

from .design import (DesignReport, design_benchmark, design_joint,
                     nt_upper_bound, tmax_lower_bound)
from .harness import Scenario, run
from .metrics import (achievable_rate, dirichlet_gain, eigenbeam_rate, empirical_cdf,
                      gain_profile, rate_lower_bound)
from .model import (ChannelRealization, PathSet, SystemConfig, freq_ratios, make_rng,
                    sample_channel, sample_paths, subcarrier_frequencies)
from .precoders import AnalogDesign, analog_stack, digital_precoder, ideal_stack
from .sizing import SizingResult, divisor_ceiling, divisors, min_ttds, size_ttds

__version__ = "0.1.0"

__all__ = [
    # design
    "DesignReport", "design_benchmark", "design_joint", "nt_upper_bound", "tmax_lower_bound",
    # harness
    "Scenario", "run",
    # metrics
    "achievable_rate", "dirichlet_gain", "eigenbeam_rate", "empirical_cdf", "gain_profile",
    "rate_lower_bound",
    # model
    "ChannelRealization", "PathSet", "SystemConfig", "freq_ratios", "make_rng",
    "sample_channel", "sample_paths", "subcarrier_frequencies",
    # precoders
    "AnalogDesign", "analog_stack", "digital_precoder", "ideal_stack",
    # sizing
    "SizingResult", "divisor_ceiling", "divisors", "min_ttds", "size_ttds",
]
