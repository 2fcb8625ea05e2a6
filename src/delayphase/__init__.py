"""delayphase: joint true-time-delay / phase-shifter precoding for wideband
massive MIMO OFDM, with closed-form designs, sizing rules, and a CDF harness."""

from .design import (DesignReport, design_benchmark, design_joint,
                     nt_upper_bound, tmax_lower_bound)
from .harness import Scenario, run
from .metrics import (GainProfile, RateProfile, achievable_rate, array_gain,
                      dirichlet_gain, eigenbeam_rate, empirical_cdf, gain_profile,
                      rate_lower_bound, rate_profile, squint_offset)
from .model import (ChannelRealization, PathSet, SystemConfig, channel_matrices,
                    freq_ratio, freq_ratios, make_rng, sample_channel, sample_paths,
                    subcarrier_frequencies, subcarrier_frequency, ula_response,
                    ula_steering)
from .precoders import (AnalogDesign, PrecoderSet, analog_stack, digital_precoder,
                        ideal_precoder, ideal_stack, materialize)
from .qp import BranchQP, KKTSolution, branch_eta, branch_qp, solve_kkt, solve_projected
from .sizing import (SizingResult, divisor_ceiling, divisors, min_ttds, min_ttds_linear,
                     size_ttds, taylor_gain)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
