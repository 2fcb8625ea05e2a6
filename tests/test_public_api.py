"""The package's public surface is the written list in ``delayphase.__all__``.

Every name in it has a caller: it appears, as a name, an attribute or a
string, in a module of the package other than ``__init__.py`` or in the
benchmark's scripts.
"""

import ast
import types
from pathlib import Path

import delayphase as dp

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = [
    "AnalogDesign", "ChannelRealization", "DesignReport", "PathSet", "PrecoderSet",
    "Scenario", "SizingResult", "SystemConfig", "achievable_rate", "analog_stack",
    "array_gain", "design_benchmark", "design_joint", "digital_precoder", "dirichlet_gain",
    "divisor_ceiling", "divisors", "eigenbeam_rate", "empirical_cdf", "freq_ratios",
    "gain_profile", "ideal_precoder", "ideal_stack", "make_rng", "materialize", "min_ttds",
    "nt_upper_bound", "rate_lower_bound", "run", "sample_channel", "sample_paths",
    "size_ttds", "subcarrier_frequencies", "tmax_lower_bound",
]

# names that left the library: the QP oracle and the paper formulas without a
# caller (squint_offset, taylor_gain, min_ttds_linear) now live in
# tests/qp_oracle.py and tests/paper_formulas.py, channel_matrices was a
# wrapper of model._channel_factors, ula_response was
# ideal_precoder(cfg, [psi], k)[:, 0], freq_ratio was freq_ratios(cfg)[k - 1],
# and the profile containers gave way to the gain array and empirical_cdf
GONE = ["BranchQP", "KKTSolution", "branch_eta", "branch_qp", "solve_kkt",
        "solve_projected", "channel_matrices", "qp", "ula_response", "squint_offset",
        "taylor_gain", "min_ttds_linear", "freq_ratio", "GainProfile", "RateProfile",
        "rate_profile"]


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


def used_names(path: Path) -> set:
    """Names, attributes and string constants in a file; a definition or an import is no use."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def test_every_public_name_has_a_caller():
    files = [p for p in sorted((ROOT / "src" / "delayphase").glob("*.py"))
             if p.name != "__init__.py"] + sorted((ROOT / "bench").glob("*.py"))
    used = set().union(*map(used_names, files))
    assert sorted(set(dp.__all__) - used) == []
