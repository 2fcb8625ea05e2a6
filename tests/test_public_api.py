"""The package's public surface is the written list in ``delayphase.__all__``.

Every name in it has a caller: it appears, as a name, an attribute or a
string, in a module of the package other than ``__init__.py`` or in the
benchmark's scripts. The legacy shim the benchmark reads is off the surface,
reached only through its modules, and a leaf: no other code of the package
refers to it.
"""

import ast
import types
from pathlib import Path

import delayphase as dp

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = [
    "AnalogDesign", "ChannelRealization", "DesignReport", "PathSet", "Scenario",
    "SizingResult", "SystemConfig", "achievable_rate", "analog_stack", "design_benchmark",
    "design_joint", "digital_precoder", "dirichlet_gain", "divisor_ceiling", "divisors",
    "eigenbeam_rate", "empirical_cdf", "freq_ratios", "gain_profile", "ideal_stack",
    "make_rng", "min_ttds", "nt_upper_bound", "rate_lower_bound", "run", "sample_channel",
    "sample_paths", "size_ttds", "subcarrier_frequencies", "tmax_lower_bound",
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
    assert len(PUBLIC) == 30
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


PACKAGE = [p for p in sorted((ROOT / "src" / "delayphase").glob("*.py"))
           if p.name != "__init__.py"]


def parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"))


def used_names(tree: ast.AST, strings: bool = True) -> set:
    """Names, attributes and, if strings, string constants; a definition or an import is no use."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def test_every_public_name_has_a_caller():
    files = PACKAGE + sorted((ROOT / "bench").glob("*.py"))
    used = set().union(*(used_names(parse(p)) for p in files))
    assert sorted(set(dp.__all__) - used) == []


# the shim the benchmark's rate_bound workload and its tracer read: the
# per-subcarrier twins of the stacks and the analog stack in a PrecoderSet
LEGACY = {"materialize", "PrecoderSet", "ideal_precoder", "array_gain"}


def test_legacy_shim_is_off_the_surface():
    assert not any(hasattr(dp, name) for name in LEGACY)
    for module, name in (("precoders", "materialize"), ("precoders", "PrecoderSet"),
                         ("precoders", "ideal_precoder"), ("metrics", "array_gain")):
        assert callable(getattr(getattr(dp, module), name))


def test_legacy_layer_is_a_leaf():
    # no function or class of the package outside the layer refers to it; a docstring does not
    callers = [f"{path.stem}.{node.name}" for path in PACKAGE for node in ast.walk(parse(path))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in LEGACY
               and used_names(node, strings=False) & LEGACY]
    assert callers == []
