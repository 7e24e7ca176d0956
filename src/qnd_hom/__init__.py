"""Two-photon bunching through continuous-variable QND gates.

The package computes the Hong–Ou–Mandel projection of two noisy single
photons sent through a quadrature QND interaction — ideal, pulsed
atom–light, pulsed optomechanical, or hybrid atom–mechanical — together
with the coherent-state thresholds that certify nonclassical operation.

The top level re-exports what the README, the command line and the
scripts use; everything else is imported from its submodule.  The
truncated-Fock closed forms of :mod:`qnd_hom.fock` are imported on first
use (PEP 562), so the command line never loads that module.
"""

from .gates import AtomMechParams, build_atom_mech_gate, ideal_gate_model
from .gaussian import NumericalDomainError
from .metrics import InputSpec, hom_element_for_gate
from .sweep import (
    PRESETS,
    SweepConfig,
    SweepConfigError,
    SweepNumericalError,
    build_model,
    emit,
    find_optimum,
    preset_config,
    run_sweep,
)
from .thresholds import (
    find_crossing,
    input_threshold,
    output_threshold,
    verify_output_threshold,
)

__version__ = "0.1.0"

__all__ = [
    "AtomMechParams",
    "InputSpec",
    "NumericalDomainError",
    "PRESETS",
    "QND_11_ARGMAX",
    "SweepConfig",
    "SweepConfigError",
    "SweepNumericalError",
    "build_atom_mech_gate",
    "build_model",
    "closed_form_qnd_11",
    "emit",
    "find_crossing",
    "find_optimum",
    "hom_element_for_gate",
    "hom_element_mixture_ideal",
    "ideal_gate_model",
    "input_threshold",
    "output_threshold",
    "preset_config",
    "run_sweep",
    "verify_output_threshold",
]

_FOCK = ("QND_11_ARGMAX", "closed_form_qnd_11", "hom_element_mixture_ideal")


def __getattr__(name: str):
    if name in _FOCK:
        from . import fock

        value = globals()[name] = getattr(fock, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
