"""The coherent element at one point, kept as the reference that the node
arrays of :class:`qnd_hom.thresholds._AveragedElement` are tested against,
and through which the coherent forms are checked against closed forms and
the truncated-Fock oracle.

For coherent signal inputs, the element is the y_a·y_b coefficient of
c(y)·exp(−q(y)/2), with the jets c and Q of
:func:`qnd_hom.thresholds.coherent_jets`.  Here it is written out once,
term by term, and evaluated on arrays of form values or at one vector of
input quadrature means, with no phase grid and no monomials.
"""

import numpy as np

from qnd_hom.gates import GateModel, as_gate_model
from qnd_hom.metrics import _probability
from qnd_hom.thresholds import coherent_jets


def coherent_coefficient(c: np.ndarray, q0, qa, qb, qab):
    """y_a·y_b coefficient of c(y)·exp(−q(y)/2): the coherent element
    exp(−q₀/2)·P, P = c₀(q_a q_b/4 − q_ab/2) − (c₁q_b + c₂q_a)/2 + c₃
    (elementwise on arrays of q values)."""
    return np.exp(-0.5 * q0) * (c[0] * (0.25 * qa * qb - 0.5 * qab) - 0.5 * (c[1] * qb + c[2] * qa) + c[3])


def coherent_output_element(model: GateModel | float, means: np.ndarray) -> float:
    """Element for coherent signal inputs with quadrature means
    (X_a, P_a, X_b, P_b) — twice the coherent amplitudes — propagated
    through the gate; all noise modes stay at zero mean.

    A bare number is accepted in place of a model and denotes the
    ideal gate with that gain.
    """
    means = np.asarray(means, dtype=float)
    if means.shape != (4,):
        raise ValueError("means must be a quadrature 4-vector")
    model = as_gate_model(model)
    c, Q = coherent_jets(model.kernels, model.jet)
    return _probability(float(coherent_coefficient(c, *(means @ Q @ means))))
