"""Independent high-precision oracle for the noisy gates' element.

Each single quantum is written as the thermal-minus-vacuum combination
((n+1)/n)·ρ_th(n) − (1/n)·ρ_vac, which equals |1⟩⟨1| up to O(n).  The
element is then a signed sum of zero-mean two-mode overlaps
4/√det(V₁+V₂) whose terms reach 1/n⁴, so it is summed in mpmath at 50
digits from the float64 map A·C over independent modes, with C the
Cholesky factor of the Gram matrix, which the element itself never
reads.  Three occupations n, n/2, n/4 and Richardson extrapolation
remove the O(n) and O(n²) biases.
"""

import mpmath
import pytest

from qnd_hom.gaussian import bs_matrix
from qnd_hom.metrics import InputSpec, hom_element_for_gate
from qnd_hom.sweep import build_model

OCCUPATIONS = ("1e-6", "5e-7", "2.5e-7")


def _terms(p, n):
    """(weight, variance) per mode of p|1⟩⟨1| + (1−p)|0⟩⟨0|."""
    w = p * (n + 1) / n
    return ((w, 2 * n + 1), (1 - w, mpmath.mpf(1)))


def _signed_sum(model, p, n):
    A = mpmath.matrix((model.output_matrix @ model.basis.transform).tolist())
    B = mpmath.matrix(bs_matrix(0.5).tolist())
    vacuum = [mpmath.mpf(1)] * (model.basis.n_modes - 4)
    projector = [
        (wk * wl, B * mpmath.diag([vk, vk, vl, vl]) * B.T)
        for wk, vk in _terms(1, n)
        for wl, vl in _terms(1, n)
    ]
    total = mpmath.mpf(0)
    for wa, va in _terms(p, n):
        for wb, vb in _terms(p, n):
            V = A * mpmath.diag([va, va, vb, vb] + vacuum) * A.T
            for w, P in projector:
                total += wa * wb * w * 4 / mpmath.sqrt(mpmath.det(V + P))
    return total


def oracle_element(model, p):
    with mpmath.workdps(50):
        p = mpmath.mpf(p)
        f1, f2, f4 = (_signed_sum(model, p, mpmath.mpf(n)) for n in OCCUPATIONS)
        return float((8 * f4 - 6 * f2 + f1) / 3)


@pytest.mark.parametrize("gate, values", [
    ("atom-light", {"g": 0.06, "kappa_tau": 100.0, "eta": 0.9}),
    ("optomech", {"g": 0.06, "kappa_tau": 100.0, "eta": 0.9, "Gamma": 1e-3}),
    ("atom-mech", {"g": 0.07, "kappa_tau": 90.0, "eta": 0.9, "Gamma": 1e-4, "S": 7.0}),
])
@pytest.mark.parametrize("p", [1.0, 0.63])
def test_element_matches_high_precision_oracle(gate, values, p):
    model = build_model(gate, values)
    got = hom_element_for_gate(model, InputSpec(p, p)).value
    assert abs(got - oracle_element(model, p)) <= 1e-12
