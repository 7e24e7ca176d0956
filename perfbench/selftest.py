"""Self-test of the benchmark's oracles; makes no call into the program.

Run:  python3 perfbench/selftest.py   (exit code 0 when every check holds)
"""

from __future__ import annotations

import math
import sys

import mpmath

import oracles


def _e11(G):
    return 16 * G**2 * (G**2 - 8) ** 2 / (4 + G**2) ** 5


def check() -> list[str]:
    """Return one message per oracle that does not hold."""
    problems = []
    mpmath.mp.dps = 40
    g_star = mpmath.sqrt(11 - mpmath.sqrt(105))
    if abs(mpmath.diff(_e11, g_star)) > mpmath.mpf(10) ** -30:
        problems.append("E11'(G*) is not 0")
    if abs(mpmath.diff(_e11, g_star, 2)) < 0.1 or mpmath.diff(_e11, g_star, 2) > 0:
        problems.append("G* is not a maximum of E11")
    if abs(float(g_star) - oracles.G_STAR) > 1e-15:
        problems.append("G_STAR differs from sqrt(11 - sqrt(105))")
    if abs(oracles.qnd_11(oracles.G_STAR) - 0.2608510) > 1e-6:
        problems.append("E11(G*) is not 0.26085")
    for G in (0.0, 0.4, 1.3, 2.7):
        if abs(oracles.qnd_11(G) - float(_e11(mpmath.mpf(G)))) > 1e-15:
            problems.append(f"qnd_11({G}) differs from the mpmath form")
    if oracles.qnd_11(math.sqrt(8.0)) > 1e-15 or oracles.qnd_00(0.0) != 0.0:
        problems.append("closed-form zeros are wrong")
    if oracles.ideal_mixture(1.1, 0.0) != oracles.qnd_00(1.1):
        problems.append("p = 0 mixture is not the vacuum element")
    if abs(oracles.bs_mixture(0.5, 0.7) - 0.49) > 1e-15 or oracles.bs_mixture(0.0, 1.0) != 0.0:
        problems.append("beam-splitter mixture is wrong")

    # phase-averaged threshold identity at G = 0: max over u, v >= 0 is e^-2 at (2, 0)
    f = lambda u, v: mpmath.mpf(1) / 4 * mpmath.e ** (-(u + v)) * (u**2 + v**2)
    if abs(f(2, 0) - mpmath.e**-2) > mpmath.mpf(10) ** -35:
        problems.append("identity element at (2, 0) is not e^-2")
    if abs(mpmath.diff(lambda u: f(u, 0), 2)) > mpmath.mpf(10) ** -30:
        problems.append("identity element is not stationary at u = 2")
    grid = [k * 0.05 for k in range(121)]
    best = max(oracles.identity_phase_averaged(u, v) for u in grid for v in grid)
    if abs(best - oracles.E_MINUS_2) > 1e-15 or best > oracles.E_MINUS_2:
        problems.append("grid maximum of the identity element is not e^-2")

    # crossing oracle on a quadratic with a known root
    curve = lambda p: 0.3 * p * p + 0.1 * p * (1 - p) + 0.05 * (1 - p) ** 2
    level = curve(0.8)
    found = oracles.quadratic_root([0.0, 0.5, 1.0], [curve(0.0), curve(0.5), curve(1.0)], level, 0.3, 1.0)
    if found is None or abs(found[0] - 0.8) > 1e-12:
        problems.append("quadratic_root misses a known root")
    if oracles.quadratic_residual([0, 1, 2, 3], [1, 2, 5, 10]) > 1e-12:
        problems.append("quadratic_residual of an exact quadratic is not 0")
    if oracles.digits(0.0) != 15.0 or abs(oracles.digits(1e-5) - 5.0) > 1e-12:
        problems.append("digits is wrong")
    return problems


def main() -> int:
    problems = check()
    for msg in problems:
        print(f"oracle self-test: {msg}", file=sys.stderr)
    if not problems:
        print("oracle self-test: ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
