#!/usr/bin/env python3
"""Print the headline quantitative landmarks of the simulator.

Runs in a few seconds; every number here is also pinned (with
tolerances) in the test suite.
"""

import math

from qnd_hom import (
    AtomMechParams,
    InputSpec,
    QND_11_ARGMAX,
    build_atom_mech_gate,
    build_model,
    closed_form_qnd_11,
    find_crossing,
    find_optimum,
    hom_element_for_gate,
    hom_element_mixture_ideal,
    input_threshold,
    output_threshold,
    verify_output_threshold,
)


def main():
    print("== ideal gate ==")
    print(f"argmax gain            G* = {QND_11_ARGMAX:.10f}")
    print(f"maximal element     f(G*) = {closed_form_qnd_11(QND_11_ARGMAX):.10f}")
    print(f"output threshold    e^-2  = {output_threshold():.10f}")
    print(f"  brute-force check       = {verify_output_threshold():.10f}")
    thr = input_threshold(QND_11_ARGMAX)
    print(f"input threshold at G*     = {thr.value:.8f}  (argmax {thr.argmax[0]:.3f}, {thr.argmax[1]:.3f})")

    crossing = find_crossing(
        lambda p: hom_element_mixture_ideal(QND_11_ARGMAX, p, p), thr.value, 0.0, 1.0
    )
    print(f"mixture crosses input thr at p = {crossing:.4f}")

    print("\n== pulsed atomic gate (kappa_tau=100, eta=0.9) ==")
    best = find_optimum("atom-light", {"kappa_tau": 100.0, "eta": 0.9}, {"g": (0.02, 0.15)})
    print(f"max element {best.value:.6f} at g = {best.argmax['g']:.4f}")

    print("\n== pulsed optomechanical gate (kappa_tau=100, eta=0.9) ==")
    for Gamma in (1e-4, 1e-3):
        b = find_optimum(
            "optomech", {"kappa_tau": 100.0, "eta": 0.9, "Gamma": Gamma}, {"g": (0.02, 0.15)}
        )
        print(f"Gamma={Gamma:.0e}: max element {b.value:.6f} at g = {b.argmax['g']:.4f}")

    print("\n== hybrid gate (g=0.07, kappa_tau=90, eta=0.9, Gamma=1e-4) ==")
    for S in (0.0, 7.0):
        model = build_atom_mech_gate(AtomMechParams(0.07, 0.07, 90.0, 0.9, 1e-4, S))
        val = hom_element_for_gate(model, InputSpec(1.0, 1.0)).value
        marker = ">" if val > output_threshold() else "<"
        print(f"S={S:4.1f} dB: element {val:.6f}  ({marker} e^-2)")

    model = build_model(
        "atom-mech", {"g": 0.07, "kappa_tau": 90.0, "eta": 0.9, "Gamma": 1e-4, "S": 7.0}
    )
    thr = input_threshold(model)
    print(f"input threshold           = {thr.value:.6f}")


if __name__ == "__main__":
    main()
