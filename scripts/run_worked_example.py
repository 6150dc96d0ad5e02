#!/usr/bin/env python3
"""End-to-end walkthrough on the 5-vertex reference instance.

Builds the graph, checks the profile, peels the frequency bounds, finds the
admissible vertex sequence, prints the plan, simulates a periodic and a
windowed run, and shows the eccentricity-reducing spread of the base load.
"""

from fractions import Fraction

import numpy as np

import ctgs

EDGES = [[0, 1], [0, 3], [0, 4], [1, 2], [1, 3], [2, 3], [2, 4]]
B = [5, 5, 1, 4, 4]
C = [9, 2, 5, "inf", "inf"]


def main():
    graph = ctgs.GraphModel.create(5, EDGES)
    spectrum = ctgs.eigendecompose(ctgs.build_shift_operator(graph, "laplacian"))
    profile = ctgs.BandwidthProfile.create(B, C)
    labels = graph.vertex_labels

    print("eigenvalues:", np.round(spectrum.eigenvalues, 6))
    cert, finite, filtration, seq, plan = ctgs.plan_problem(spectrum, profile)

    print("\nfiltration (top level first):")
    for step in filtration.steps:
        print(f"  peel lambda{step.lambda_star + 1}: quotient bandwidth {step.b_star}, "
              f"optimal set {[labels[v] for v in step.vertices]}")
    print("terminal frequency bounds:", filtration.levels[0].freq_bw)

    print("\nadmissible sequence:")
    for i, vs in enumerate(seq.v_sets):
        print(f"  V_{i} = {[labels[v] for v in vs]}")
    print("per-vertex rates:", {labels[v]: str(r) for v, r in sorted(plan.per_vertex_rates.items())})
    print("total rate:", plan.total_rate)

    base_profile = ctgs.BandwidthProfile(finite.vertex_bw, filtration.levels[0].freq_bw)
    verdict = ctgs.is_tight(spectrum, base_profile)
    print("\nbase-level profile tight:", verdict.tight)
    for v, prefix, limit in verdict.violations:
        print(f"  {labels[v]} depends on {[labels[w] for w in prefix]} "
              f"but has bandwidth {base_profile.vertex_bw[v]} > {limit}")
    print("tightened:", ctgs.tighten(spectrum, base_profile).vertex_bw)

    for mode, domain in (("periodic", Fraction(1)), ("sinc", (Fraction(-20), Fraction(20)))):
        sset = ctgs.build_sample_set(plan, mode, domain)
        truth = ctgs.synthesize_signal(spectrum, finite, 42, mode, domain, plan=plan)
        result = ctgs.recover(ctgs.sample_signal(truth, sset), plan, spectrum, sset)
        errors = ctgs.recovery_error(truth, result.recovered, mode, domain, 5)
        worst = max(e["error"] for e in errors.values())
        print(f"\n{mode} round trip: {sset.n_points()} samples, worst vertex error {worst:.3e}")

    full = ctgs.build_sample_set(plan, "periodic", 1)
    base = ctgs.SampleSet(n=5, mode="periodic", period=Fraction(1), window=None,
                          grids=tuple(g for g in full.grids if g.grid_id.startswith("base")))
    spread = ctgs.redistribute(spectrum, plan.base_lambda0, finite.vertex_bw,
                               plan.base_vertices, (1, 2, 3), base)
    print("\nbase-load spread over", [labels[v] for v in (1, 2, 3)])
    print("  rates before:", {labels[v]: str(r) for v, r in sorted(base.per_vertex_rates().items())},
          "eccentricity", ctgs.eccentricity(base))
    print("  rates after: ", {labels[v]: str(r) for v, r in sorted(spread.per_vertex_rates().items())},
          "eccentricity", ctgs.eccentricity(spread))


if __name__ == "__main__":
    main()
