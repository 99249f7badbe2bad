"""Acceptance battery: one test per release criterion, with a printed
pass/fail line each.  Runtime-limited criteria assert their own budgets.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
"""

import io
import itertools
import math
import time

import numpy as np
import pytest

from cases import sample_lengths
from hytet import (
    EdgeLengths,
    MonteCarloConfig,
    cofactors,
    dihedral_angles,
    dihedral_angles_geometric,
    edge_matrix_from_lengths,
    embed_vertices,
    euclidean_volume_cm,
    jacobi_residuals,
    l34_bounds,
    lobachevsky,
    schlafli_residual,
    volume_edges,
    volume_monte_carlo,
    volume_regular,
    volume_sforza,
)
from hytet.cli import run
from hytet.config import ANGLE_GAP_LIMIT, JACOBI_LIMIT, ROUTE_GAP_LIMIT, SCHLAFLI_LIMIT

SEED = 20240817
N_CASES = 100


@pytest.fixture(scope="module")
def cases():
    rng = np.random.default_rng(SEED)
    return [sample_lengths(rng) for _ in range(N_CASES)]


def report(name: str, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_criterion_1_cofactor_rule_matches_geometry(cases):
    start = time.perf_counter()
    worst = 0.0
    for L in cases:
        E = edge_matrix_from_lengths(L)
        algebraic = dihedral_angles(cofactors(E))
        geometric = dihedral_angles_geometric(embed_vertices(E))
        worst = max(
            worst,
            max(abs(a - b) for a, b in
                zip(algebraic.as_tuple(), geometric.as_tuple())),
        )
    elapsed = time.perf_counter() - start
    report(
        "criterion 1 (cofactor cosine rule vs geometry)",
        worst < ANGLE_GAP_LIMIT and elapsed < 10.0,
        f"max angle gap {worst:.3e} rad (< {ANGLE_GAP_LIMIT:g}), {elapsed:.1f}s (< 10s)",
    )


def test_criterion_2_three_volume_routes_agree(cases):
    start = time.perf_counter()
    worst_gap = 0.0
    mc_hits = 0
    for index, L in enumerate(cases):
        ve = volume_edges(L)
        th = dihedral_angles(cofactors(edge_matrix_from_lengths(L)))
        vs = volume_sforza(th)
        worst_gap = max(worst_gap, abs(ve.value - vs.value))
        emb = embed_vertices(edge_matrix_from_lengths(L))
        mc = volume_monte_carlo(
            emb, MonteCarloConfig(seed=SEED + index, samples=1_000_000)
        )
        if abs(mc.value - ve.value) <= 3.0 * mc.error_estimate:
            mc_hits += 1
    elapsed = time.perf_counter() - start
    report(
        "criterion 2 (edge vs angle vs Monte Carlo)",
        worst_gap < ROUTE_GAP_LIMIT and mc_hits >= 97 and elapsed < 120.0,
        f"max |edge - angle| {worst_gap:.3e} (< {ROUTE_GAP_LIMIT:g}), Monte Carlo within "
        f"3 sigma in {mc_hits}/100 (>= 97), {elapsed:.1f}s (< 120s)",
    )


def test_criterion_3_cofactor_signs_and_identities(cases):
    worst_rel = 0.0
    signs_ok = True
    for L in cases:
        E = edge_matrix_from_lengths(L)
        C = cofactors(E)
        signs_ok &= all(c > 0 for c in C.diagonal) and C.delta < 0
        worst_rel = max(worst_rel, jacobi_residuals(E, C).max_relative)
    report(
        "criterion 3 (diagonal cofactors, determinant sign, identities)",
        signs_ok and worst_rel < JACOBI_LIMIT,
        f"signs ok on 100 cases, max identity residual {worst_rel:.3e} "
        f"(< {JACOBI_LIMIT:g})",
    )


def test_criterion_4_endpoint_degeneration():
    bounds = l34_bounds(1, 1, 1, 1, 1)
    base = dict(l12=1.0, l13=1.0, l14=1.0, l23=1.0, l24=1.0)
    at_lower = volume_edges(EdgeLengths(**base, l34=bounds.l1)).value
    near_upper = volume_edges(EdgeLengths(**base, l34=bounds.l2 - 1e-8)).value
    full = volume_edges(EdgeLengths(**base, l34=bounds.l2)).value
    report(
        "criterion 4 (flat endpoints)",
        at_lower < 1e-9 and near_upper < 1e-4 and abs(full) < 1e-6,
        f"V(l1) = {at_lower:.1e} (< 1e-9), V(l2 - 1e-8) = {near_upper:.2e} "
        f"(< 1e-4), full-interval integral {full:.2e} (|.| < 1e-6)",
    )


def test_criterion_5_variational_consistency(cases):
    rng = np.random.default_rng(SEED + 1)
    picked = 0
    worst_resid = 0.0
    ratios = []
    for L in cases:
        if picked >= 20:
            break
        b = l34_bounds(L.l12, L.l13, L.l14, L.l23, L.l24)
        if L.l34 + 2e-3 >= b.l2:
            continue
        picked += 1
        worst_resid = max(worst_resid, schlafli_residual(L, 1e-5))
        ratios.append(schlafli_residual(L, 1e-3) / schlafli_residual(L, 1e-4))
    scaling_ok = all(100 / 3 < r < 100 * 3 for r in ratios)
    report(
        "criterion 5 (variational identity, second-order step scaling)",
        picked == 20 and worst_resid < SCHLAFLI_LIMIT and scaling_ok,
        f"max residual {worst_resid:.3e} (< {SCHLAFLI_LIMIT:g}) on 20 cases, step-ratio "
        f"range [{min(ratios):.0f}, {max(ratios):.0f}] (~100 within 3x)",
    )


def test_criterion_6_euclidean_limit():
    gaps = []
    for s in (0.2, 0.1, 0.05):
        L = EdgeLengths(s, s, s, s, s, s)
        gaps.append(abs(volume_edges(L).value / euclidean_volume_cm(L) - 1.0))
    monotone = gaps[0] > gaps[1] > gaps[2]
    report(
        "criterion 6 (flat limit against the distance-determinant volume)",
        monotone and gaps[-1] < 0.01,
        f"relative gaps at s=0.2/0.1/0.05: {gaps[0]:.2e} > {gaps[1]:.2e} > "
        f"{gaps[2]:.2e}, final < 1%",
    )


def test_criterion_7_regular_route_and_ideal_limit():
    ideal = 3.0 * lobachevsky(math.pi / 3.0)
    gap_ideal = abs(volume_regular(10.0).value - ideal)
    gap_unit = abs(
        volume_regular(1.0).value
        - volume_edges(EdgeLengths(1, 1, 1, 1, 1, 1)).value
    )
    report(
        "criterion 7 (regular route: unit consistency and ideal limit)",
        gap_ideal < 1e-3 and gap_unit < 1e-8,
        f"|V_reg(10) - 3 L(pi/3)| = {gap_ideal:.2e} (< 1e-3), "
        f"|V_reg(1) - V_edges(1)| = {gap_unit:.2e} (< 1e-8)",
    )


def test_criterion_8_relabeling_invariance(cases):
    worst = 0.0
    for L in cases[:10]:
        reference = volume_edges(L).value
        for sigma in itertools.permutations(range(4)):
            worst = max(
                worst, abs(volume_edges(L.relabel(sigma)).value - reference)
            )
    report(
        "criterion 8 (vertex relabeling invariance)",
        worst < 1e-8,
        f"max deviation over 10 cases x 24 relabelings {worst:.3e} (< 1e-8)",
    )


def test_criterion_9_cli_determinism():
    argv = [
        "volume", "--validate", "--seed", "42", "--mc-samples", "200000",
        "--edges", "l12=1,l13=1,l14=1,l23=1,l24=1,l34=1",
    ]
    outputs = []
    for _ in range(2):
        out = io.StringIO()
        code = run(argv, stdout=out, stderr=io.StringIO())
        assert code == 0
        outputs.append(out.getvalue())
    report(
        "criterion 9 (CLI determinism)",
        outputs[0] == outputs[1] and len(outputs[0]) > 0,
        f"two runs byte-identical ({len(outputs[0])} bytes)",
    )
