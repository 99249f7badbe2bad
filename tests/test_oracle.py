import math
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cases import sample_lengths
from hytet import (
    DegenerateError,
    DomainError,
    EdgeLengths,
    MonteCarloConfig,
    cofactors,
    dihedral_angles,
    dihedral_angles_geometric,
    edge_matrix_from_lengths,
    embed_vertices,
    euclidean_volume_cm,
    l34_bounds,
    lobachevsky,
    volume_edges,
    volume_monte_carlo,
)
from hytet import oracle
from hytet.config import MC_SAMPLES_MAX

MINK = np.diag([-1.0, 1.0, 1.0, 1.0])
MC_EDGES = {
    "all_ones": (1, 1, 1, 1, 1, 1),
    "scalene": (1.3, 1.1, 1.4, 1.2, 1.5, 1.25),
    "edges_near_5": (5.0, 4.9, 5.1, 4.95, 5.05, 5.0),
}


def mc_embedding(name):
    return embed_vertices(edge_matrix_from_lengths(EdgeLengths(*MC_EDGES[name])))


def with_cpus(monkeypatch, cpus, threading_module=threading):
    # the oracle sees `cpus` usable CPUs (and the given threading module)
    monkeypatch.setattr(oracle, "os", SimpleNamespace(sched_getaffinity=lambda pid: range(cpus)))
    monkeypatch.setattr(oracle, "threading", threading_module)


def normals_route_angles(emb):
    """Fourth, test-only angle route: project the far vertices onto the
    orthogonal complement of each edge plane and measure the angle there."""
    v = np.array(emb.vertices)
    out = {}
    for i in range(4):
        for j in range(i + 1, 4):
            others = [k for k in range(4) if k not in (i, j)]
            G2 = np.array([
                [v[i] @ MINK @ v[i], v[i] @ MINK @ v[j]],
                [v[j] @ MINK @ v[i], v[j] @ MINK @ v[j]],
            ])
            us = []
            for w in others:
                rhs = np.array([v[w] @ MINK @ v[i], v[w] @ MINK @ v[j]])
                ab = np.linalg.solve(G2, rhs)
                us.append(v[w] - ab[0] * v[i] - ab[1] * v[j])
            c = (us[0] @ MINK @ us[1]) / math.sqrt(
                (us[0] @ MINK @ us[0]) * (us[1] @ MINK @ us[1])
            )
            out[(i, j)] = math.acos(max(-1.0, min(1.0, c)))
    return out


class TestEmbedding:
    def test_regular_unit_inner_products(self):
        emb = embed_vertices(edge_matrix_from_lengths(EdgeLengths(1, 1, 1, 1, 1, 1)))
        target = -math.cosh(1.0)
        for i in range(4):
            for j in range(i + 1, 4):
                assert emb.vertices[i] @ MINK @ emb.vertices[j] == pytest.approx(
                    target, abs=1e-12
                )
        assert emb.gram_resid < 1e-12

    def test_vertices_are_four_row_tuples(self):
        emb = embed_vertices(edge_matrix_from_lengths(EdgeLengths(1, 1, 1, 1, 1, 1)))
        assert type(emb.vertices) is tuple and len(emb.vertices) == 4
        for row in emb.vertices:
            assert type(row) is tuple and len(row) == 4
            assert all(type(x) is float for x in row)

    def test_degenerate_fold_refused_with_rank(self):
        E = edge_matrix_from_lengths(EdgeLengths(1, 1, 1, 1, 1, 0))
        with pytest.raises(DegenerateError) as err:
            embed_vertices(E)
        assert str(err.value) == "flat configuration: embedding rank 3 of 4"

    def test_roundtrip_on_random_cases(self, rng):
        worst = 0.0
        for _ in range(100):
            L = sample_lengths(rng)
            emb = embed_vertices(edge_matrix_from_lengths(L))
            lm = L.length_matrix()
            for i in range(4):
                for j in range(i + 1, 4):
                    cosh = -(np.array(emb.vertices[i]) @ MINK @ np.array(emb.vertices[j]))
                    worst = max(worst, abs(math.acosh(max(1.0, cosh)) - lm[i][j]))
        assert worst < 1e-12

    def test_vertices_on_upper_sheet(self, rng):
        L = sample_lengths(rng)
        emb = embed_vertices(edge_matrix_from_lengths(L))
        for v in emb.vertices:
            assert v[0] > 0
            assert v @ MINK @ v == pytest.approx(-1.0, abs=1e-12)


class TestGeometricAngles:
    def test_regular_unit(self):
        emb = embed_vertices(edge_matrix_from_lengths(EdgeLengths(1, 1, 1, 1, 1, 1)))
        th = dihedral_angles_geometric(emb)
        expected = math.acos(math.cosh(1.0) / (2 * math.cosh(1.0) + 1.0))
        for value in th.as_tuple():
            assert value == pytest.approx(expected, abs=1e-12)

    def test_tiny_lengths_reach_euclidean_angle(self):
        a = 1e-4
        emb = embed_vertices(edge_matrix_from_lengths(EdgeLengths(a, a, a, a, a, a)))
        th = dihedral_angles_geometric(emb)
        for value in th.as_tuple():
            assert value == pytest.approx(math.acos(1.0 / 3.0), abs=1e-6)

    def test_near_fold_hinge_angle_approaches_pi(self):
        b = l34_bounds(1, 1, 1, 1, 1)
        L = EdgeLengths(1, 1, 1, 1, 1, b.l2 - 3e-4)
        emb = embed_vertices(edge_matrix_from_lengths(L))
        th = dihedral_angles_geometric(emb)
        assert math.pi - th.th12 < 0.05

    def test_agrees_with_cofactor_route_and_normals_route(self, random_cases):
        worst_cof = worst_norm = 0.0
        for L in random_cases:
            E = edge_matrix_from_lengths(L)
            emb = embed_vertices(E)
            th_geo = dihedral_angles_geometric(emb)
            th_cof = dihedral_angles(cofactors(E))
            by_normals = normals_route_angles(emb)
            for (i, j), angle in by_normals.items():
                geo = getattr(th_geo, f"th{i + 1}{j + 1}")
                worst_norm = max(worst_norm, abs(geo - angle))
            worst_cof = max(
                worst_cof,
                max(abs(a - b) for a, b in zip(th_geo.as_tuple(), th_cof.as_tuple())),
            )
        assert worst_cof < 1e-9
        assert worst_norm < 1e-9


class TestMonteCarlo:
    def test_repeat_runs_identical(self, all_ones):
        emb = embed_vertices(edge_matrix_from_lengths(all_ones))
        cfg = MonteCarloConfig(seed=123, samples=50_000)
        assert volume_monte_carlo(emb, cfg).value == volume_monte_carlo(emb, cfg).value

    def test_seed_changes_estimate(self, all_ones):
        emb = embed_vertices(edge_matrix_from_lengths(all_ones))
        a = volume_monte_carlo(emb, MonteCarloConfig(seed=1, samples=20_000))
        b = volume_monte_carlo(emb, MonteCarloConfig(seed=2, samples=20_000))
        assert a.value != b.value

    def test_agrees_with_edge_route(self, all_ones):
        emb = embed_vertices(edge_matrix_from_lengths(all_ones))
        mc = volume_monte_carlo(emb, MonteCarloConfig(seed=7, samples=1_000_000))
        ve = volume_edges(all_ones).value
        assert abs(mc.value - ve) < 3 * mc.error_estimate

    def test_small_lengths_match_euclidean_oracle(self):
        s = 0.05
        L = EdgeLengths(s, s, s, s, s, s)
        emb = embed_vertices(edge_matrix_from_lengths(L))
        mc = volume_monte_carlo(emb, MonteCarloConfig(seed=3, samples=100_000))
        ve = volume_edges(L).value
        v_cm = euclidean_volume_cm(L)
        # unbiased against the true hyperbolic volume at any sample count,
        # and within the curvature gap of the flat-space value
        assert abs(mc.value - ve) < 3 * mc.error_estimate
        assert abs(mc.value - v_cm) / v_cm < 2e-3

    def test_zero_samples_rejected(self):
        # one sample has no spread: its standard error of 0 would make any
        # agreement check pass vacuously
        for samples in (0, 1):
            with pytest.raises(DomainError):
                MonteCarloConfig(seed=1, samples=samples)

    @pytest.mark.parametrize("samples", [2.5, 4096.0, "100", np.float64(4096.0), True])
    def test_samples_that_are_not_integers_rejected(self, samples):
        # a float count would crash the block loop; a string, the comparison
        with pytest.raises(DomainError):
            MonteCarloConfig(seed=1, samples=samples)

    def test_numpy_integer_samples_accepted(self, all_ones):
        emb = embed_vertices(edge_matrix_from_lengths(all_ones))
        cfg = MonteCarloConfig(seed=1, samples=np.int64(4097))
        assert cfg.samples == 4097
        mc = volume_monte_carlo(emb, cfg)
        assert type(mc.value) is float and mc.evaluations == 4097
        assert mc == volume_monte_carlo(emb, MonteCarloConfig(seed=1, samples=4097))

    def test_samples_above_the_cap_rejected(self):
        MonteCarloConfig(seed=1, samples=MC_SAMPLES_MAX)
        for samples in (MC_SAMPLES_MAX + 1, 10 ** 400):
            with pytest.raises(DomainError):
                MonteCarloConfig(seed=1, samples=samples)

    @pytest.mark.parametrize(
        "edges, value, error_estimate",
        [
            ((1, 1, 1, 1, 1, 1), 0.09055972829747465, 6.945748141651445e-05),
            ((1.3, 1.1, 1.4, 1.2, 1.5, 1.25),
             0.1593031231328267, 0.00018712313142583726),
            # vertices at x0 ~ 70-80, where 1 - |x|^2 formed from |x|^2
            # loses about four digits per sample
            ((5.0, 4.9, 5.1, 4.95, 5.05, 5.0),
             0.9400250234625349, 0.021446260826532348),
        ],
        ids=["all_ones", "scalene", "edges_near_5"],
    )
    def test_estimate_matches_parent(self, edges, value, error_estimate):
        # values of the barycentric-point estimator this one replaced
        emb = embed_vertices(edge_matrix_from_lengths(EdgeLengths(*edges)))
        mc = volume_monte_carlo(emb, MonteCarloConfig(seed=42, samples=200_000))
        assert mc.value == pytest.approx(value, rel=1e-12, abs=0)
        assert mc.error_estimate == pytest.approx(error_estimate, rel=1e-12, abs=0)

    def test_sequential_draws_match_counter_jumps(self):
        # sample i consumes Philox block i whether the batch generator is
        # drawn in order or started at counter [i, 0, 0, 0]
        gen = np.random.Generator(np.random.Philox(key=42))
        for start, count in ((0, 4096), (4096, 4096), (8192, 7), (8199, 4096)):
            jumped = np.random.Generator(
                np.random.Philox(key=42, counter=[start, 0, 0, 0])
            )
            assert np.array_equal(gen.random((count, 4)), jumped.random((count, 4)))

    @pytest.mark.parametrize("name", MC_EDGES)
    @pytest.mark.parametrize("samples", [2, 4095, 4096, 4097, 8 * 4096 + 1, 200_000, 1_000_003])
    def test_split_into_runs_is_bit_identical(self, monkeypatch, name, samples):
        # one run of blocks per CPU, down to one block per run: the same
        # bits as a single run for every run count
        monkeypatch.setattr(oracle, "_MIN_RUN_BLOCKS", 1)
        emb = mc_embedding(name)
        for seed in (0, 42, 2 ** 64 - 1):
            cfg = MonteCarloConfig(seed=seed, samples=samples)
            results = []
            for cpus in (1, 2, 3):
                with_cpus(monkeypatch, cpus)
                mc = volume_monte_carlo(emb, cfg)
                results.append((mc.value.hex(), mc.error_estimate.hex()))
            assert results[1] == results[0] and results[2] == results[0]

    @pytest.mark.parametrize("samples, cpus, runs", [
        (10_000, 3, 1), (8 * 4096, 3, 1), (8 * 4096 + 1, 3, 1), (15 * 4096, 2, 1),
        (15 * 4096 + 1, 2, 2), (16 * 4096 + 1, 3, 2), (24 * 4096 + 1, 3, 3), (200_000, 3, 3),
        (1_000_003, 3, 3)])
    def test_each_run_gets_at_least_eight_blocks(self, monkeypatch, samples, cpus, runs):
        spans = []
        block_stats = oracle._block_stats

        def spy(seed, m, n, first, stop):
            spans.append((first, stop))
            return block_stats(seed, m, n, first, stop)

        monkeypatch.setattr(oracle, "_block_stats", spy)
        with_cpus(monkeypatch, cpus)
        volume_monte_carlo(mc_embedding("scalene"), MonteCarloConfig(seed=1, samples=samples))
        # contiguous runs, block 0 included, that cover every block once
        spans.sort()
        assert len(spans) == runs
        blocks = [b for first, stop in spans for b in range(first, stop)]
        assert blocks == list(range(-(-samples // 4096)))
        if runs > 1:
            assert min(stop - first for first, stop in spans) >= 8

    def test_small_call_starts_no_thread(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a 10,000-sample call started a thread")

        # however many CPUs: 10,000 samples is three blocks, below one run's floor
        with_cpus(monkeypatch, 64, SimpleNamespace(Thread=no_thread))
        mc = volume_monte_carlo(mc_embedding("scalene"), MonteCarloConfig(seed=1, samples=10_000))
        assert mc.evaluations == 10_000

    def test_no_thread_outlives_the_call(self, monkeypatch):
        started = []

        class Recorded(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        with_cpus(monkeypatch, 2, SimpleNamespace(Thread=Recorded))
        before = threading.enumerate()
        volume_monte_carlo(mc_embedding("scalene"), MonteCarloConfig(seed=1, samples=200_000))
        assert len(started) == 1
        assert threading.enumerate() == before

    @pytest.mark.parametrize("failing_run", ["worker", "caller"])
    def test_a_failing_run_raises_in_the_caller(self, monkeypatch, failing_run):
        class Boom(RuntimeError):
            pass

        block_stats = oracle._block_stats
        fail_on = {"caller": 0, "worker": 24}[failing_run]  # 200,000 samples: runs from 0 and 24

        def failing(seed, m, n, first, stop):
            if first == fail_on:
                raise Boom(threading.current_thread().name)
            return block_stats(seed, m, n, first, stop)

        monkeypatch.setattr(oracle, "_block_stats", failing)
        with_cpus(monkeypatch, 2)
        before = threading.enumerate()
        with pytest.raises(Boom) as info:
            volume_monte_carlo(mc_embedding("scalene"), MonteCarloConfig(seed=1, samples=200_000))
        on_main = str(info.value) == threading.current_thread().name
        assert on_main == (failing_run == "caller")
        assert threading.enumerate() == before

    @pytest.mark.parametrize("a", [1e-4, 3e-5])
    def test_error_estimate_matches_two_pass_variance(self, a):
        # on short edges the density varies by parts in 1e9, where a
        # one-pass mean(d^2) - mean(d)^2 cancels to rounding noise
        n = 200_000
        emb = embed_vertices(edge_matrix_from_lengths(EdgeLengths(*[a] * 6)))
        mc = volume_monte_carlo(emb, MonteCarloConfig(seed=1, samples=n))
        v = np.array(emb.vertices)
        m = -(v @ MINK @ v.T) / np.outer(v[:, 0], v[:, 0])
        # the whole stream in one array, without the 4096-sample blocks
        w = np.log1p(-np.random.Generator(np.random.Philox(key=1)).random((n, 4)))
        t = w.sum(axis=1) ** 2 / np.einsum("ni,ij,nj->n", w, m, w)
        density = t * t
        vol_eucl = mc.diagnostics["euclidean_volume"]
        assert mc.value == pytest.approx(vol_eucl * np.mean(density), rel=1e-12, abs=0)
        expected = vol_eucl * math.sqrt(np.var(density) / n)
        assert mc.error_estimate == pytest.approx(expected, rel=1e-6, abs=0)

    @pytest.mark.parametrize("a", [1e-4, 1e-3, 1.0])
    @pytest.mark.parametrize("n", [4097, 200_000])
    def test_error_estimate_is_the_variance_of_its_own_densities(self, a, n):
        # the blocks' densities bit for bit, and their variance summed
        # exactly: a block mean rounded to its last bit moves a short-edge
        # estimate by up to 1e-10 unless its deviation sum corrects it
        emb = embed_vertices(edge_matrix_from_lengths(EdgeLengths(*[a] * 6)))
        mc = volume_monte_carlo(emb, MonteCarloConfig(seed=42, samples=n))
        v = np.array(emb.vertices)
        m = -(v @ MINK @ v.T) / np.outer(v[:, 0], v[:, 0])
        gen = np.random.Generator(np.random.Philox(key=42))
        blocks = []
        for start in range(0, n, 4096):
            w = np.log1p(-gen.random((min(4096, n - start), 4)))
            s, q = w @ np.ones(4), ((w @ m) * w) @ np.ones(4)
            blocks.append(np.square(np.square(s) / q))
        density = np.concatenate(blocks)
        totals = np.asarray([block.sum() for block in blocks])
        assert mc.value == mc.diagnostics["euclidean_volume"] * (float(np.sum(totals)) / n)
        mean = math.fsum(density) / n
        expected = mc.diagnostics["euclidean_volume"] * math.sqrt(
            math.fsum((density - mean) ** 2) / n / n)
        assert mc.error_estimate == pytest.approx(expected, rel=1e-15, abs=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, 2 ** 64, np.float64(2.0)])
    def test_seed_outside_the_command_line_range_rejected(self, seed):
        # the command line's range; Philox itself would raise ValueError on
        # -1 and run 2**64 as a key, 1.5 and True as seed 1, 2.0 as seed 2
        with pytest.raises(DomainError):
            MonteCarloConfig(seed=seed, samples=2)

    @pytest.mark.parametrize("seed", [0, 2 ** 64 - 1, np.int64(7), np.uint64(7)])
    def test_integer_seed_in_range_accepted(self, seed):
        assert MonteCarloConfig(seed=seed, samples=2).seed == seed


class TestEuclideanVolume:
    def test_unit_right_corner(self):
        s = math.sqrt(2.0)
        L = EdgeLengths(1, 1, 1, s, s, s)
        assert euclidean_volume_cm(L) == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_regular(self):
        L = EdgeLengths(1, 1, 1, 1, 1, 1)
        assert euclidean_volume_cm(L) == pytest.approx(0.11785113019775793, rel=1e-12)

    def test_flat_configuration_is_zero(self):
        # two unit equilateral triangles opened flat: l34 = sqrt(3)
        L = EdgeLengths(1, 1, 1, 1, 1, math.sqrt(3.0))
        assert euclidean_volume_cm(L) == pytest.approx(0.0, abs=1e-7)

    def test_unrealizable_rejected(self):
        with pytest.raises(DomainError):
            euclidean_volume_cm(EdgeLengths(1, 1, 1, 1, 1, 2.5))


class TestLobachevsky:
    def test_zero_and_pi(self):
        assert lobachevsky(0.0) == 0.0
        assert lobachevsky(math.pi) == pytest.approx(0.0, abs=1e-14)
        assert lobachevsky(math.pi / 2) == pytest.approx(0.0, abs=1e-13)

    def test_triplication_value(self):
        assert lobachevsky(math.pi / 6) == pytest.approx(
            1.5 * lobachevsky(math.pi / 3), rel=1e-12
        )

    def test_reference_value(self):
        assert 3 * lobachevsky(math.pi / 3) == pytest.approx(
            1.0149416064096535, abs=1e-12
        )

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
    def test_odd_and_periodic(self, x):
        assert lobachevsky(-x) == pytest.approx(-lobachevsky(x), abs=1e-11)
        assert lobachevsky(x + math.pi) == pytest.approx(lobachevsky(x), abs=1e-11)

    def test_maximum_at_pi_over_six(self):
        peak = lobachevsky(math.pi / 6)
        assert peak > lobachevsky(math.pi / 6 - 0.05)
        assert peak > lobachevsky(math.pi / 6 + 0.05)

    @pytest.mark.parametrize(
        "x, value",
        [
            # mpmath.mp.dps = 30; float(mpmath.clsin(2, 2 * mpmath.mpf(x)) / 2)
            (1e-9, 2.1030118656386466e-08),
            (1e-3, 0.007214608153977749),
            (0.15, 0.3307835051101005),
            (0.2, 0.3837029470213387),
            (math.pi / 6, 0.5074708032048268),
            (math.pi / 3, 0.33831386880321795),
            (1.0, 0.3635730254316396),
            (math.pi / 2 - 1e-6, 6.931471805451988e-07),
            (2.5, -0.49641006627347833),
            (3.0, -0.32039133285086163),
            (-7.0, -0.4792887365400746),
            (9.5, 0.21772855453134085),
        ],
    )
    def test_matches_mpmath_clausen(self, x, value):
        assert lobachevsky(x) == pytest.approx(value, rel=0, abs=1e-14)
