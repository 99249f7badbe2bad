"""Tests of the benchmark itself: inputs, references, checker, spans.

Run with: python3 -m pytest hytetbench/tests -q
"""

import io
import json
import random
from array import array
from collections import Counter

import pytest

import gen
import reference as ref
import run
import tracing
import workloads

import hytet
import hytet.cli as cli


def _mid_tetra(seed=11):
    rng = random.Random(seed)
    while True:
        tetra = gen.draw_tetra(rng, rng.random(), False, *workloads.IN_DOMAIN_SCALE)
        if workloads._regime(tetra.edges, ref.EdgeIntegral(tetra.edges)) == "mid":
            return tetra


def _answer(req):
    code, out, _ = workloads.execute(req, hytet, cli)
    assert code == 0
    return out


def test_generator_is_deterministic_per_seed():
    first = gen.draw_tetras(random.Random(7), 12)
    assert first == gen.draw_tetras(random.Random(7), 12)
    assert first != gen.draw_tetras(random.Random(8), 12)
    argv = [r.argv for r in workloads.build_solve(random.Random("s"))]
    assert argv == [r.argv for r in workloads.build_solve(random.Random("s"))]


def test_valid_draws_are_valid_by_the_mpmath_reference():
    tetras = gen.draw_tetras(random.Random(3), 40)
    assert sum(t.flat for t in tetras) == round(40 * gen.FLAT_SHARE)
    for t in tetras:
        assert gen.is_solid(t.edges)
        integral = ref.EdgeIntegral(t.edges)
        assert integral.l1 < t.edges[5] < integral.l2
        for i, j, k in ((0, 1, 3), (0, 2, 4), (1, 2, 5), (3, 4, 5)):
            a, b, c = t.edges[i], t.edges[j], t.edges[k]
            assert a < b + c and b < a + c and c < a + b


def test_invalid_draws_break_a_face():
    rng = random.Random(5)
    for t in gen.draw_tetras(rng, 10):
        over = gen.break_l34(rng, t.edges)
        assert over[5] > over[1] + over[2] and not gen.is_solid(over)
        broken = gen.break_face(rng, t.edges)
        assert broken[3] > broken[0] + broken[1] and not gen.is_solid(broken)


@pytest.mark.parametrize("kind", gen.MALFORMED_KINDS)
def test_malformed_edges_exit_64(kind):
    arg = gen.malformed_arg(random.Random(kind), _mid_tetra().edges, kind)
    assert cli.run(["check", "--edges", arg], stdout=io.StringIO(),
                   stderr=io.StringIO()) == 64


def test_reference_volume_and_angles_against_known_values():
    # the all-ones value pinned in tests/test_cli.py
    assert ref.volume((1.0,) * 6) == pytest.approx(0.0905979253777242, rel=1e-13)
    tetra = _mid_tetra()
    e = hytet.edge_matrix_from_lengths(hytet.EdgeLengths(*tetra.edges))
    geometric = hytet.dihedral_angles_geometric(hytet.embed_vertices(e)).as_tuple()
    assert ref.angles_from_points(tetra.points) == pytest.approx(geometric, abs=1e-9)


def test_reference_derivative_obeys_schlafli():
    tetra = _mid_tetra()
    integral = ref.EdgeIntegral(tetra.edges)
    t, h = tetra.edges[5], 1e-5

    def angles(l34):
        lengths = hytet.EdgeLengths(*tetra.edges[:5], l34)
        return hytet.dihedral_angles(hytet.cofactors(hytet.edge_matrix_from_lengths(lengths)))

    up, down = angles(t + h).as_tuple(), angles(t - h).as_tuple()
    schlafli = -0.5 * sum(l * (a - b) / (2 * h) for l, a, b in zip(tetra.edges, up, down))
    slope = (integral.volume(t + h) - integral.volume(t - h)) / (2 * h)
    assert float(integral.derivative(t)) == pytest.approx(schlafli, rel=1e-6)
    assert float(integral.derivative(t)) == pytest.approx(slope, rel=1e-6)


def test_checker_rejects_a_perturbed_angle_and_volume():
    tetra = _mid_tetra()
    angles_req = workloads._valid_request("angles", ["angles"], tetra, ("angles",))
    volume_req = workloads._valid_request("volume", ["volume"], tetra, ("volume",))
    doc = json.loads(_answer(angles_req))
    assert workloads.check(angles_req, 0, json.dumps(doc)) is None
    doc["angles"]["radians"]["th13"] += 1e-6
    assert workloads.check(angles_req, 0, json.dumps(doc)) == "angles"
    doc = json.loads(_answer(volume_req))
    assert workloads.check(volume_req, 0, json.dumps(doc)) is None
    doc["volume"]["edge_integral"]["value"] *= 1.0 + 1e-6
    assert workloads.check(volume_req, 0, json.dumps(doc)) == "volume"
    assert workloads.check(volume_req, 70, "", "hytet: numerical failure: bound 1.5 (x)\n") \
        == "exit 70 (want 0): numerical failure: bound"


def test_checker_tells_a_sweep_offset_from_a_wrong_row():
    req = workloads._valid_request("sweep", ["sweep"], _mid_tetra(), ("integral",))
    lines = _answer(req).strip().splitlines()
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    integral = req.ref["integral"]
    exact = []
    for k, (t, dvdt, _) in enumerate(rows):
        v = integral.volume(t) if k in workloads.SWEEP_CHECKED_ROWS else 0.0
        exact.append((t, dvdt, v))

    def render(rows):
        return "\n".join(["t,dVdt,V"] + [",".join(repr(v) for v in r) for r in rows])

    assert workloads.check(req, 0, render(exact)) is None
    shifted = [(t, d, v + 1e-6 if k else v) for k, (t, d, v) in enumerate(exact)]
    assert workloads.check(req, 0, render(shifted)) == workloads.SWEEP_OFFSET
    one_row = [(t, d, v + 1e-6 if k == 16 else v) for k, (t, d, v) in enumerate(exact)]
    assert workloads.check(req, 0, render(one_row)) == "sweep volume"


def _span(tr, name, parent, start, end):
    tr.name.append(tr.name_id(name))
    tr.parent.append(parent)
    tr.request.append(0)
    tr.start.append(start)
    tr.end.append(end)
    tr.work.append(0.0)
    return len(tr.start) - 1


def test_self_time_on_a_synthetic_span_tree():
    tr = tracing.Tracer()
    root = _span(tr, "cli", -1, 0.0, 10.0)
    edges = _span(tr, "volume.edges", root, 1.0, 6.0)
    quad = _span(tr, tracing.QUADRATURE, edges, 2.0, 5.0)
    _span(tr, tracing.INTEGRAND, quad, 2.5, 3.0)
    _span(tr, tracing.INTEGRAND, quad, 3.5, 4.5)
    _span(tr, "existence.exists", root, 7.0, 9.0)
    st = tracing.SpanStats(tr)
    assert list(st.self_time) == pytest.approx([3.0, 2.0, 1.5, 0.5, 1.0, 2.0])
    integrand = st.spans(tracing.INTEGRAND)
    assert list(st.owners(integrand, "volume.edges")) == [edges, edges]
    assert list(st.owners(integrand, "volume.sforza")) == [-1, -1]
    assert list(st.count_under(integrand, st.spans("volume.edges"), "volume.edges")) == [2]


def test_traced_request_counts_match_the_program_and_wrappers_come_off():
    original = cli.exists
    argv = ["volume", "--edges", gen.edges_arg(_mid_tetra().edges)]
    tr = tracing.Tracer()
    restore = tr.install()
    try:
        out = io.StringIO()
        assert cli.run(argv, stdout=out, stderr=io.StringIO()) == 0
    finally:
        restore()
    assert cli.exists is original
    metrics, probed = tracing.layer_metrics(tr, 1, Counter())
    reported = json.loads(out.getvalue())["volume"]["edge_integral"]["evaluations"]
    assert metrics["volume.edges.evals_mean"] == reported
    assert metrics["quadrature.calls_per_request"] == 1
    assert "oracle.monte_carlo" in probed


def test_loop_rests_on_each_request_fastest_repetition():
    loop = run.Loop(2)
    loop.by_request = [array("d", [3.0, 1.0, 2.0]), array("d", [5.0, 4.0])]
    rps, _, _, n = loop.steady()
    assert loop.repeats == 2
    assert n == 2 and rps == pytest.approx(2 / (1.0 + 4.0))


def test_tally_counts_each_pool_request_once():
    tetra = _mid_tetra()
    good = workloads._valid_request("volume", ["volume"], tetra, ("volume",))
    wrong = workloads._valid_request("volume", ["volume"], tetra, ("volume",))
    wrong.ref["volume"] *= 2.0
    pool = [good, wrong]
    out = _answer(good)
    first, second = run.Loop(2), run.Loop(2)
    first.outcomes[(0, 0, out, "")] += 5
    first.outcomes[(1, 0, out, "")] += 5
    second.outcomes[(1, 0, out, "")] += 3
    second.outcomes[(1, 70, "", "hytet: numerical failure: bound 1.5\n")] += 1
    failures = run.tally(pool, [first, second])
    assert sum(failures.values()) == 1
    (kind, inp, _, reason, _), = failures
    assert (kind, inp) == ("volume", "valid")
    assert reason.endswith("(not on every repetition)")


def test_probe_skips_an_input_a_probed_layer_rejects():
    # valid and mid-regime, but volume_sforza's scan misses its flat root
    # (known-defect class 4 of NOTES.md)
    edges = (8.372096252066987, 2.9625028317388153, 9.134369487928902,
             7.005747590390229, 7.88916998577378, 7.7343787359515455)
    rejected = workloads.Request("check", ("check", "--edges", gen.edges_arg(edges)),
                                 "valid", "mid", edges)
    good = workloads._valid_request("check", ["check"], _mid_tetra(), ())
    assert run.probe_request([rejected, good], hytet, cli) is good
