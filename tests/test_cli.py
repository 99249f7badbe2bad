import importlib
import io
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import hytet
from cases import sample_lengths
from hytet.cli import run
from hytet.config import MC_SAMPLES_MAX, SWEEP_SAMPLES_MAX

ONES = "l12=1,l13=1,l14=1,l23=1,l24=1,l34=1"
# the package's public names, its submodules but cli, and the dunders of a package module
PUBLIC = [
    "CofactorSet", "DegenerateError", "DihedralAngles", "DomainError", "EDGE_KEYS",
    "EdgeLengths", "EdgeMatrix", "ExistenceError", "ExistenceReport", "HytetError",
    "InconsistentAnglesError", "JacobiResiduals", "L34Bounds", "MonteCarloConfig",
    "NotATetrahedronError", "NumericalError", "VertexEmbedding", "VolumeResult", "clausen",
    "cofactors", "dihedral_angles", "dihedral_angles_geometric", "edge_matrix_from_lengths",
    "embed_vertices", "euclidean_volume_cm", "exists", "expansion_residual", "gram_from_angles",
    "jacobi_residuals", "l34_bounds", "lobachevsky", "opposite_pair", "schlafli_residual",
    "volume_derivative", "volume_edges", "volume_monte_carlo", "volume_profile",
    "volume_regular", "volume_sforza",
]
SUBMODULES = ("angles", "config", "core", "errors", "existence", "oracle", "quadrature", "volume")
MODULE_DUNDERS = ("__all__", "__builtins__", "__cached__", "__doc__", "__file__", "__loader__",
                  "__name__", "__package__", "__path__", "__spec__", "__version__")


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def invoke_json(argv):
    code, out, err = invoke(argv)
    return code, json.loads(out) if out.strip() else None, err


class TestCheck:
    def test_all_ones_exists(self):
        code, doc, _ = invoke_json(["check", "--edges", ONES])
        assert code == 0
        assert doc["existence"]["exists"] is True
        assert doc["existence"]["bounds"]["l2"] == pytest.approx(1.6680504579626612)

    def test_triangle_violation_exits_2_and_names_condition(self):
        code, doc, _ = invoke_json(
            ["check", "--edges", "l12=3,l13=1,l14=1,l23=1,l24=1,l34=1"]
        )
        assert code == 2
        assert doc["existence"]["exists"] is False
        assert doc["existence"]["tri_123_ok"] is False
        assert any("tri_123" in name for name in doc["existence"]["failed"])

    def test_face_violation_at_the_boundary_tolerance_prints_the_report(self):
        code, doc, err = invoke_json(
            ["check", "--edges", "l12=1,l13=2.0000000000035,l14=1,l23=1,l24=2,l34=3"]
        )
        assert code == 2
        assert err == ""
        assert doc["command"] == "check"
        assert doc["existence"]["failed"] == ["tri_123_diff"]

    def test_out_of_range_l34(self):
        code, doc, _ = invoke_json(
            ["check", "--edges", "l12=1,l13=1,l14=1,l23=1,l24=1,l34=2"]
        )
        assert code == 2
        assert "l34_upper" in doc["existence"]["failed"]


class TestVolume:
    def test_degenerate_fold_is_zero_volume(self):
        code, doc, _ = invoke_json(
            ["volume", "--edges", "l12=1,l13=1,l14=1,l23=1,l24=1,l34=0"]
        )
        assert code == 0
        block = doc["volume"]["edge_integral"]
        assert block["value"] == 0.0
        assert block["diagnostics"]["degenerate"] is True

    def test_all_ones_value(self):
        code, doc, _ = invoke_json(["volume", "--edges", ONES])
        assert code == 0
        assert doc["volume"]["edge_integral"]["value"] == pytest.approx(
            0.0905979253777242, abs=1e-9
        )

    def test_validate_adds_cross_checks(self):
        code, doc, _ = invoke_json(
            ["volume", "--validate", "--mc-samples", "20000", "--edges", ONES]
        )
        assert code == 0
        assert "sforza" in doc["volume"] and "monte_carlo" in doc["volume"]
        assert doc["agreement"]["edge_vs_sforza"]["pass"] is True
        assert doc["agreement"]["monte_carlo_z"]["pass"] is True

    def test_validate_deterministic_output(self):
        argv = ["volume", "--validate", "--mc-samples", "50000",
                "--seed", "7", "--edges", ONES]
        _, first, _ = invoke(argv)
        _, second, _ = invoke(argv)
        assert first == second

    def test_nonexistent_exits_2(self):
        code, out, err = invoke(
            ["volume", "--edges", "l12=1,l13=1,l14=1,l23=1,l24=1,l34=2"]
        )
        assert code == 2
        assert "l34_upper" in err or "l34_upper" in out


class TestAcrossTheLengthScale:
    # regular volumes: TestVolumeRegular.PINNED's Schlafli integral in mpmath
    REFERENCE = [
        (1e-6, 1.1785113019772402253e-19),
        (1e-3, 1.1785109631556616646e-10),
        (0.01, 1.1784774205946507047e-7),
        (15.0, 1.0149331289988043513),
        (30.0, 1.0149416064046291827),
    ]

    @pytest.mark.parametrize("a, ref", REFERENCE)
    def test_check_and_volume_answer(self, a, ref):
        edges = ",".join(f"{k}={a!r}" for k in hytet.EDGE_KEYS)
        code, doc, _ = invoke_json(["check", "--edges", edges])
        assert code == 0 and doc["existence"]["exists"] is True
        code, doc, _ = invoke_json(["volume", "--edges", edges])
        assert code == 0
        assert doc["volume"]["edge_integral"]["value"] == pytest.approx(ref, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("a", [150.0, 400.0])
    def test_overflow_is_a_numerical_failure(self, a):
        # the integrand's coefficients overflow past edges of about 100, the
        # cofactors past 237, the fold bounds past 350: exit 70, never a
        # traceback or a NaN printed as an answer
        edges = ",".join(f"{k}={a!r}" for k in hytet.EDGE_KEYS)
        for command in ("check", "angles"):
            code, _, _ = invoke([command, "--edges", edges])
            assert code == (0 if a < 350 else 70), command
        for command in (["volume"], ["sweep"], ["validate", "--mc-samples", "2000"]):
            code, out, err = invoke([*command, "--edges", edges])
            assert code == 70 and "numerical failure" in err, command

    @pytest.mark.parametrize("a", [119.0, 150.0, 200.0, 236.0])
    def test_angles_answer_where_the_cofactor_product_overflows(self, a):
        # c_ii * c_jj overflows from a = 119, though each cofactor is finite
        # up to 236: the norm is then taken as sqrt(c_ii) * sqrt(c_jj)
        edges = ",".join(f"{k}={a!r}" for k in hytet.EDGE_KEYS)
        code, doc, err = invoke_json(["angles", "--edges", edges])
        assert (code, err) == (0, "")
        exact = math.acos(1.0 / (2.0 + 1.0 / math.cosh(a)))
        for value in doc["angles"]["radians"].values():
            assert value == pytest.approx(exact, rel=0.0, abs=2.3e-16)


class TestInput:
    def test_json_document(self, tmp_path):
        doc = {"edges": {k: "1.0" for k in
                         ("l12", "l13", "l14", "l23", "l24", "l34")}}
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        code, parsed, _ = invoke_json(["check", str(path)])
        assert code == 0
        assert parsed["existence"]["exists"] is True

    def test_output_reusable_as_input(self, tmp_path):
        code, out, _ = invoke(["volume", "--edges", ONES])
        assert code == 0
        path = tmp_path / "roundtrip.json"
        path.write_text(out)
        code2, out2, _ = invoke(["volume", str(path)])
        assert code2 == 0
        assert out2 == out

    def test_missing_edge_is_usage_error(self):
        code, _, err = invoke(["check", "--edges", "l12=1,l13=1"])
        assert code == 64
        assert "missing" in err

    def test_malformed_number_is_usage_error(self):
        code, _, err = invoke(
            ["check", "--edges", "l12=x,l13=1,l14=1,l23=1,l24=1,l34=1"]
        )
        assert code == 64

    def test_negative_length_is_usage_error(self):
        code, _, _ = invoke(
            ["check", "--edges", "l12=-1,l13=1,l14=1,l23=1,l24=1,l34=1"]
        )
        assert code == 64

    @pytest.mark.parametrize("raw", ["-1", "-0.5", "nan", "inf"])
    def test_negative_or_non_finite_edge_is_usage_error(self, raw):
        code, out, err = invoke(["check", "--edges", ONES.replace("l12=1", f"l12={raw}")])
        assert (code, out) == (64, "")
        assert err.startswith("hytet: input error: edge") and "l12" in err

    @pytest.mark.parametrize("form", ["inline", "document"])
    def test_repeated_edge_is_usage_error(self, tmp_path, form):
        # the first value used to be overwritten by the last, here l12 = 2,
        # which fails the triangle test with exit 2
        if form == "inline":
            argv = ["check", "--edges", "l12=1,l12=2," + ONES[len("l12=1,"):]]
        else:
            path = tmp_path / "input.json"
            path.write_text('{"edges": {"l12": 1, "l12": 2, "l13": 1, "l14": 1, '
                            '"l23": 1, "l24": 1, "l34": 1}}')
            argv = ["check", str(path)]
        assert invoke(argv) == (64, "", "hytet: input error: edge l12 given more than once\n")

    @pytest.mark.parametrize("text, key", [
        # the later value used to win silently: l34 = 9 answered, tol = -1 kept
        ('{"edges": {"l12": 1, "l13": 1, "l14": 1, "l23": 1, "l24": 1, "l34": 1}, '
         '"edges": {"l12": 1, "l13": 1, "l14": 1, "l23": 1, "l24": 1, "l34": 9}}', "edges"),
        ('{"edges": {"l12": 1, "l13": 1, "l14": 1, "l23": 1, "l24": 1, "l34": 1}, '
         '"config": {"tol": 1e-3, "tol": -1}}', "tol"),
    ], ids=["edges", "config-tol"])
    def test_repeated_key_anywhere_is_usage_error(self, tmp_path, text, key):
        path = tmp_path / "input.json"
        path.write_text(text)
        assert invoke(["check", str(path)]) == (
            64, "", f"hytet: input error: key {key!r} given more than once\n")

    def test_unknown_subcommand(self):
        code, _, _ = invoke(["frobnicate"])
        assert code == 64

    def test_environment_is_not_read(self, monkeypatch):
        # these variables repeated a flag, and left no trace
        # in the output
        plain = invoke(["validate", "--edges", ONES])
        assert plain[0] == 0
        for name, value in [("HYTET_SEED", "11"), ("HYTET_MC_SAMPLES", "1"), ("HYTET_TOL", "-1")]:
            monkeypatch.setenv(name, value)
            assert invoke(["validate", "--edges", ONES]) == plain, name

    def test_one_monte_carlo_sample_is_usage_error(self):
        # one sample has no standard error, so z would pass vacuously
        flag = ["--mc-samples", "1", "--edges", ONES]
        for command in (["validate"], ["volume", "--validate"]):
            assert invoke(command + flag) == (
                64, "", f"hytet: input error: samples must be an integer in [2, {MC_SAMPLES_MAX}],"
                " got 1\n")
        code, doc, _ = invoke_json(["validate", "--mc-samples", "2", "--edges", ONES])
        assert code != 64
        assert doc["volume"]["monte_carlo"]["error_estimate"] > 0

    @pytest.mark.parametrize("samples, echo", [
        (MC_SAMPLES_MAX + 1, str(MC_SAMPLES_MAX + 1)),
        # a long count is echoed as its first 20 digits and its length
        (10 ** 400, "1" + "0" * 19 + "... (401 characters)"),
    ], ids=["flag", "flag-1e400"])
    def test_too_many_monte_carlo_samples_is_usage_error(self, monkeypatch, samples, echo):
        drawn = []
        monkeypatch.setattr(hytet.cli, "volume_monte_carlo",
                            lambda *args: drawn.append(args))
        flag = ["--mc-samples", str(samples), "--edges", ONES]
        for command in (["validate"], ["volume", "--validate"]):
            code, out, err = invoke([*command, *flag])
            assert (code, out) == (64, "")
            assert err == (f"hytet: input error: samples must be an integer in "
                           f"[2, {MC_SAMPLES_MAX}], got {echo}\n")
        assert drawn == []

    def test_sample_cap_itself_is_accepted(self):
        # volume checks the count even without --validate, when it draws no
        # sample, so the cap is accepted at no cost
        assert invoke(["volume", "--mc-samples", str(MC_SAMPLES_MAX), "--edges", ONES])[0] == 0
        assert invoke(["volume", "--mc-samples", str(MC_SAMPLES_MAX + 1),
                       "--edges", ONES])[0] == 64

    @pytest.mark.parametrize("command", ["check", "angles", "volume", "sweep", "validate",
                                         "volume --validate"])
    @pytest.mark.parametrize("config", [{"tol": 1e-9, "mc_samples": 2000, "seed": 7}, {},
                                        {"mc_sample": 2}, 7, None],
                             ids=["settings", "empty", "misspelt", "number", "null"])
    @pytest.mark.parametrize("wrapped", [False, True], ids=["bare", "output-document"])
    def test_document_config_is_usage_error(self, tmp_path, monkeypatch, command, config,
                                            wrapped):
        # a config block used to repeat the settings flags; now it is
        # refused before any route runs, well-formed or not
        def no_route(*args):
            raise AssertionError("a route ran")

        monkeypatch.setattr(hytet.cli, "volume_edges", no_route)
        monkeypatch.setattr(hytet.cli, "volume_monte_carlo", no_route)
        doc = {"edges": {k: 1.0 for k in hytet.EDGE_KEYS}, "config": config}
        path = tmp_path / "input.json"
        path.write_text(json.dumps({"input": doc} if wrapped else doc))
        assert invoke([*command.split(), str(path)]) == (
            64, "", 'hytet: input error: the input document takes no "config": '
            "give --mc-samples or --seed instead\n")

    @pytest.mark.parametrize("raw", [True, 10 ** 400], ids=["true", "1e400"])
    def test_malformed_edge_value_is_usage_error(self, tmp_path, raw):
        doc = {"edges": {k: 1.0 for k in ("l12", "l13", "l14", "l23", "l24", "l34")}}
        doc["edges"]["l12"] = raw
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(["check", str(path)])
        assert (code, out) == (64, "")
        assert err == f"hytet: input error: edge l12 does not parse as a number: {raw!r}\n"

    @pytest.mark.parametrize("text", ["1_0", "１", "٣"],
                             ids=["underscore", "fullwidth", "arabic-indic"])
    @pytest.mark.parametrize("source", ["edges", "document", "flag", "environment"])
    def test_number_text_must_be_an_ascii_decimal(self, tmp_path, monkeypatch, source, text):
        # float and int read these as 10, 1 and 3
        doc = {"edges": {k: 1.0 for k in ("l12", "l13", "l14", "l23", "l24", "l34")}}
        argv = ["validate", str(tmp_path / "input.json")]
        message = f"edge l12 does not parse as a number: {text!r}"
        if source == "edges":
            argv = ["validate", "--edges", f"l12={text}" + ONES[len("l12=1"):]]
        elif source == "document":
            doc["edges"]["l12"] = text
        elif source == "flag":
            argv.append(f"--mc-samples={text}")
            message = f"bad or missing value for --mc-samples: {text!r}"
        else:  # no setting reads the environment, which so has no number text to refuse
            (tmp_path / "input.json").write_text(json.dumps(doc))
            plain = invoke(argv)
            monkeypatch.setenv("HYTET_MC_SAMPLES", text)
            assert plain[0] == 0 and invoke(argv) == plain
            return
        (tmp_path / "input.json").write_text(json.dumps(doc))
        assert invoke(argv) == (64, "", f"hytet: input error: {message}\n")

    @pytest.mark.parametrize("name, source, text, number", [
        (name, source, text, number)
        for name, source in [("mc_samples", "flag"), ("mc_samples", "environment"),
                             ("seed", "flag"), ("seed", "environment"), ("samples", "flag")]
        for text, number in [("20.0", 20), ("2e1", 20), ("18446744073709551615.0", 2 ** 64 - 1),
                             ("1.5", None), ("nan", None), ("inf", None)]
        if not (name == "samples" and number == 2 ** 64 - 1)  # a sweep that long never ends
    ])
    def test_whole_number_text_reads_as_its_json_number(
            self, tmp_path, monkeypatch, name, source, text, number):
        # one parser on every path; it reads text exactly, so the largest seed
        # stays 2**64 - 1, where a float would round it up to 2**64.  The
        # environment is no path: a variable of the setting's name changes nothing
        path = tmp_path / "input.json"
        flag = "--" + name.replace("_", "-")

        def request(value):
            doc = {"edges": {k: 1.0 for k in hytet.EDGE_KEYS}}
            argv = (["sweep", str(path)] if name == "samples" else
                    ["volume", "--validate", str(path)]
                    + ([] if name == "mc_samples" else ["--mc-samples", "20"]))
            if source == "flag":
                argv.append(f"{flag}={value}")
            elif value is not None:
                monkeypatch.setenv(f"HYTET_{name.upper()}", str(value))
            path.write_text(json.dumps(doc))
            return invoke(argv)

        if source == "environment":
            plain = request(None)
            assert plain[0] == 0 and request(text) == plain
            return
        if number is None:
            message = f"bad or missing value for {flag}: {text!r}"
            assert request(text) == (64, "", f"hytet: input error: {message}\n")
            return
        answer = request(text)
        assert answer == request(number)
        assert answer[0] == (64 if name == "mc_samples" and number > MC_SAMPLES_MAX else 0)

    @pytest.mark.parametrize("text, message", [
        (b"\xff\xfe{}", "cannot read input file"),
        (b"[" * 100_000 + b"]" * 100_000, "input is not valid JSON"),
        # beyond the int-to-str digit limit, which json.loads enforces
        (b'{"edges": {"l12": 1' + b"0" * 4400 + b"}}", "input is not valid JSON"),
    ], ids=["not-utf8", "deep-nesting", "digit-limit"])
    def test_unreadable_input_is_usage_error(self, tmp_path, text, message):
        path = tmp_path / "input.json"
        path.write_bytes(text)
        code, out, err = invoke(["check", str(path)])
        assert (code, out) == (64, "")
        assert err.startswith(f"hytet: input error: {message}")

    def test_seventeen_significant_digits(self):
        code, out, _ = invoke(["check", "--edges", ONES])
        # l2 = arccosh((4c^2 - c - 1)/(c + 1)) at c = cosh 1, full precision
        assert "1.6680504579626612" in out


class TestJsonLayout:
    def test_golden_bytes(self):
        # the exact bytes of the emitter: two-space indent, empty containers
        # inline, floats at 17 significant digits, non-finite floats as null
        # and "inf", strings and keys ASCII-escaped as json.dumps does
        doc = {
            "outer": {"list": [1, 2.5, [True, False, None], {}], "empty_list": [],
                      "empty": {}, "tuple": (0.1, -0.0)},
            "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "tenth": 0.1,
            "big": 1e300, "tiny": 5e-324, "int": -7,
            'q"b\\né∂': 'say "hi"\\ é€\n\t',
            "none": None, "yes": True,
        }
        assert hytet.cli._dump_json(doc) == r"""{
  "outer": {
    "list": [
      1,
      2.5,
      [
        true,
        false,
        null
      ],
      {}
    ],
    "empty_list": [],
    "empty": {},
    "tuple": [
      0.10000000000000001,
      -0
    ]
  },
  "nan": null,
  "inf": "inf",
  "-inf": "-inf",
  "tenth": 0.10000000000000001,
  "big": 1.0000000000000001e+300,
  "tiny": 4.9406564584124654e-324,
  "int": -7,
  "q\"b\\n\u00e9\u2202": "say \"hi\"\\ \u00e9\u20ac\n\t",
  "none": null,
  "yes": true
}"""


class TestJsonTemplates:
    """check, angles, volume and the exit-2 error document fill a JSON
    template per document shape; each prints the document its dict
    functions make, byte for byte, and every float reads back exactly."""

    CASES = {
        "valid": ONES,
        "scalene": "l12=2.965137128963416,l13=1.3027372332455953,l14=3.620365722713066,"
                   "l23=2.7711659744596884,l24=3.3277033833681555,l34=3.444634108222735",
        "l34_upper": "l12=1,l13=1,l14=1,l23=1,l24=1,l34=2",
        "l34_lower": "l12=1,l13=1,l14=2,l23=1,l24=1.5,l34=0.5",
        "tri_123_sum": "l12=3,l13=1,l14=2,l23=1,l24=2,l34=1",
        "tri_123_diff": "l12=1,l13=3,l14=1,l23=1,l24=1,l34=1",
        "tri_124_sum": "l12=3,l13=2,l14=1,l23=2,l24=1,l34=1",
        "tri_124_diff": "l12=1,l13=1,l14=3,l23=1,l24=1,l34=1",
        "both_faces": "l12=3,l13=1,l14=1,l23=1,l24=1,l34=1",
        "l12_positive": "l12=0,l13=1,l14=1,l23=1,l24=1,l34=1",
        "flat": "l12=1,l13=1,l14=1,l23=1,l24=1,l34=0",
        # at the upper fold bound: a cosine rounds past -1 and is clamped
        "clamped": "l12=1.9064149151801357,l13=2.251182268856115,l14=2.4060613401405204,"
                   "l23=2.833105822953446,l24=2.245705866745799,l34=1.7155072822365678",
    }

    @staticmethod
    def dict_document(command, edges):
        """The request's document as `_report_doc` and the block functions make it, or None."""
        cli = hytet.cli
        report = hytet.exists(hytet.EdgeLengths(*(float(p.split("=")[1])
                                                  for p in edges.split(","))))
        if command == "check":
            return cli._report_doc("check", report)
        if not report.exists:
            return cli._report_doc("error", report)
        if command == "volume":
            block = cli._volume_block(hytet.volume_edges(report), io.StringIO())
            return {**cli._report_doc("volume", report), "volume": {"edge_integral": block}}
        try:
            return {**cli._report_doc("angles", report), **cli._angles_block(report)}
        except hytet.NotATetrahedronError:
            return None  # a flat fold has no angles, and no report to print

    @pytest.mark.parametrize("command", ["check", "angles", "volume"])
    def test_every_shape_prints_its_dict_document(self, monkeypatch, command):
        monkeypatch.setattr(hytet.cli, "_TEMPLATES", {})
        shapes = set()
        # each case twice: its shape's template is compiled by the first
        # request of the shape, which may be an earlier case's, and filled after
        for case in [*self.CASES, *self.CASES]:
            edges = self.CASES[case]
            doc = self.dict_document(command, edges)
            code, out, _ = invoke([command, "--edges", edges])
            if doc is None:
                assert (case, command, code, out) == ("flat", "angles", 2, "")
                continue
            assert out == hytet.cli._dump_json(doc) + "\n", case
            assert json.loads(out) == doc, case  # every float exactly
            assert code == (0 if doc["existence"]["exists"] else 2)
            csv_code, csv, _ = invoke([command, "--format", "csv", "--edges", edges])
            assert (csv_code, csv) == (code, "key,value\n" + "".join(
                f"{key},{value}\n" for key, value in hytet.cli._flatten(doc))), case
            shapes.add(tuple(key for key, _ in hytet.cli._flatten(doc)))
        assert len(hytet.cli._TEMPLATES) == len(shapes)  # one template per key layout

    def test_clamped_case_clamps(self):
        _, doc, _ = invoke_json(["angles", "--edges", self.CASES["clamped"]])
        assert doc["angles"]["clamped"] is True


class TestSweep:
    def test_csv_shape_and_flat_endpoints(self):
        code, out, _ = invoke(["sweep", "--samples", "9", "--edges", ONES])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,dVdt,V"
        assert len(lines) == 10
        first = lines[1].split(",")
        last = lines[-1].split(",")
        assert abs(float(first[2])) < 1e-6
        assert abs(float(last[2])) < 1e-6
        assert first[1] == "inf" and last[1] == "-inf"
        # interior rows have finite increasing t and positive early slope
        t_vals = [float(row.split(",")[0]) for row in lines[1:]]
        assert all(u < v for u, v in zip(t_vals, t_vals[1:]))
        assert float(lines[2].split(",")[1]) > 0

    @pytest.mark.parametrize("edges", [
        (1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
        (2.965137128963416, 1.3027372332455953, 3.620365722713066,
         2.7711659744596884, 3.3277033833681555, 3.444634108222735),
    ], ids=["all_ones", "scalene"])
    def test_cumulative_volume_matches_direct(self, edges):
        inline = ",".join(f"{k}={v!r}" for k, v in
                          zip(("l12", "l13", "l14", "l23", "l24", "l34"), edges))
        code, out, _ = invoke(["sweep", "--samples", "9", "--edges", inline])
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        from hytet import EdgeLengths, volume_edges

        for t, _, v in rows[1:-1]:
            direct = volume_edges(EdgeLengths(*edges[:5], float(t))).value
            assert float(v) == pytest.approx(direct, abs=1e-8)

    def test_refuses_what_volume_refuses(self):
        # sweep runs the existence test of volume, so a non-tetrahedron
        # gets the same exit code, message and error document from both,
        # written in the request's format: CSV is sweep's default
        far = "l12=1,l13=1,l14=1,l23=1,l24=1,l34=2"
        code, out, err = invoke(["sweep", "--samples", "3", "--edges", far])
        v_code, v_out, v_err = invoke(["volume", "--format", "csv", "--edges", far])
        assert code == v_code == 2
        assert out == v_out and err == v_err
        assert "l34_upper" in err
        assert out.splitlines()[:2] == ["key,value", "command,error"]
        # and both answer at a = 0.01, where they used to exit 70 together
        short = "l12=0.01,l13=0.01,l14=0.01,l23=0.01,l24=0.01,l34=0.01"
        code, out, _ = invoke(["sweep", "--samples", "3", "--edges", short])
        v_code, _, _ = invoke(["volume", "--edges", short])
        assert code == v_code == 0
        assert len(out.strip().splitlines()) == 4

    def test_samples_past_the_cap_are_refused_before_any_row(self, monkeypatch):
        # volume_profile keeps every row, so a huge grid would run for hours
        monkeypatch.setattr(hytet.quadrature, "integrate",
                            lambda *args: pytest.fail("a quadrature ran"))
        code, out, err = invoke(["sweep", "--samples", str(SWEEP_SAMPLES_MAX + 1),
                                 "--edges", ONES])
        assert (code, out) == (64, "")
        assert err == (f"hytet: input error: a volume profile needs 2 to {SWEEP_SAMPLES_MAX} "
                       f"samples, got {SWEEP_SAMPLES_MAX + 1}\n")

    def test_one_sample_is_refused_before_the_existence_test(self):
        # these lengths bound no tetrahedron, which exited 2 before the grid was checked
        far = "l12=1,l13=1,l14=1,l23=1,l24=1,l34=2"
        assert invoke(["sweep", "--samples", "1", "--edges", far]) == (
            64, "", f"hytet: input error: a volume profile needs 2 to {SWEEP_SAMPLES_MAX} "
                    "samples, got 1\n")

    def test_json_format(self):
        code, doc, _ = invoke_json(
            ["sweep", "--samples", "5", "--format", "json", "--edges", ONES]
        )
        assert code == 0
        assert len(doc["rows"]) == 5
        assert doc["rows"][0]["dVdt"] == "inf"


class TestCsvFormat:
    def test_non_sweep_commands_print_key_value_rows(self):
        code, out, _ = invoke(["check", "--format", "csv", "--edges", ONES])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "key,value"
        for row in ("existence.exists,true", "existence.bounds.l1,0",
                    "existence.bounds.clamped_sqrt,false"):
            assert row in lines
        code, out, _ = invoke(["angles", "--format", "csv", "--edges", ONES])
        assert code == 0
        assert any(line.startswith("angles.radians.th12,") for line in out.splitlines())

    @pytest.mark.parametrize("command", ["check", "angles", "volume"])
    def test_refusal_prints_its_report_in_the_requested_format(self, command):
        far = "l12=1,l13=1,l14=1,l23=1,l24=1,l34=2"
        code, out, _ = invoke([command, "--format", "csv", "--edges", far])
        assert code == 2
        lines = out.splitlines()
        assert lines[0] == "key,value"
        assert "existence.failed.0,l34_upper" in lines


class TestAngles:
    def test_radians_and_degrees(self):
        code, doc, _ = invoke_json(["angles", "--edges", ONES])
        assert code == 0
        rad = doc["angles"]["radians"]["th12"]
        deg = doc["angles"]["degrees"]["th12"]
        assert rad == pytest.approx(1.1835546602180564, abs=1e-12)
        assert deg == pytest.approx(math.degrees(rad), abs=1e-9)
        assert doc["diagnostics"]["delta"] < 0
        assert all(c > 0 for c in doc["diagnostics"]["cofactor_diagonal"])

    def test_degenerate_fold_exits_2(self):
        code, _, err = invoke(
            ["angles", "--edges", "l12=1,l13=1,l14=1,l23=1,l24=1,l34=0"]
        )
        assert code == 2


class TestValidate:
    def test_all_ones_passes(self):
        code, doc, _ = invoke_json(
            ["validate", "--mc-samples", "50000", "--edges", ONES]
        )
        assert code == 0
        assert doc["pass"] is True
        assert all(block["pass"] for block in doc["checks"].values())
        assert "schlafli_residual" in doc["checks"]

    def test_nonexistent_exits_2(self):
        code, _, _ = invoke(
            ["validate", "--edges", "l12=3,l13=1,l14=1,l23=1,l24=1,l34=1"]
        )
        assert code == 2

    def test_short_regular_edges_pass(self):
        # the Schlafli step scales with l34: at a fixed 1e-5 its h^2 term
        # read 1.2e-8 against the 1e-8 limit on this correct volume
        edges = ",".join(f"{k}=0.001" for k in hytet.EDGE_KEYS)
        code, doc, err = invoke_json(["validate", "--edges", edges])
        assert (code, err) == (0, "")
        assert all(block["pass"] for block in doc["checks"].values())
        assert doc["checks"]["schlafli_residual"]["value"] < 1e-13


class TestQuadratureWarning:
    @pytest.mark.parametrize("command", [["volume"], ["volume", "--validate"], ["sweep"],
                                         ["validate"]])
    def test_unconverged_quadrature_warns_on_stderr(self, command, monkeypatch):
        from hytet import quadrature

        argv = [*command, *([] if command == ["sweep"] else ["--mc-samples", "2000"]),
                "--edges", ONES]
        code, out, err = invoke(argv)
        assert (code, err) == (0, "")
        integrate = quadrature.integrate
        monkeypatch.setattr(quadrature, "integrate",
                            lambda *args: integrate(*args)._replace(converged=False))
        code, capped, err = invoke(argv)
        assert code == 0
        assert err.startswith("hytet: warning:") and "panel cap" in err
        assert capped == out.replace('"converged": true', '"converged": false')


class TestArgv:
    """The argv contract: `--name value` or `--name=value` with the name in
    full, the last of a repeated option wins, `--` ends the options, and every
    other misuse is a usage error."""

    OWN = {
        "check": ["--edges", "--format", "--help"],
        "angles": ["--edges", "--format", "--help"],
        "volume": ["--edges", "--mc-samples", "--seed", "--format", "--validate", "--help"],
        "sweep": ["--edges", "--format", "--samples", "--help"],
        "validate": ["--edges", "--mc-samples", "--seed", "--format", "--help"],
    }

    @pytest.mark.parametrize("command", OWN)
    def test_each_command_takes_exactly_its_own_options(self, command):
        code, out, _ = invoke([command, "-h"])
        assert code == 0
        listed = [line.split()[0] for line in out.splitlines() if line.startswith("  --")]
        assert listed == self.OWN[command]
        # no command takes --tol: the quadrature tolerance is hytet.config's alone
        options = {"--tol", *(name for names in self.OWN.values() for name in names)}
        for option in options - set(listed):
            assert invoke([command, option, "2", "--edges", ONES]) == (
                64, "", f"hytet: input error: unrecognized option {option}\n"), option

    @pytest.mark.parametrize("command, option, value", [
        ("check", "--edges", ONES),
        ("validate", "--format", "csv"),
        ("validate", "--mc-samples", "3000"),
        ("validate", "--seed", "7"),
        ("angles", "--format", "csv"),
        ("sweep", "--samples", "5"),
    ])
    def test_both_option_forms_agree(self, command, option, value):
        rest = [] if option == "--edges" else ["--edges", ONES]
        if command == "validate" and option != "--mc-samples":
            rest += ["--mc-samples", "2000"]
        spaced = invoke([command, option, value, *rest])
        assert spaced[0] == 0
        assert invoke([command, f"{option}={value}", *rest]) == spaced
        if option != "--edges":  # the option took effect
            assert invoke([command, *rest]) != spaced

    def test_repeated_option_takes_the_last_value(self):
        code, doc, _ = invoke_json(["volume", "--validate", "--seed", "3", "--seed=7",
                                    "--mc-samples", "2000", "--format", "csv",
                                    "--format", "json", "--edges", "l12=3", "--edges", ONES])
        assert code == 0
        assert doc["volume"]["monte_carlo"]["diagnostics"]["seed"] == 7

    def test_an_abbreviated_option_is_refused(self):
        # a prefix used to name the option, so a per-command table would have
        # turned sweep --s from a refusal into --samples
        for argv, name in [
            (["validate", "--mc-s", "2000", "--edges", ONES], "--mc-s"),
            (["validate", "--mc-samples=2000", "--ed", ONES], "--ed"),
            (["sweep", "--s", "3", "--edges", ONES], "--s"),  # was ambiguous with --seed
            (["sweep", "--edges", ONES, "--he"], "--he"),
            (["--he"], "--he"),
        ]:
            assert invoke(argv) == (64, "", f"hytet: input error: unrecognized option {name}\n")

    def test_double_dash_ends_the_options(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "--doc.json").write_text(json.dumps({"edges": {k: 1 for k in hytet.EDGE_KEYS}}))
        assert invoke(["check", "--", "--doc.json"]) == invoke(["check", "--edges", ONES])

    @pytest.mark.parametrize("argv", [
        ["sweep", "--s", "3", "--edges", ONES],              # neither --samples nor --seed
        ["check", "--frobnicate", "--edges", ONES],
        ["check", "--edges"],
        ["volume", "--seed", "1.5", "--edges", ONES],
        ["volume", "--tol", "x", "--edges", ONES],
        ["check", "--format", "xml", "--edges", ONES],
        ["check", "--validate", "--edges", ONES],
        ["volume", "--samples", "3", "--edges", ONES],
        ["volume", "--validate=yes", "--edges", ONES],
        ["check", "a.json", "b.json"],
        [],
    ], ids=lambda argv: " ".join(argv).replace(ONES, "ONES") or "no-command")
    def test_misuse_is_a_usage_error(self, argv):
        code, out, err = invoke(argv)
        assert (code, out) == (64, "")
        assert err.startswith("hytet: input error: ")

    @pytest.mark.parametrize("argv", [
        ["-h"], ["--help"], ["check", "-h"], ["volume", "--help"],
        ["sweep", "--edges", ONES, "--help"],
    ], ids=" ".join)
    def test_help_prints_usage_and_returns_0(self, argv):
        code, out, err = invoke(argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: hytet")
        if argv[0] == "volume":
            assert "--validate" in out and "--samples" not in out
        elif len(argv) == 1:
            assert all(command in out for command in hytet.cli._COMMANDS)


class TestRunState:
    """Successive runs share no state: each request parses its own argv."""

    def test_validate_flag_does_not_carry_over(self):
        code, doc, _ = invoke_json(
            ["volume", "--validate", "--mc-samples", "2000", "--edges", ONES]
        )
        assert code == 0 and "agreement" in doc
        code, doc, _ = invoke_json(["volume", "--edges", ONES])
        assert code == 0
        assert "agreement" not in doc

    def test_sweep_samples_do_not_carry_over(self):
        code, out, _ = invoke(["sweep", "--samples", "5", "--edges", ONES])
        assert code == 0 and len(out.strip().splitlines()) == 6
        code, out, _ = invoke(["sweep", "--edges", ONES])
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + 33

    def test_usage_error_does_not_carry_over(self):
        code, _, _ = invoke(["check", "--edges", "l12=1,l13=1"])
        assert code == 64
        code, _, _ = invoke(["check", "--edges", ONES])
        assert code == 0


class TestOneExistenceTest:
    """A request runs the existence test once, however many routes use it."""

    @pytest.mark.parametrize("edges", [ONES, "l12=3,l13=1,l14=1,l23=1,l24=1,l34=1"],
                             ids=["valid", "invalid"])
    @pytest.mark.parametrize("command", [
        ["check"],
        ["angles"],
        ["volume"],
        ["volume", "--validate", "--mc-samples", "2000"],
        ["validate", "--mc-samples", "2000"],
        ["sweep", "--samples", "5"],
    ], ids=" ".join)
    def test_exists_runs_once(self, monkeypatch, command, edges):
        calls = []
        # counted where each caller looks the function up
        for module in (hytet.cli, hytet.volume):
            def counted(lengths, exists=module.exists):
                calls.append(lengths)
                return exists(lengths)
            monkeypatch.setattr(module, "exists", counted)
        code, _, _ = invoke([*command, "--edges", edges])
        assert code == (0 if edges == ONES else 2)
        assert len(calls) == 1

    def test_every_refusal_prints_the_library_message(self):
        invalid = "l12=3,l13=1,l14=1,l23=1,l24=1,l34=1"
        with pytest.raises(hytet.ExistenceError) as library:
            hytet.volume_edges(hytet.EdgeLengths(3, 1, 1, 1, 1, 1))
        for command in (["angles"], ["volume"], ["volume", "--validate"],
                        ["validate"], ["sweep"]):
            code, _, err = invoke([*command, "--edges", invalid])
            assert (code, err) == (2, f"hytet: not a tetrahedron: {library.value}\n")


class TestOneBattery:
    """`validate` and `volume --validate` run one battery: each shared route
    once, in one order, so both refuse an input alike."""

    ROUTES = ("exists", "volume_edges", "volume_sforza", "embed_vertices", "volume_monte_carlo")

    @pytest.mark.parametrize("command", [["validate"], ["volume", "--validate"]], ids=" ".join)
    def test_each_route_runs_once(self, monkeypatch, command):
        calls = []
        for name in self.ROUTES:  # counted where the CLI looks each one up
            def counted(*args, name=name, fn=getattr(hytet.cli, name)):
                calls.append(name)
                return fn(*args)
            monkeypatch.setattr(hytet.cli, name, counted)
        code, _, _ = invoke([*command, "--mc-samples", "2000", "--edges", ONES])
        assert code == 0
        assert sorted(calls) == sorted(self.ROUTES)

    def test_both_commands_report_the_first_failing_route(self):
        # at regular a = 30 Sforza's integrand and the embedding both fail;
        # Sforza comes first in the battery's order
        edges = ",".join(f"{k}=30" for k in hytet.EDGE_KEYS)
        validate = invoke(["validate", "--mc-samples", "2000", "--edges", edges])
        volume = invoke(["volume", "--validate", "--mc-samples", "2000", "--edges", edges])
        assert validate[0] == volume[0] == 64
        assert validate[2] == volume[2]
        assert "logarithm argument is not positive" in volume[2]

    ORACLES = ("volume_sforza", "embed_vertices", "volume_monte_carlo",
               "dihedral_angles_geometric")

    @pytest.mark.parametrize("a", [1e-3, 1e-2, 0.1, 1.0, 10.0, 15.0, 18.0, 19.0, 25.0, 30.0,
                                   50.0, 100.0])
    def test_valid_regular_tetrahedra_never_exit_2(self, a):
        # exists accepts every regular tetrahedron; an oracle that cannot
        # follow it there refuses the lengths as outside its domain
        self.assert_never_exit_2(",".join(f"{k}={a!r}" for k in hytet.EDGE_KEYS))


    @pytest.mark.parametrize("scale", [(12.0, 20.0), (20.0, 40.0), (40.0, 80.0)],
                             ids=["12-20", "20-40", "40-80"])
    def test_valid_generator_tetrahedra_never_exit_2(self, scale):
        # the generator rows of the regular test above: scalene tetrahedra
        # that exists accepts.  Exit 70 still stands on some of them (failed
        # checks, not refusals), so only 2 is ruled out
        rng = np.random.default_rng(20)
        for _ in range(10):
            lengths = sample_lengths(rng, *scale)
            self.assert_never_exit_2(",".join(f"{k}={v!r}" for k, v in lengths.as_dict().items()))

    def assert_never_exit_2(self, edges):
        code, _, err = invoke(["validate", "--mc-samples", "2000", "--edges", edges])
        assert code != 2, (edges, err)
        if code == 64:
            assert err.startswith("hytet: input error: the lengths lie outside the domain of "
                                  "the oracle "), (edges, err)
            assert any(f" oracle {name}: " in err for name in self.ORACLES), (edges, err)


class TestOneRecord:
    """A request builds E, its cofactors and the angles at most once, on its
    existence report; only `validate`'s Schläfli step builds them again, at
    the moved lengths."""

    NAMES = ("edge_matrix_from_lengths", "cofactors", "dihedral_angles")

    @pytest.mark.parametrize("command, builds", [
        (["check"], 0),
        (["volume"], 0),
        (["sweep", "--samples", "5"], 0),
        (["angles"], 1),
        (["volume", "--validate", "--mc-samples", "2000"], 1),
        (["validate", "--mc-samples", "2000"], 2),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
    def test_builds_per_request(self, monkeypatch, command, builds):
        calls = []
        # counted at every binding of each name under src/
        for module in (hytet.core, hytet.angles, hytet.cli, hytet.volume, hytet.existence):
            for name in self.NAMES:
                if hasattr(module, name):
                    def counted(*args, name=name, fn=getattr(module, name)):
                        calls.append(name)
                        return fn(*args)
                    monkeypatch.setattr(module, name, counted)
        code, _, _ = invoke([*command, "--edges", ONES])
        assert code == 0
        assert sorted(calls) == sorted(self.NAMES * builds)


class TestImportCost:
    @staticmethod
    def fresh_process(script: str) -> str:
        src = str(Path(hytet.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    def test_scalar_commands_do_not_load_numpy(self):
        # numpy serves only Monte Carlo: a fresh process that imports the
        # CLI and answers check, angles, volume and sweep never loads it
        out = self.fresh_process(f"""
            import io, sys
            from hytet.cli import run
            after_import = "numpy" in sys.modules
            codes = [run([command, "--edges", {ONES!r}], stdout=io.StringIO())
                     for command in ("check", "angles", "volume", "sweep")]
            print(after_import, codes, "numpy" in sys.modules)
        """)
        assert out == "False [0, 0, 0, 0] False"

    def test_cli_does_not_load_argparse(self):
        out = self.fresh_process(f"""
            import io, sys
            from hytet.cli import run
            after_import = "argparse" in sys.modules
            codes = [run([command, "--edges", {ONES!r}], stdout=io.StringIO())
                     for command in ("check", "angles", "volume")]
            print(after_import, codes, "argparse" in sys.modules)
        """)
        assert out == "False [0, 0, 0] False"

    def test_check_and_angles_load_only_what_they_run(self):
        # the existence test and the cosine rule need config, errors, core,
        # angles and existence alone
        out = self.fresh_process(f"""
            import io, sys
            from hytet.cli import run
            codes = [run([command, "--edges", {ONES!r}], stdout=io.StringIO())
                     for command in ("check", "angles")]
            print(codes, [name for name in ("hytet.volume", "hytet.oracle", "hytet.quadrature",
                                            "dataclasses", "decimal")
                          if name in sys.modules])
        """)
        assert out == "[0, 0] []"

    def test_import_hytet_loads_no_submodule(self):
        out = self.fresh_process("""
            import sys
            import hytet
            print(sorted(name for name in sys.modules if name.startswith("hytet.")))
        """)
        assert out == "[]"

    def test_every_public_name_and_submodule_resolves(self):
        # read on the package first, each submodule after those it imports,
        # so none is bound before it is read; then each is checked to be the
        # submodule, and each name the object of that name on its submodule
        order = ("config", "errors", "quadrature", "core", "angles", "existence", "volume",
                 "oracle")
        assert sorted(order) == list(SUBMODULES)
        out = self.fresh_process(f"""
            import importlib
            import hytet
            bound, read = [], {{}}
            for name in [*{order!r}, *hytet.__all__]:
                bound += [name] if name in vars(hytet) else []
                read[name] = getattr(hytet, name)
            modules = [importlib.import_module("hytet." + name) for name in {order!r}]
            print(bound, [name for name, module in zip({order!r}, modules)
                          if read[name] is not module],
                  [name for name in hytet.__all__
                   if not any(getattr(m, name, None) is read[name] for m in modules)])
        """)
        assert out == "[] [] []"

    def test_star_import_and_dir_list_the_public_names(self):
        out = self.fresh_process("""
            import hytet
            names = {}
            exec("from hytet import *", names)
            print(sorted(set(names) - {"__builtins__"}))
            print(dir(hytet))
        """)
        star, listed = out.splitlines()
        assert star == str(PUBLIC)
        assert listed == str(sorted([*PUBLIC, *SUBMODULES, *MODULE_DUNDERS]))

    def test_oracle_geometry_does_not_load_numpy(self):
        out = self.fresh_process("""
            import math, sys
            import hytet
            lengths = hytet.EdgeLengths(1, 1, 1, 1, 1, 1)
            emb = hytet.embed_vertices(hytet.edge_matrix_from_lengths(lengths))
            hytet.dihedral_angles_geometric(emb)
            hytet.euclidean_volume_cm(lengths)
            hytet.volume_regular(1.0)
            hytet.lobachevsky(math.pi / 3.0)
            print("numpy" in sys.modules)
        """)
        assert out == "False"

    def test_each_submodule_list_is_what_the_package_exports(self):
        # volume's __all__ listed clausen, which hytet.clausen did not resolve
        for name in SUBMODULES:
            module = importlib.import_module(f"hytet.{name}")
            listed = getattr(module, "__all__", None)
            if listed is not None:
                assert sorted(listed) == sorted(hytet._EXPORTS.get(name, ())), name
                assert all(getattr(hytet, key) is getattr(module, key) for key in listed), name


class TestMain:
    """The process entry point: its exit on a failed write, and its OpenBLAS default."""

    SRC = str(Path(hytet.__file__).resolve().parent.parent)

    def process(self, argv, stdout, **env):
        return subprocess.run([sys.executable, "-m", "hytet.cli", *argv], stdout=stdout,
                              stderr=subprocess.PIPE, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=self.SRC, **env))

    def assert_output_error(self, proc):
        # it printed a BrokenPipeError or OSError traceback and exited 1
        assert proc.returncode == 74
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("hytet: output error: "), proc.stderr

    def test_closed_pipe_exits_74(self):
        read_end, write_end = os.pipe()
        os.close(read_end)  # closed before the process starts: its first write fails
        try:
            proc = self.process(["check", "--edges", ONES], write_end)
        finally:
            os.close(write_end)
        self.assert_output_error(proc)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_device_exits_74(self):
        with open("/dev/full", "w") as full:
            proc = self.process(["check", "--edges", ONES], full)
        self.assert_output_error(proc)

    @pytest.mark.parametrize("preset", [None, "3"])
    def test_main_sets_openblas_threads_only_when_unset(self, monkeypatch, capsys, preset):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "unset by the test")  # restored after it
        if preset is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
        monkeypatch.setattr(sys, "argv", ["hytet", "check", "--edges", ONES])
        with pytest.raises(SystemExit) as info:
            hytet.cli.main()
        assert info.value.code == 0
        assert json.loads(capsys.readouterr().out)["existence"]["exists"] is True
        assert os.environ["OPENBLAS_NUM_THREADS"] == (preset or "1")

    def test_run_leaves_the_environment_unchanged(self):
        before = dict(os.environ)
        code, _, _ = invoke(["validate", "--mc-samples", "2000", "--edges", ONES])
        assert code == 0 and dict(os.environ) == before

    def test_openblas_threads_do_not_change_the_output(self):
        # 70,000 samples split their blocks on two CPUs
        outs = [self.process(["validate", "--mc-samples", "70000", "--edges", ONES],
                             subprocess.PIPE, OPENBLAS_NUM_THREADS=threads)
                for threads in ("1", "2")]
        assert [proc.returncode for proc in outs] == [0, 0]
        assert outs[0].stdout == outs[1].stdout


class TestScripts:
    ROOT = Path(__file__).resolve().parent.parent

    def test_regular_volume_table_imports_its_checkout(self, tmp_path):
        # run as README shows it, with no PYTHONPATH and from anywhere, it
        # exited 1 with "No module named 'hytet'"
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        script = self.ROOT / "scripts" / "regular_volume_table.py"
        proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("ideal ceiling 3 L(pi/3) = 1.0149416064\n")
