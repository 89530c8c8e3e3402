import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from galpha import family, schwarz
from galpha.cli import build_parser, main
from galpha.complexfn import ConvergenceError, DiskGrid
from galpha.family import AtomicMeasure, GAlphaFunction, single_atom
from galpha.harmonic import DilatationSpec, HarmonicMap
from galpha.schwarz import norms
from galpha.specfile import (FunctionSpec, SpecFileError, load_function_spec,
                             save_function_spec, spec_from_dict, spec_to_dict)
from galpha.verify import VerifyReport, norm_checks, run_verification

from test_complexfn import grid_double, norms_on


def write_spec(tmp_path, data, name="fn.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path

EXTREMAL = {"alpha": 1.0, "atoms": [{"theta": 0.0, "weight": 1.0}]}
HALF_ZERO = {"alpha": 0.5, "blaschke": {"zeros": [{"re": 0.5, "im": 0.0}],
                                        "prefactor_angle": 0.0}}
# one atom at alpha = 1; on the default grid its searched norms are its limits
ONE_ATOM = {"alpha": 1.0, "atoms": [{"theta": 0.03681553890925539, "weight": 1.0}]}
CONSTANT_SHEAR = {"alpha": 0.25, "atoms": [{"theta": 0.0, "weight": 1.0}],
                  "dilatation": {"kind": "constant",
                                 "params": {"value": {"re": 0.5, "im": 0.0}}}}


def near_circle_report():
    """ONE_ATOM's norm report on a grid reaching 1e-12 from the circle."""
    sch = norms_on(spec_from_dict(ONE_ATOM).member, grid_double(r_max=1 - 1e-12))
    return VerifyReport(checks=norm_checks(), schwarz=sch, recovered_atoms=None)


class TestSpecFile:
    def test_load_save_load_identity(self, tmp_path):
        # every JSON kind; constant and monomial are saved back as polynomial
        dilatations = [
            {"kind": "constant", "params": {"value": {"re": 0.3, "im": -0.2}}},
            {"kind": "monomial", "params": {"scale": {"re": 0.37, "im": -0.11},
                                            "degree": 2}},
            {"kind": "polynomial",
             "params": {"coefficients": [{"re": 0.1, "im": 0.0},
                                         {"re": 0.0, "im": 0.2},
                                         {"re": -0.15, "im": 0.05}]}},
            {"kind": "blaschke_scaled",
             "params": {"scale": {"re": 0.2, "im": 0.4},
                        "zeros": [{"re": 0.5, "im": -0.1}, {"re": -0.3, "im": 0.6}],
                        "prefactor_angle": 1.25}},
        ]
        z = 0.9 * np.exp(1j * np.linspace(0.0, 6.0, 13)) * np.linspace(0.1, 1.0, 13)
        for dilatation in dilatations:
            data = {
                "alpha": 0.6,
                "atoms": [{"theta": 0.25, "weight": 0.5}, {"theta": 2.0, "weight": 0.5}],
                "dilatation": dilatation,
            }
            first = load_function_spec(write_spec(tmp_path, data))
            out = tmp_path / "copy.json"
            save_function_spec(first, out)
            second = load_function_spec(out)
            assert second.alpha == first.alpha
            assert np.array_equal(second.measure.angles, first.measure.angles)
            assert np.array_equal(second.measure.weights, first.measure.weights)
            assert np.array_equal(second.dilatation(z), first.dilatation(z))
            assert second.dilatation == first.dilatation

    def test_monomial_degree_bounded(self, tmp_path):
        for degree in (2.5, 5000, 0, "2", True):
            data = dict(EXTREMAL, alpha=0.3, dilatation={
                "kind": "monomial",
                "params": {"scale": {"re": 0.2, "im": 0.0}, "degree": degree}})
            with pytest.raises(SpecFileError, match="monomial degree"):
                load_function_spec(write_spec(tmp_path, data))
        data["dilatation"]["params"]["degree"] = 4096.0
        spec = load_function_spec(write_spec(tmp_path, data))
        assert np.array_equal(spec.dilatation.coefficients, [0.0] * 4096 + [0.2])

    def test_blaschke_zeros_must_be_a_list(self, tmp_path):
        source = {"alpha": 0.5, "blaschke": {"zeros": 5}}
        shear = dict(EXTREMAL, alpha=0.3, dilatation={
            "kind": "blaschke_scaled",
            "params": {"scale": {"re": 0.2, "im": 0.0}, "zeros": 5}})
        for data in (source, shear):
            with pytest.raises(SpecFileError, match="zeros list"):
                load_function_spec(write_spec(tmp_path, data))

    def test_blaschke_spec_roundtrip(self, tmp_path):
        spec = load_function_spec(write_spec(tmp_path, HALF_ZERO))
        again = spec_from_dict(spec_to_dict(spec))
        assert np.array_equal(again.blaschke.zeros, spec.blaschke.zeros)
        assert again.blaschke.prefactor == spec.blaschke.prefactor

    def test_exactly_one_source(self, tmp_path):
        both = dict(EXTREMAL, **HALF_ZERO)
        with pytest.raises(SpecFileError, match="exactly one"):
            load_function_spec(write_spec(tmp_path, both))
        with pytest.raises(SpecFileError, match="exactly one"):
            load_function_spec(write_spec(tmp_path, {"alpha": 0.5}))

    def test_weight_sum_message(self, tmp_path):
        bad = {"alpha": 1.0, "atoms": [{"theta": 0.0, "weight": 0.5},
                                       {"theta": 1.0, "weight": 0.4}]}
        with pytest.raises(SpecFileError, match="weights must sum to 1"):
            load_function_spec(write_spec(tmp_path, bad))

    @pytest.mark.parametrize("data, message", [
        ({"alpha": True, "atoms": [{"theta": 0.5, "weight": 1.0}]}, "alpha must be"),
        ({"alpha": "0.5", "atoms": [{"theta": 0.5, "weight": 1.0}]}, "alpha must be"),
        ({"alpha": 10 ** 400, "atoms": [{"theta": 0.5, "weight": 1.0}]}, "alpha must be"),
        ({"alpha": 1.0, "atoms": [{"theta": "0.5", "weight": 1.0}]}, "numeric theta"),
        ({"alpha": 1.0, "atoms": [{"theta": 0.5, "weight": True}]}, "numeric theta"),
        ({"alpha": 0.5, "blaschke": {"zeros": [{"re": False, "im": 0.5}]}}, "re/im"),
        (dict(EXTREMAL, alpha=0.3, dilatation={"kind": "monomial", "params": {
            "degree": 2, "scale": {"re": 0.0, "im": "0.1"}}}), "re/im"),
    ])
    def test_non_numbers_exit_two(self, tmp_path, capsys, data, message):
        # JSON booleans and numeric strings are not numbers
        with pytest.raises(SpecFileError, match=message):
            spec_from_dict(data)
        assert main(["verify", str(write_spec(tmp_path, data))]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("data, key", [
        # misspelled, the dilatation was dropped and verify passed the
        # analytic part alone, though |omega| = 0.9 > 1 - 2 alpha
        (dict(EXTREMAL, alpha=0.3, dilation={
            "kind": "constant", "params": {"value": {"re": 0.9, "im": 0.0}}}), "dilation"),
        # misspelled, the degree fell back to 1
        (dict(EXTREMAL, alpha=0.3, dilatation={"kind": "monomial", "params": {
            "scale": {"re": 0.2, "im": 0.0}, "degre": 7}}), "degre"),
        ({"alpha": 0.5, "atoms": [{"theta": 0.0, "weight": 1.0, "wieght": 0.5}]}, "wieght"),
        ({"alpha": 0.5, "blaschke": {"zeros": [{"re": 0.5, "im": 0.0, "i": 0.1}]}}, "i"),
        ({"alpha": 0.5, "blaschke": {"zeros": [], "prefactor": 1.0}}, "prefactor"),
        (dict(EXTREMAL, alpha=0.3, dilatation={
            "kind": "constant", "param": {"value": {"re": 0.1, "im": 0.0}}}), "param"),
        (dict(EXTREMAL, alpha=0.3, dilatation={"kind": "constant", "params": {
            "value": {"re": 0.1, "im": 0.0}, "scale": {"re": 0.1, "im": 0.0}}}), "scale"),
        (dict(EXTREMAL, alpha=0.3, dilatation={"kind": "polynomial", "params": {
            "coefficients": [{"re": 0.1, "im": 0.0}], "degree": 3}}), "degree"),
        (dict(EXTREMAL, alpha=0.3, dilatation={"kind": "blaschke_scaled", "params": {
            "scale": {"re": 0.1, "im": 0.0}, "zeros": [], "prefactor_angel": 1.0}}),
         "prefactor_angel"),
    ])
    def test_unknown_keys_exit_two(self, tmp_path, capsys, data, key):
        with pytest.raises(SpecFileError, match=f"unknown key '{key}'"):
            spec_from_dict(data)
        assert main(["verify", str(write_spec(tmp_path, data))]) == 2
        assert f"unknown key '{key}'" in capsys.readouterr().err

    def test_alpha_validated(self, tmp_path):
        with pytest.raises(SpecFileError, match="alpha"):
            load_function_spec(write_spec(tmp_path, {"alpha": 1.5,
                                                     "atoms": EXTREMAL["atoms"]}))

    def test_resolve_member_from_blaschke(self, tmp_path):
        spec = load_function_spec(write_spec(tmp_path, HALF_ZERO))
        member = spec.member
        assert np.allclose(np.sort(member.measure.weights), [0.25, 0.75], atol=1e-10)

    @pytest.mark.parametrize("alpha", [0.0, 2.0, float("nan"), float("inf")])
    def test_spec_out_of_the_family_is_not_built(self, alpha):
        # the spec builds its member, so it cannot be saved and then fail to load
        with pytest.raises(ValueError, match="alpha must"):
            FunctionSpec(alpha=alpha, measure=single_atom())

    def test_failed_root_solve_is_malformed_input(self, tmp_path, capsys, monkeypatch):
        def fail(phi):
            raise ConvergenceError("residues must sum to 1")
        monkeypatch.setattr("galpha.family.boundary_roots", fail)
        path = write_spec(tmp_path, HALF_ZERO)
        with pytest.raises(SpecFileError, match="residues must sum to 1"):
            load_function_spec(path)
        assert main(["verify", str(path), "--out", str(tmp_path / "r.json")]) == 2
        assert "residues must sum to 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "norms", "render"])
    def test_each_command_solves_the_roots_once(self, tmp_path, capsys, monkeypatch,
                                                command):
        calls = []
        solve = family.boundary_roots
        monkeypatch.setattr("galpha.family.boundary_roots",
                            lambda phi: calls.append(phi) or solve(phi))
        spec = Path(__file__).resolve().parent / "golden" / "specs" / "blaschke-d4.json"
        assert main([command, str(spec), "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 1


class TestVerifyCommand:
    def test_extremal_passes_with_sharp_norm(self, tmp_path, capsys):
        path = write_spec(tmp_path, EXTREMAL)
        code = main(["verify", str(path)])
        assert code == 0
        report = json.loads((tmp_path / "fn.report.json").read_text())
        assert report["passed"] is True
        assert report["schwarz"]["schwarzian_norm"] == pytest.approx(6.0, abs=1e-3)

    def test_malformed_weights_exit_two(self, tmp_path, capsys):
        bad = {"alpha": 1.0, "atoms": [{"theta": 0.0, "weight": 0.9}]}
        code = main(["verify", str(write_spec(tmp_path, bad))])
        assert code == 2
        assert "weights must sum to 1" in capsys.readouterr().err

    def test_polynomial_dilatation_length_bounded(self, tmp_path, capsys):
        # as long as a degree-4096 monomial's list, and no longer
        data = dict(EXTREMAL, alpha=0.3, dilatation={
            "kind": "polynomial",
            "params": {"coefficients": [{"re": 0.0, "im": 0.0}] * 4098}})
        path = write_spec(tmp_path, data)
        assert main(["verify", str(path)]) == 2
        assert "at most 4097 coefficients, got 4098" in capsys.readouterr().err
        data["dilatation"]["params"]["coefficients"].pop()
        spec = load_function_spec(write_spec(tmp_path, data))
        assert spec.dilatation.coefficients.size == 4097

    def test_blaschke_source_reports_recovered_atoms(self, tmp_path, capsys):
        path = write_spec(tmp_path, HALF_ZERO)
        code = main(["verify", str(path), "--out", str(tmp_path / "r.json")])
        assert code == 0
        report = json.loads((tmp_path / "r.json").read_text())
        atoms = sorted(report["recovered_atoms"], key=lambda a: a[1])
        assert atoms[0][0] == pytest.approx(0.0, abs=1e-10)
        assert atoms[0][1] == pytest.approx(0.25, abs=1e-10)
        assert atoms[1][0] == pytest.approx(np.pi, abs=1e-10)
        assert atoms[1][1] == pytest.approx(0.75, abs=1e-10)
        assert report["roundtrip_error"] < 1e-8

    @pytest.mark.parametrize("zeros", [
        [{"re": 0.0, "im": 0.0}],
        [{"re": 0.5, "im": 0.0}],
        [{"re": 0.3, "im": 0.4}, {"re": -0.2, "im": 0.0}],
    ])
    def test_small_products_roundtrip(self, tmp_path, capsys, zeros):
        data = {"alpha": 0.5, "blaschke": {"zeros": zeros}}
        out = tmp_path / "r.json"
        assert main(["verify", str(write_spec(tmp_path, data)), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["roundtrip_error"] < 1e-8
        assert len(report["recovered_atoms"]) == len(zeros) + 1

    def test_failed_round_trip_exits_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("galpha.verify.ROUNDTRIP_TOL", 0.0)
        out = tmp_path / "r.json"
        assert main(["verify", str(write_spec(tmp_path, HALF_ZERO)), "--out", str(out)]) == 1
        assert [c["name"] for c in json.loads(out.read_text())["checks"]
                if not c["passed"]] == ["roundtrip_error"]
        assert capsys.readouterr().out.splitlines()[-1].endswith("FAIL")

    def test_zero_near_circle_rejected(self, tmp_path, capsys):
        data = {"alpha": 0.5,
                "blaschke": {"zeros": [{"re": 1.0 - 1e-14, "im": 0.0}]}}
        assert main(["verify", str(write_spec(tmp_path, data))]) == 2

    def test_non_numeric_prefactor_angle_exit_two(self, tmp_path, capsys):
        for angle in (None, "0.5", False):
            data = {"alpha": 0.5, "blaschke": {"zeros": [{"re": 0.5, "im": 0}],
                                               "prefactor_angle": angle}}
            assert main(["verify", str(write_spec(tmp_path, data))]) == 2
            assert "prefactor_angle must be a number" in capsys.readouterr().err

    def test_roundtrip_is_not_a_command(self, capsys):
        # verify is the one checking command for a Blaschke spec
        spec = Path(__file__).resolve().parent / "golden" / "specs" / "blaschke-d4.json"
        with pytest.raises(SystemExit) as exited:
            main(["roundtrip", str(spec)])
        assert exited.value.code == 2
        assert "invalid choice: 'roundtrip'" in capsys.readouterr().err

    def test_harmonic_spec_checks(self, tmp_path, capsys):
        code = main(["verify", str(write_spec(tmp_path, CONSTANT_SHEAR))])
        assert code == 0
        report = json.loads((tmp_path / "fn.report.json").read_text())
        checks = {c["name"]: c for c in report["checks"]}
        # alpha = 1/4 and omega = 1/2 sit exactly on the criterion
        assert checks["univalence_criterion_margin"] == {
            "name": "univalence_criterion_margin", "value": 0.0, "comparison": ">=",
            "threshold": 0.0, "evidence": "bound", "passed": True}
        assert checks["dilatation_sup"] == {
            "name": "dilatation_sup", "value": 0.5, "comparison": "<", "threshold": 1.0,
            "evidence": "bound", "passed": True}
        # the criterion is the one injectivity check; no sampled probe runs
        assert list(checks)[-2:] == ["dilatation_sup", "univalence_criterion_margin"]
        for name in ("membership_margin", "real_part_bound_min_residual",
                     "subordination_max_modulus"):
            assert checks[name]["value"] is True and checks[name]["threshold"] is True
            assert checks[name]["evidence"].startswith("exact: ")
        assert "[exact: |omega(z)| <= |z| (Schwarz lemma)]  ok" in capsys.readouterr().out

    @pytest.mark.parametrize("value", [0.20005, 0.2001])
    def test_constant_just_past_the_criterion_fails(self, tmp_path, capsys, value):
        # the exact margin 0.2 - value is negative, though a grid with
        # r_max < 1 reads it positive
        data = dict(CONSTANT_SHEAR, alpha=0.4, dilatation={
            "kind": "constant", "params": {"value": {"re": value, "im": 0.0}}})
        out = tmp_path / "r.json"
        assert main(["verify", str(write_spec(tmp_path, data)), "--out", str(out)]) == 1
        failed = [c for c in json.loads(out.read_text())["checks"] if not c["passed"]]
        assert [c["name"] for c in failed] == ["univalence_criterion_margin"]
        assert failed[0]["value"] == pytest.approx(0.2 - value, abs=1e-15)

    def test_dilatation_peaking_between_samples_exit_two(self, tmp_path, capsys):
        # sup |omega| = 1.004 on the circle, though 8 samples per degree read
        # at most 0.998: not sense-preserving, so malformed input
        theta0 = np.pi / 8008
        coeffs = 1.004 / 1001 * np.exp(-1j * theta0 * np.arange(1001))
        data = dict(EXTREMAL, alpha=0.6, dilatation={
            "kind": "polynomial",
            "params": {"coefficients": [{"re": c.real, "im": c.imag} for c in coeffs]}})
        assert main(["verify", str(write_spec(tmp_path, data))]) == 2
        assert "sense-preserving" in capsys.readouterr().err

    def test_failing_check_is_named(self, tmp_path, capsys):
        # |omega| = 1/2 exceeds 1 - 0.4 |z| (1 + |z|) near the circle
        data = dict(CONSTANT_SHEAR, alpha=0.4)
        out = tmp_path / "r.json"
        code = main(["verify", str(write_spec(tmp_path, data)), "--out", str(out)])
        assert code == 1
        report = json.loads(out.read_text())
        assert report["passed"] is False
        assert [c["name"] for c in report["checks"] if not c["passed"]] == [
            "univalence_criterion_margin"]
        lines = {line.split(":")[0].strip(): line
                 for line in capsys.readouterr().out.splitlines()}
        assert [name for name, line in lines.items() if "FAIL" in line] == [
            "univalence_criterion_margin", "result"]
        coefficient = next(c for c in report["checks"]
                           if c["name"] == "coefficient_max_ratio")
        assert (coefficient["threshold"], coefficient["evidence"]) == (1.0, "bound")
        assert "(<= 1)  [bound]  ok" in lines["coefficient_max_ratio"]

    def test_no_criterion_for_alpha_at_least_half(self, tmp_path, capsys):
        # the criterion proves univalence only for alpha < 1/2, so it is not a check
        data = dict(CONSTANT_SHEAR, alpha=0.8)
        out = tmp_path / "r.json"
        assert main(["verify", str(write_spec(tmp_path, data)), "--out", str(out)]) == 0
        names = [c["name"] for c in json.loads(out.read_text())["checks"]]
        assert "dilatation_sup" in names
        assert "univalence_criterion_margin" not in names
        text = capsys.readouterr().out
        assert "univalence" not in text
        assert "fails" not in text

    def test_no_injectivity_claim_for_a_folded_shear(self):
        # alpha = 1, omega = 0.98 z^2: f is sense-preserving but folds on
        # |z| <= 0.9, so the report must hold no injectivity check at all
        spec = FunctionSpec(alpha=1.0, measure=single_atom(0.0),
                            dilatation=DilatationSpec.monomial(0.98, 2))
        hmap = HarmonicMap(analytic_part=spec.member, dilatation=spec.dilatation)
        f = lambda t: hmap.evaluate(0.9 * np.exp(1j * t))
        t = np.array([0.517, 5.766])
        for _ in range(3):  # Newton on f(0.9 e^(i t0)) = f(0.9 e^(i t1)), forward differences
            d0, d1 = (f(t[0] + 1e-7) - f(t[0])) / 1e-7, (f(t[1] + 1e-7) - f(t[1])) / 1e-7
            gap = f(t[0]) - f(t[1])
            t -= np.linalg.solve([[d0.real, -d1.real], [d0.imag, -d1.imag]], [gap.real, gap.imag])
        assert abs(f(t[0]) - f(t[1])) < 1e-12 and t[1] - t[0] > 5.0
        assert np.all(hmap.jacobian(0.9 * np.exp(1j * t)) > 0.09)
        names = [c.name for c in run_verification(spec).checks]
        assert names[names.index("schwarzian_norm") + 1:] == ["dilatation_sup"]

    def test_parser_built_once_per_process(self, tmp_path, capsys):
        # one shared parser gives each command the result a fresh parser gives
        half_zero = write_spec(tmp_path, HALF_ZERO, "half_zero.json")
        extremal = write_spec(tmp_path, EXTREMAL)
        absent, out = str(tmp_path / "absent.json"), str(tmp_path / "r.json")
        commands = [["verify", str(half_zero), "--out", out], ["norms", str(extremal)],
                    ["verify", absent, "--out", out], ["norms", absent]]

        def run(argv):
            return main(argv), capsys.readouterr()

        fresh = []
        for argv in commands:
            build_parser.cache_clear()
            fresh.append(run(argv))
        build_parser.cache_clear()
        assert [run(argv) for argv in commands] == fresh
        assert [code for code, _ in fresh] == [0, 0, 2, 2]
        assert build_parser.cache_info().misses == 1


class TestRenderCommand:
    def test_csv_first_row(self, tmp_path):
        path = write_spec(tmp_path, EXTREMAL)
        out = tmp_path / "curve.csv"
        code = main(["render", str(path), "--radius", "0.99",
                     "--format", "csv", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "theta,re,im"
        theta0, re0, im0 = (float(x) for x in lines[1].split(","))
        assert theta0 == 0.0
        # h(0.99) for h = z - z^2/2
        assert re0 == pytest.approx(0.99 - 0.99 ** 2 / 2, abs=1e-6)
        assert abs(im0) < 1e-12

    def test_deterministic_output(self, tmp_path):
        path = write_spec(tmp_path, EXTREMAL)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["render", str(path), "--out", str(a)])
        main(["render", str(path), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_svg_single_closed_path(self, tmp_path):
        path = write_spec(tmp_path, EXTREMAL)
        out = tmp_path / "curve.svg"
        code = main(["render", str(path), "--samples", "4",
                     "--format", "svg", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.count("<path") == 1
        d = text.split('d="')[1].split('"')[0]
        first = d.split("L")[0].replace("M", "").strip()
        assert d.strip().endswith(f"L {first} Z")

    def test_constant_shear_curve(self, tmp_path):
        data = {"alpha": 0.25, "atoms": [{"theta": 0.0, "weight": 1.0}],
                "dilatation": {"kind": "constant",
                               "params": {"value": {"re": 0.5, "im": 0.0}}}}
        path = write_spec(tmp_path, data)
        out = tmp_path / "shear.csv"
        main(["render", str(path), "--radius", "0.5", "--samples", "16",
              "--out", str(out)])
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        from galpha.family import GAlphaFunction, single_atom
        member = GAlphaFunction(alpha=0.25, measure=single_atom(0.0))
        for theta_s, re_s, im_s in rows:
            z = 0.5 * np.exp(1j * float(theta_s))
            h = member.h(z)
            expected = h + np.conj(0.5 * h)
            assert complex(float(re_s), float(im_s)) == pytest.approx(expected, abs=1e-9)

    def test_bad_radius_and_samples(self, tmp_path, capsys):
        path = write_spec(tmp_path, EXTREMAL)
        assert main(["render", str(path), "--radius", "0.9999999",
                     "--out", str(tmp_path / "x.csv")]) == 2
        # the limit itself renders, though |r e^(i theta)| rounds above r
        assert main(["render", str(path), "--radius", "0.999999",
                     "--out", str(tmp_path / "x.csv")]) == 0
        assert main(["render", str(path), "--samples", "3",
                     "--out", str(tmp_path / "x.csv")]) == 2


class TestUnallocatableSizes:
    # numpy refuses 10^13 elements (~73 TiB) at once, allocating nothing
    @pytest.mark.parametrize("command", [
        ["gen", "--seed", "1", "--atoms", "10000000000000", "--alpha", "0.5"],
        ["render", "SPEC", "--samples", "10000000000000"],
    ], ids=["gen", "render"])
    def test_exit_two(self, tmp_path, capsys, command):
        path = write_spec(tmp_path, EXTREMAL)
        argv = [str(path) if arg == "SPEC" else arg for arg in command]
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: Unable to allocate")
        assert not out.exists()


class TestGenCommand:
    def test_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["gen", "--seed", "1", "--atoms", "3", "--alpha", "0.8",
                     "--out", str(a)]) == 0
        assert main(["gen", "--seed", "1", "--atoms", "3", "--alpha", "0.8",
                     "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_output_loads_cleanly(self, tmp_path, capsys):
        path = tmp_path / "gen.json"
        main(["gen", "--seed", "9", "--atoms", "6", "--alpha", "0.33",
              "--out", str(path)])
        spec = load_function_spec(path)
        assert spec.measure.count == 6
        assert spec.measure.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_invalid_arguments(self, tmp_path, capsys):
        assert main(["gen", "--seed", "1", "--atoms", "0", "--alpha", "0.5",
                     "--out", str(tmp_path / "x.json")]) == 2
        assert main(["gen", "--seed", "1", "--atoms", "3", "--alpha", "1.5",
                     "--out", str(tmp_path / "x.json")]) == 2

    def test_generated_spec_passes_verification(self, tmp_path, capsys):
        path = tmp_path / "gen.json"
        main(["gen", "--seed", "7", "--atoms", "5", "--alpha", "0.6",
              "--out", str(path)])
        assert main(["verify", str(path)]) == 0


class TestNormsCommand:
    def test_reports_extremal_values(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"alpha": 0.25,
                                     "atoms": [{"theta": 0.0, "weight": 1.0}]})
        out = tmp_path / "norms.json"
        code = main(["norms", str(path), "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())["schwarz"]
        assert payload["pre_schwarzian_norm"] == pytest.approx(0.5, abs=1e-3)
        assert payload["schwarzian_norm"] == pytest.approx(1.125, abs=1e-3)
        assert payload["qc_constant"] == 3.0

    def test_missing_file_exit_two(self, tmp_path, capsys):
        assert main(["norms", str(tmp_path / "absent.json")]) == 2

    @pytest.mark.parametrize("command", ["verify", "norms"])
    def test_default_grid_report_equals_library_report(self, tmp_path, capsys,
                                                        command):
        # the CLI's default --rmax must sweep exactly the library's default grid
        path, out = tmp_path / "gen.json", tmp_path / "report.json"
        main(["gen", "--seed", "1", "--atoms", "3", "--alpha", "0.6",
              "--out", str(path)])
        main([command, str(path), "--out", str(out)])
        spec = load_function_spec(path)
        if command == "verify":
            library = run_verification(spec)
        else:
            sch = norms(spec.member)
            library = VerifyReport(checks=norm_checks(), schwarz=sch, recovered_atoms=None)
        assert json.loads(out.read_text()) == json.loads(json.dumps(library.to_dict()))

    @pytest.mark.parametrize("near_circle", [False, True], ids=["default", "near_circle"])
    def test_norms_json_records_argmax_checks_and_verdict(self, tmp_path, capsys,
                                                          near_circle):
        # a single atom's norms are its closed-form boundary limits, at
        # |argmax| = 1, unless the float objectives read above them near the
        # circle, as on the library's grid to r_max = 1 - 1e-12; the
        # certificates decide the checks, so both pass either way
        out = tmp_path / "norms.json"
        if near_circle:
            payload = json.loads(json.dumps(near_circle_report().to_dict()))
        else:
            assert main(["norms", str(write_spec(tmp_path, ONE_ATOM)), "--out", str(out)]) == 0
            payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert [(c["name"], c["passed"]) for c in payload["checks"]] == [
            ("pre_schwarzian_norm", True), ("schwarzian_norm", True)]
        for which in ("pre_schwarzian", "schwarzian"):
            radius = abs(complex(*payload["schwarz"][f"{which}_argmax"]))
            assert (radius == pytest.approx(1.0, abs=1e-15)) is not near_circle

    def test_norms_writes_and_prints_the_verify_report(self, tmp_path, capsys):
        # one report: norms --out has verify's keys, its schwarz block up to
        # the norm values, argmaxes and source, and its two norm checks;
        # every other line norms prints, the quasiconformal constant
        # included, is a line of verify's text; verify's closed-form values
        # lie at or below the searched ones
        path = tmp_path / "gen.json"
        main(["gen", "--seed", "4", "--atoms", "3", "--alpha", "0.3",
              "--out", str(path)])
        capsys.readouterr()
        reports, texts = {}, {}
        for command in ("verify", "norms"):
            out = tmp_path / f"{command}.json"
            assert main([command, str(path), "--out", str(out)]) == 0
            reports[command] = json.loads(out.read_text())
            texts[command] = capsys.readouterr().out.splitlines()
        verify, norms_ = reports["verify"], reports["norms"]
        assert norms_.keys() == verify.keys()
        assert norms_["schwarz"].keys() == verify["schwarz"].keys()
        assert (verify["schwarz"]["norm_source"], norms_["schwarz"]["norm_source"]) == (
            "radial_limit", "search")
        differ = {f"{which}_{key}" for which in ("pre_schwarzian", "schwarzian")
                  for key in ("norm", "argmax")} | {"norm_source"}
        for key, value in norms_["schwarz"].items():
            assert key in differ or value == verify["schwarz"][key], key
        assert norms_["checks"] == [c for c in verify["checks"]
                                    if c["name"].endswith("schwarzian_norm")]
        assert norms_["roundtrip_error"] is norms_["recovered_atoms"] is None
        names = tuple(f"  {which}_{kind}" for which in ("pre_schwarzian", "schwarzian")
                      for kind in ("estimate", "argmax"))
        assert {line for line in texts["norms"] if not line.startswith(names)} <= set(
            texts["verify"])
        for command in ("verify", "norms"):
            sch = reports[command]["schwarz"]
            for which in ("pre_schwarzian", "schwarzian"):
                argmax = complex(*sch[f"{which}_argmax"])
                assert f"  {which + '_argmax':<29}: {argmax:.6f}" in texts[command]
                assert sch[f"{which}_norm"] <= norms_["schwarz"][f"{which}_norm"]
        assert any(line.startswith("  quasiconformal constant")
                   for line in texts["norms"])

    @pytest.mark.parametrize("command", ["verify", "norms"])
    def test_norm_estimates_decide_no_verdict(self, tmp_path, capsys, command):
        # near the circle the float objectives can read above the sharp
        # values, as in the library's norms on a grid to r_max = 1 - 1e-12;
        # the estimates are printed with their bounds and source, and the
        # certificates, not the estimates, pass both norm checks
        if command == "norms":
            report = near_circle_report()
            assert report.passed
            text, sch = report.render_text(), report.to_dict()["schwarz"]
        else:
            out = tmp_path / "r.json"
            assert main(["verify", str(write_spec(tmp_path, ONE_ATOM)), "--out", str(out)]) == 0
            text, sch = capsys.readouterr().out, json.loads(out.read_text())["schwarz"]
        assert "FAIL" not in text
        for which in ("pre_schwarzian", "schwarzian"):
            assert (f"  {which + '_estimate':<29}: {sch[which + '_norm']:.12g}  "
                    f"(bound {sch[which + '_bound']:.12g})  [{sch['norm_source']}]"
                    ) in text.splitlines()

    @pytest.mark.parametrize("command", ["verify", "norms"])
    def test_out_in_missing_directory_exit_two(self, tmp_path, capsys, command):
        path = write_spec(tmp_path, EXTREMAL)
        out = tmp_path / "absent" / "report.json"
        code = main([command, str(path), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.parent.exists()


class TestNormEnclosure:
    @pytest.mark.parametrize("data", [EXTREMAL, CONSTANT_SHEAR, HALF_ZERO],
                             ids=["atoms", "harmonic", "blaschke"])
    def test_verify_runs_no_search(self, tmp_path, capsys, monkeypatch, data):
        def searched(*args, **kwargs):
            raise AssertionError("verify ran the norm search")

        monkeypatch.setattr("galpha.schwarz.sup_norm_estimate", searched)
        path = write_spec(tmp_path, data)
        assert main(["verify", str(path)]) == 0

    def test_verify_norms_enclose_the_searched_norms(self):
        # verify reports the heaviest atom's radial limits, bit for bit, at
        # conj(zeta) of that atom; the search's attained values lie between
        # them and the sharp bounds
        rng = np.random.default_rng(27)
        for m in (1, 2, 3, 5, 8, 13, 21, 32, 64):
            alpha = float(1.0 - rng.uniform())
            measure = AtomicMeasure(angles=np.sort(rng.uniform(0.0, 2.0 * np.pi, m)),
                                    weights=rng.dirichlet(np.ones(m)))
            spec = FunctionSpec(alpha=alpha, measure=measure)
            enclosure = run_verification(spec).schwarz
            searched = norms(spec.member)
            k = int(np.argmax(measure.weights))
            t = float(measure.weights[k])
            limits = {"pre_schwarzian": 2.0 * alpha * t,
                      "schwarzian": 2.0 * alpha * t * (2.0 + alpha * t)}
            assert (enclosure.source, searched.source) == ("radial_limit", "search")
            for which, limit in limits.items():
                lo = getattr(enclosure, f"{which}_norm")
                assert lo.value == limit, (m, which)
                assert lo.argmax == np.conj(measure.atoms[k])
                assert lo.value <= getattr(searched, f"{which}_norm").value
                assert getattr(searched, f"{which}_norm").value <= getattr(
                    enclosure, f"{which}_bound"), (m, which)


class TestGridConstruction:
    # a grid is 0.5 MB of points, built with it; only the norm search reads one
    def test_importing_the_cli_builds_no_grid(self):
        probe = (
            "import sys\n"
            "built = []\n"
            "def profile(frame, event, arg):\n"
            "    if (event == 'call' and frame.f_code.co_name == '__init__'\n"
            "            and type(frame.f_locals.get('self')).__name__ == 'DiskGrid'):\n"
            "        built.append(1)\n"
            "sys.setprofile(profile)\n"
            "import galpha.cli\n"
            "galpha.cli.build_parser()\n"
            "before = len(built)\n"
            "galpha.complexfn.DiskGrid()\n"
            "sys.setprofile(None)\n"
            "print(before, len(built))\n")
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH")
                                   else [])))
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        # none on import or building the parser; the probe sees one built
        assert done.stdout.split() == ["0", "1"]

    def test_only_the_norm_search_builds_a_grid(self, tmp_path, capsys, monkeypatch):
        # verify builds none; norms without a grid builds the default one on
        # its first call and keeps it
        built, init = [], DiskGrid.__init__

        def counted(self):
            built.append(self)
            init(self)

        monkeypatch.setattr(DiskGrid, "__init__", counted)
        schwarz._default_grid.cache_clear()
        path = write_spec(tmp_path, HALF_ZERO)
        assert main(["verify", str(path)]) == 0
        assert built == []
        f = GAlphaFunction(alpha=0.4, measure=AtomicMeasure(angles=[0.3, 2.0],
                                                            weights=[0.6, 0.4]))
        first = norms(f)
        assert len(built) == 1 and built[0] is schwarz._default_grid()
        assert norms(f) == first and len(built) == 1
        assert built[0] == DiskGrid()


class TestReadme:
    def test_check_table_lists_the_emitted_checks(self):
        # README's verify-report table names exactly the checks that
        # run_verification emits, in its order and with its evidence class,
        # for atom, Blaschke and dilatation specs at alpha < 1/2 and >= 1/2
        text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        table = text[text.index("| name | passes when |"):]
        rows = [row.split("|")[1:-1] for row in table[:table.index("\n\n")].splitlines()[2:]]
        listed = {cells[0].strip().strip("`"): cells[2].split()[0] for cells in rows}
        emitted = []
        for data in (EXTREMAL, HALF_ZERO, CONSTANT_SHEAR, dict(CONSTANT_SHEAR, alpha=0.8)):
            checks = run_verification(spec_from_dict(data)).checks
            names = [c.name for c in checks]
            assert names == [name for name in listed if name in names]
            for check in checks:
                assert check.evidence.split(":")[0] == listed[check.name], check.name
            emitted += names
        assert set(emitted) == set(listed)


class TestEvidence:
    @pytest.mark.parametrize("data", [EXTREMAL, CONSTANT_SHEAR, HALF_ZERO],
                             ids=["atoms", "harmonic", "blaschke"])
    def test_every_verdict_but_the_round_trip_is_certified(self, tmp_path, capsys, data):
        # a check gated on a tolerance, or read off an estimate or a sample,
        # fails here unless it is the round trip
        path = write_spec(tmp_path, data)
        checks = run_verification(spec_from_dict(data)).checks
        out = tmp_path / "norms.json"
        assert main(["norms", str(path), "--out", str(out)]) == 0
        records = [c.to_dict() for c in checks] + json.loads(out.read_text())["checks"]
        assert len(records) == len(checks) + 2
        for record in records:
            evidence = record["evidence"]
            allowed = evidence == "bound" or evidence.startswith("exact: ")
            assert allowed or (record["name"], evidence) == ("roundtrip_error", "sampled"), record
        assert ("roundtrip_error" in [c.name for c in checks]) is ("blaschke" in data)

    @pytest.mark.parametrize("flag", ["--tol-norm", "--tol-pointwise", "--tol-roundtrip",
                                      "--grid-radii", "--grid-angles", "--rmax"])
    def test_removed_tolerance_flags_are_rejected(self, tmp_path, capsys, flag):
        # every command exits 2 and writes no report; verify runs no search,
        # so a grid flag there would change nothing
        path = write_spec(tmp_path, HALF_ZERO)
        for command in ("verify", "norms"):
            with pytest.raises(SystemExit) as exited:
                main([command, str(path), flag, "1e-3"])
            assert exited.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "fn.report.json").exists()

    def test_checking_commands_take_only_a_spec_and_out(self):
        # a flag that tuned a search or a threshold would make a report a
        # function of more than its spec
        commands = next(action for action in build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction)).choices
        for command in ("verify", "norms"):
            actions = commands[command]._actions
            assert [a.dest for a in actions if not a.option_strings] == ["spec"], command
            assert sorted(flag for a in actions for flag in a.option_strings) == sorted(
                ["-h", "--help", "--out"]), command
