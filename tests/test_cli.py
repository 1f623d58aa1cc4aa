"""End-to-end tests for the command line interface.

Each test drives ``main`` with an argv list and checks the exit code
plus whatever lands on stdout or in report files.  Exit codes are a
stable contract: 0 success, 1 verification failure, 2 parse error,
3 domain error.
"""

import gc
import json
import math
import threading
import warnings

import pytest

import asymconv.cli as cli
import asymconv.quadrature_oracle as oracle
from asymconv.cli import main
from test_golden_reports import DATA, assert_csv_matches


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTypes:
    def test_cusp_square_roundtrip(self, tmp_path, capsys):
        doc = tmp_path / "t.json"
        doc.write_text('{"entries": {"-1/2": 1}}')
        code, out, _ = run(capsys, ["types", str(doc), str(doc)])
        assert code == 0
        assert json.loads(out) == {"entries": {"0": 3}}

    def test_empty_type(self, tmp_path, capsys):
        doc = tmp_path / "t.json"
        doc.write_text('{"entries": {}}')
        code, out, _ = run(capsys, ["types", str(doc), str(doc)])
        assert code == 0
        assert json.loads(out) == {"entries": {}}

    def test_malformed_json_reports_location(self, tmp_path, capsys):
        doc = tmp_path / "t.json"
        doc.write_text('{"entries": {"-1/2": }}')
        code, _, err = run(capsys, ["types", str(doc), str(doc)])
        assert code == 2
        assert "line 1" in err and "column" in err

    def test_wrong_shape_is_parse_error(self, tmp_path, capsys):
        doc = tmp_path / "t.json"
        doc.write_text('[1, 2, 3]')
        code, _, err = run(capsys, ["types", str(doc), str(doc)])
        assert code == 2

    def test_nonintegrable_exponent_is_domain_error(self, tmp_path, capsys):
        doc = tmp_path / "t.json"
        doc.write_text('{"entries": {"-2": 0}}')
        code, _, err = run(capsys, ["types", str(doc), str(doc)])
        assert code == 3
        assert "domain error" in err

    def test_repeated_key_is_parse_error(self, capsys):
        doc = str(DATA / "types_repeated_key.json")
        code, out, err = run(capsys, ["types", doc, doc])
        assert (code, out) == (2, "")
        assert err == "parse error in %s: repeated key \"1/2\"\n" % doc

    def test_keys_naming_one_exponent_are_domain_error(self, capsys):
        doc = str(DATA / "types_equal_exponents.json")
        code, out, err = run(capsys, ["types", doc, doc])
        assert (code, out) == (3, "")
        assert err == "domain error: %s: duplicate exponent 1/2\n" % doc

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(capsys, ["types", str(tmp_path / "no.json"), str(tmp_path / "no.json")])
        assert code == 2

    @pytest.mark.parametrize("degree", ["1.8", "true", '"1"'])
    def test_non_integer_degree_is_domain_error(self, tmp_path, capsys, degree):
        # a degree is refused, never truncated to an integer
        doc = tmp_path / "t.json"
        doc.write_text('{"entries": {"-1/2": %s}}' % degree)
        code, out, err = run(capsys, ["types", str(doc), str(doc)])
        assert code == 3
        assert out == ""
        assert "log degree must be an integer" in err


class TestConstant:
    def test_resonant_cusp_pair(self, capsys):
        # Negative rational option values exercise the widened token
        # matcher; stock argparse would reject "-1/2" as an option.
        code, out, _ = run(capsys, ["constant", "-a", "-1/2", "-b", "-1/2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["case"] == "Resonant"
        assert doc["degree"] == 1
        assert doc["leading_coeff"] == [-0.5, 0]
        assert doc["term"]["r"] == "0"
        assert doc["term"]["log_coeffs"][1] == [-0.5, 0]

    def test_both_integer_pinned_pair(self, capsys):
        code, out, _ = run(
            capsys, ["constant", "-a", "0", "-b", "0", "-j", "1", "-k", "1"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["case"] == "BothInteger"
        assert doc["leading_coeff"] == [0.5, 0]

    def test_smooth_pair_has_no_term(self, capsys):
        code, out, _ = run(capsys, ["constant", "-a", "0", "-b", "-1/2", "-j", "0"])
        assert code == 0
        doc = json.loads(out)
        assert doc["case"] == "Smooth"
        assert doc["degree"] == -1
        assert doc["term"] is None

    def test_anti_chirality_generic(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "constant",
                "-a", "-2/5", "-b", "-3/10", "-p", "1", "-q", "1",
                "--chirality", "anti",
            ],
        )
        assert code == 0
        assert json.loads(out)["case"] == "Generic"

    def test_nonintegrable_exponent(self, capsys):
        code, _, err = run(capsys, ["constant", "-a", "-3/2", "-b", "-1/2"])
        assert code == 3
        assert "a > -1" in err

    def test_float_collapse_onto_a_gamma_pole(self, capsys):
        # Generic by the exact rules, but the float -a-b-1 is 0.0
        code, out, err = run(
            capsys,
            ["constant", "-a", "-50000000000000000001/100000000000000000000", "-b", "-1/2"],
        )
        assert code == 3
        assert out == ""
        assert "Gamma pole" in err

    def test_unpinned_both_integer_degrees(self, capsys):
        # away from j = k = 1 the constant is C * j * k / (j + k - 1)
        # with C = 1, under the same normalization as every other case
        for k, lead in ((1, 0.5), (2, 0.6666666666666666)):
            code, out, _ = run(
                capsys, ["constant", "-a", "0", "-b", "0", "-j", "2", "-k", str(k)]
            )
            assert code == 0
            doc = json.loads(out)
            assert doc["case"] == "BothInteger"
            assert doc["degree"] == 1 + k
            assert doc["leading_coeff"] == [lead, 0]
            assert doc["normalization"] == 0.5

    def test_natural_exponent_beyond_float_factorial_is_domain_error(self, capsys):
        # 171! is beyond float range; 170! still gives its old value
        code, out, err = run(capsys, ["constant", "-a", "171", "-b", "-1/3", "-j", "1"])
        assert code == 3
        assert out == ""
        assert "171! at the natural exponent 171 is beyond float range" in err
        code, out, _ = run(capsys, ["constant", "-a", "170", "-b", "-1/3", "-j", "1"])
        assert code == 0
        assert json.loads(out)["leading_coeff"] == [0.00096720613307340535, 0]

    def test_factorial_bound_comes_before_the_bignum(self, capsys, monkeypatch):
        # 10000000! has 65 million digits: the bound n > 170 must refuse it
        # before any factorial that large is computed
        real = math.factorial

        def bounded(n):
            assert n <= 170, "computed %d! exactly" % n
            return real(n)

        monkeypatch.setattr(math, "factorial", bounded)
        code, out, err = run(capsys, ["constant", "-a", "10000000", "-b", "-1/3", "-j", "1"])
        assert code == 3
        assert out == ""
        assert "10000000! at the natural exponent 10000000 is beyond float range" in err

    def test_both_integer_underflow_names_float_range(self, capsys):
        # -4*integer_case_log_coeff at a = b = 400 is about 2^-1609
        code, out, err = run(
            capsys, ["constant", "-a", "400", "-b", "400", "-j", "1", "-k", "1"]
        )
        assert code == 3
        assert out == ""
        assert "BothInteger constant at a=400, b=400 is below float range" in err
        assert "cannot vanish" not in err

    def test_gamma_underflow_names_float_range(self, capsys):
        # the Generic constant at a = b = 800/3 is about e^-746, below the
        # smallest float; at a = b = 400/3 it is about 2.3e-164
        code, out, err = run(capsys, ["constant", "-a", "800/3", "-b", "800/3"])
        assert (code, out) == (3, "")
        assert "Gamma ratio below float range: log = -746.47" in err
        assert "cannot vanish" not in err
        code, out, _ = run(capsys, ["constant", "-a", "400/3", "-b", "400/3"])
        assert code == 0
        assert json.loads(out)["leading_coeff"] == [2.2789461907667739e-164, 0]

    def test_both_integer_range_check_comes_before_the_factorials(self, capsys, monkeypatch):
        # (100000!)^2 / 200001! is about 2^-400017: the lgamma estimate
        # refuses it before integer_case_log_coeff builds any factorial
        real = math.factorial

        def bounded(n):
            assert n <= 1000, "computed %d! exactly" % n
            return real(n)

        monkeypatch.setattr(math, "factorial", bounded)
        code, out, err = run(
            capsys, ["constant", "-a", "100000", "-b", "100000", "-j", "1", "-k", "1"]
        )
        assert (code, out) == (3, "")
        assert err == (
            "domain error: BothInteger constant at a=100000, b=100000 is below float "
            "range: -4*integer_case_log_coeff is about 2^-400017\n"
        )

    def test_both_integer_edge_is_decided_exactly(self, capsys):
        # within 64 bits of the smallest float the exact rational decides:
        # 2^-1068 is a subnormal constant, 2^-1088 is refused
        code, out, _ = run(capsys, ["constant", "-a", "265", "-b", "265", "-j", "1", "-k", "1"])
        assert code == 0
        assert json.loads(out)["leading_coeff"] == [1.1857575500189917e-322, 0]
        code, out, err = run(capsys, ["constant", "-a", "270", "-b", "270", "-j", "1", "-k", "1"])
        assert (code, out) == (3, "")
        assert "below float range: -4*integer_case_log_coeff is about 2^-1088\n" in err

    def test_garbage_rational_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["constant", "-a", "abc", "-b", "0"])
        assert info.value.code == 2


class TestConvolve:
    def test_resonant_singleton_pair(self, tmp_path, capsys):
        doc = tmp_path / "e.json"
        doc.write_text(
            '{"terms": [{"r": "-1/2", "m": 0, "n": 0,'
            ' "log_coeffs": [[1, 0]]}], "smooth_order": 2}'
        )
        code, out, _ = run(capsys, ["convolve", str(doc), str(doc)])
        assert code == 0
        result = json.loads(out)
        assert result["smooth_order"] == 2
        (term,) = result["terms"]
        assert (term["r"], term["m"], term["n"]) == ("0", 0, 0)
        assert term["log_coeffs"] == [[0, 0], [-0.5, 0]]

    def test_missing_term_keys(self, tmp_path, capsys):
        doc = tmp_path / "e.json"
        doc.write_text('{"terms": [{"r": "0"}], "smooth_order": 1}')
        code, _, err = run(capsys, ["convolve", str(doc), str(doc)])
        assert code == 2

    @pytest.mark.parametrize(
        "key, value",
        [("m", 1.9), ("n", 1.0), ("n", True), ("m", "1"), ("smooth_order", 2.7)],
    )
    def test_non_integer_power_is_domain_error(self, tmp_path, capsys, key, value):
        term = {"r": "-1/2", "m": 1, "n": 0, "log_coeffs": [[1, 0]]}
        data = {"terms": [term], "smooth_order": 2}
        (term if key in term else data)[key] = value
        doc = tmp_path / "e.json"
        doc.write_text(json.dumps(data))
        code, out, err = run(capsys, ["convolve", str(doc), str(doc)])
        assert code == 3
        assert out == ""
        assert "%s must be an integer" % key in err

    @pytest.mark.parametrize("pair", [[1], [1, 0, 5]])
    def test_log_coeff_pair_of_wrong_length_is_parse_error(self, tmp_path, capsys, pair):
        doc = tmp_path / "e.json"
        doc.write_text(json.dumps(
            {"terms": [{"r": "-1/2", "m": 0, "n": 0, "log_coeffs": [pair]}],
             "smooth_order": 2}
        ))
        code, out, err = run(capsys, ["convolve", str(doc), str(doc)])
        assert code == 2
        assert out == ""
        assert "[re, im] pair" in err

    def test_natural_exponent_beyond_float_factorial_is_domain_error(
        self, tmp_path, capsys
    ):
        # r = 0 with m = n = 171 is the kernel exponent a = 171
        left, right = tmp_path / "left.json", tmp_path / "right.json"
        left.write_text(
            '{"terms": [{"r": "0", "m": 171, "n": 171, "log_coeffs": [[0, 0], [1, 0]]}],'
            ' "smooth_order": 1}'
        )
        right.write_text(
            '{"terms": [{"r": "-1/3", "m": 0, "n": 0, "log_coeffs": [[1, 0]]}],'
            ' "smooth_order": 1}'
        )
        code, out, err = run(capsys, ["convolve", str(left), str(right)])
        assert code == 3
        assert out == ""
        assert "171! at the natural exponent 171 is beyond float range" in err

    def test_smooth_pairs_never_ask_for_the_factorial(self, tmp_path, capsys):
        # r = 0 with m = n = 171 at log degree 0 is a plain natural power:
        # every pair is Smooth, so the 171! of its Gamma factor is never
        # refused, and the output is the empty expansion
        left, right = tmp_path / "left.json", tmp_path / "right.json"
        left.write_text(
            '{"terms": [{"r": "0", "m": 171, "n": 171, "log_coeffs": [[1, 0]]}],'
            ' "smooth_order": 1}'
        )
        right.write_text(
            '{"terms": [{"r": "-1/3", "m": 0, "n": 0, "log_coeffs": [[1, 0]]}],'
            ' "smooth_order": 1}'
        )
        code, out, err = run(capsys, ["convolve", str(left), str(right)])
        assert (code, out, err) == (0, '{\n  "smooth_order": 1,\n  "terms": []\n}\n', "")

    def test_both_integer_underflow_names_float_range(self, tmp_path, capsys):
        doc = tmp_path / "e.json"
        doc.write_text(
            '{"terms": [{"r": "0", "m": 400, "n": 400, "log_coeffs": [[0, 0], [1, 0]]}],'
            ' "smooth_order": 1}'
        )
        code, out, err = run(capsys, ["convolve", str(doc), str(doc)])
        assert code == 3
        assert out == ""
        assert "BothInteger constant at a=400, b=400 is below float range" in err
        assert "cannot vanish" not in err

    def test_gamma_underflow_names_float_range(self, tmp_path, capsys):
        # a = b = 800/3 as r = -1/3 with m = n = 267: a Generic pair whose
        # constant, about e^-746, is below the smallest float
        doc = tmp_path / "e.json"
        doc.write_text(
            '{"terms": [{"r": "-1/3", "m": 267, "n": 267, "log_coeffs": [[1, 0]]}],'
            ' "smooth_order": 1}'
        )
        code, out, err = run(capsys, ["convolve", str(doc), str(doc)])
        assert (code, out) == (3, "")
        assert "Gamma ratio below float range: log = -746.47" in err
        assert "cannot vanish" not in err

    def test_both_integer_range_check_comes_before_the_factorials(self, capsys, monkeypatch):
        # (100000!)^2 / 200001! is about 2^-400017: the lgamma estimate
        # refuses it before integer_case_log_coeff builds any factorial
        real = math.factorial

        def bounded(n):
            assert n <= 1000, "computed %d! exactly" % n
            return real(n)

        monkeypatch.setattr(math, "factorial", bounded)
        code, out, err = run(
            capsys, ["constant", "-a", "100000", "-b", "100000", "-j", "1", "-k", "1"]
        )
        assert (code, out) == (3, "")
        assert err == (
            "domain error: BothInteger constant at a=100000, b=100000 is below float "
            "range: -4*integer_case_log_coeff is about 2^-400017\n"
        )

    def test_both_integer_edge_is_decided_exactly(self, capsys):
        # within 64 bits of the smallest float the exact rational decides:
        # 2^-1068 is a subnormal constant, 2^-1088 is refused
        code, out, _ = run(capsys, ["constant", "-a", "265", "-b", "265", "-j", "1", "-k", "1"])
        assert code == 0
        assert json.loads(out)["leading_coeff"] == [1.1857575500189917e-322, 0]
        code, out, err = run(capsys, ["constant", "-a", "270", "-b", "270", "-j", "1", "-k", "1"])
        assert (code, out) == (3, "")
        assert "below float range: -4*integer_case_log_coeff is about 2^-1088\n" in err

    @pytest.mark.parametrize(
        "number", ["1" + "0" * 400, "1e400"], ids=["int401", "float1e400"]
    )
    def test_log_coeff_out_of_float_range_is_domain_error(
        self, tmp_path, capsys, number
    ):
        # a 401-digit integer overflows complex(); 1e400 parses as inf
        doc = tmp_path / "e.json"
        doc.write_text(
            '{"terms": [{"r": "-1/2", "m": 0, "n": 0, "log_coeffs": [[%s, 0]]}],'
            ' "smooth_order": 2}' % number
        )
        code, out, err = run(capsys, ["convolve", str(doc), str(doc)])
        assert code == 3
        assert out == ""
        assert str(doc) in err and "finite complex" in err


SPEC_GENERIC = {
    "a": "-3/10", "b": "-2/5", "p": 0, "q": 0, "j": 0, "k": 0,
    "chirality": "holo",
}
# Relative error of this one sits near 5e-5, so it fails a 1e-6 bar.
SPEC_ANTI = {
    "a": "-2/5", "b": "-3/10", "p": 1, "q": 1, "j": 0, "k": 0,
    "chirality": "anti",
}


class TestVerify:
    def test_single_generic_spec(self, tmp_path, capsys):
        specs = tmp_path / "specs.json"
        specs.write_text(json.dumps([SPEC_GENERIC]))
        base = tmp_path / "report"
        code, out, _ = run(
            capsys, ["verify", str(specs), "--report", str(base)]
        )
        assert code == 0
        assert "1 passed, 0 failed" in out
        doc = json.loads(base.with_suffix(".json").read_text())
        assert doc["all_passed"] is True
        assert doc["rho_norm"]["consistent"] is True
        assert abs(doc["rho_norm"]["mean"] - 0.5) < 1e-3
        lines = base.with_suffix(".csv").read_text().splitlines()
        assert len(lines) == 2
        assert len(lines[0].split(",")) == 13
        assert len(lines[1].split(",")) == 13

    def test_unwritable_report_is_parse_error(self, tmp_path, capsys):
        # exit 1 means "verification failed"; a report that cannot be
        # written is one stderr line and exit 2, as an unreadable spec file is
        specs = tmp_path / "specs.json"
        specs.write_text(json.dumps([SPEC_GENERIC]))
        base = tmp_path / "missing" / "report"
        code, out, err = run(capsys, ["verify", str(specs), "--report", str(base)])
        assert (code, out) == (2, "")
        assert err.startswith("cannot write %s.json: " % base)
        assert err.count("\n") == 1

    def test_unwritable_report_fails_before_any_verification(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "verify_constant", lambda spec: calls.append(spec))
        specs = tmp_path / "specs.json"
        specs.write_text(json.dumps([SPEC_GENERIC, SPEC_ANTI]))
        base = tmp_path / "missing" / "report"
        code, out, err = run(capsys, ["verify", str(specs), "--report", str(base)])
        assert (code, out, calls) == (2, "", [])
        assert err.startswith("cannot write %s.json: " % base)

    @pytest.mark.parametrize("earlier", [None, "earlier run\n"])
    def test_unwritable_csv_leaves_the_json_as_it_was(self, tmp_path, capsys, monkeypatch, earlier):
        # the path check creates BASE.json before BASE.csv fails; a new
        # one is removed again and an existing one keeps its bytes
        calls = []
        monkeypatch.setattr(cli, "verify_constant", lambda spec: calls.append(spec))
        specs = tmp_path / "specs.json"
        specs.write_text(json.dumps([SPEC_GENERIC]))
        base = tmp_path / "r"
        (tmp_path / "r.csv").mkdir()
        if earlier is not None:
            (tmp_path / "r.json").write_text(earlier)
        code, out, err = run(capsys, ["verify", str(specs), "--report", str(base)])
        assert (code, out, calls) == (2, "", [])
        assert err.startswith("cannot write %s.csv: " % base)
        assert err.count("\n") == 1
        if earlier is None:
            assert sorted(p.name for p in tmp_path.iterdir()) == ["r.csv", "specs.json"]
        else:
            assert (tmp_path / "r.json").read_text() == earlier

    def test_reports_are_byte_identical_across_runs(self, tmp_path, capsys):
        specs = tmp_path / "specs.json"
        specs.write_text(json.dumps([SPEC_GENERIC, SPEC_ANTI]))
        outputs = []
        for tag in ("one", "two"):
            base = tmp_path / tag
            code, _, _ = run(
                capsys, ["verify", str(specs), "--report", str(base)]
            )
            assert code == 0
            outputs.append(
                (
                    base.with_suffix(".json").read_bytes(),
                    base.with_suffix(".csv").read_bytes(),
                )
            )
        assert outputs[0] == outputs[1]

    def test_worker_count_does_not_change_report(self, tmp_path, capsys):
        # each run starts cold, so both build the spec entries and the
        # collar geometry both specs share; --jobs 3 must not move a byte
        specs = tmp_path / "specs.json"
        specs.write_text(json.dumps([SPEC_GENERIC, SPEC_ANTI]))
        blobs = []
        for jobs in ("1", "3"):
            oracle._inner_moments.cache_clear()
            oracle._collar_geometry.cache_clear()
            base = tmp_path / ("jobs" + jobs)
            code, _, _ = run(
                capsys,
                ["verify", str(specs), "--report", str(base), "--jobs", jobs],
            )
            assert code == 0
            blobs.append(base.with_suffix(".json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_specs_are_checked_in_order_without_a_thread(self, tmp_path, capsys, monkeypatch):
        # --jobs N is kept for the byte contract alone: every spec runs on
        # the calling thread, in the order of the spec file
        def no_thread(thread):
            raise AssertionError("verify started a thread")

        seen = []
        original = cli.verify_constant

        def recorded(spec):
            seen.append((spec.to_json_dict(), threading.get_ident()))
            return original(spec)

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        monkeypatch.setattr(cli, "verify_constant", recorded)
        specs = tmp_path / "specs.json"
        specs.write_text(json.dumps([SPEC_ANTI, SPEC_GENERIC]))
        base = tmp_path / "report"
        code, out, _ = run(capsys, ["verify", str(specs), "--report", str(base), "--jobs", "2"])
        assert code == 0
        assert out.startswith("verified 2 specs: 2 passed, 0 failed\n")
        assert seen == [(SPEC_ANTI, threading.get_ident()), (SPEC_GENERIC, threading.get_ident())]
        doc = json.loads(base.with_suffix(".json").read_text())
        assert [r["spec"] for r in doc["reports"]] == [SPEC_ANTI, SPEC_GENERIC]

    def test_mixed_cases_share_one_normalization_pool(self, tmp_path, capsys):
        # Every singular case, BothInteger included, is stated under the
        # one measure normalization, so a mixed suite pools all of them
        # and must still report a consistent pool.
        both_integer = {
            "a": "0", "b": "0", "p": 0, "q": 0, "j": 1, "k": 1,
            "chirality": "holo",
        }
        resonant = {
            "a": "-1/2", "b": "-1/2", "p": 0, "q": 0, "j": 0, "k": 0,
            "chirality": "holo",
        }
        specs = tmp_path / "specs.json"
        specs.write_text(json.dumps([SPEC_GENERIC, resonant, both_integer]))
        base = tmp_path / "report"
        code, out, _ = run(
            capsys, ["verify", str(specs), "--report", str(base)]
        )
        assert code == 0
        doc = json.loads(base.with_suffix(".json").read_text())
        assert doc["all_passed"] is True
        assert doc["rho_norm"]["consistent"] is True
        assert abs(doc["rho_norm"]["mean"] - 0.5) < 1e-2

    def test_tight_tolerance_fails(self, tmp_path, capsys):
        specs = tmp_path / "specs.json"
        specs.write_text(json.dumps([SPEC_ANTI]))
        code, out, err = run(
            capsys, ["verify", str(specs), "--tolerance", "1e-6"]
        )
        assert code == 1
        assert "0 passed, 1 failed" in out
        assert "exceeds tolerance" in err

    def test_nan_relative_error_fails(self, tmp_path, capsys, monkeypatch):
        # a NaN compares False with every bound, so the test must be
        # "not within tolerance", not "beyond tolerance"
        spec = oracle.KernelSpec(a="-1/3", b="-1/4", p=0, q=0, j=0, k=0)
        poly = oracle.LogPolynomial.of_coeffs([1.0])
        nan_report = oracle.VerificationReport(
            spec, oracle.CaseTag.GENERIC, poly, 1.0, math.nan, 1.0, None
        )
        monkeypatch.setattr(cli, "verify_constant", lambda spec: nan_report)
        specs = tmp_path / "specs.json"
        specs.write_text(json.dumps([SPEC_GENERIC]))
        code, out, err = run(capsys, ["verify", str(specs)])
        assert code == 1
        assert out == "verified 1 specs: 0 passed, 1 failed\n"
        assert "relative error nan exceeds tolerance" in err

    def test_overflowing_spec_is_refused(self, tmp_path, capsys):
        # at p = 800 the collar's |1 - v|^(2a+p) reaches 2.5^799 at v = -3/2,
        # beyond float range: the entry refuses it before any table is built,
        # with no numpy warning (filterwarnings makes one an error)
        spec = {"a": "-1/3", "b": "-1/4", "p": 800, "q": 0, "j": 0, "k": 0}
        specs = tmp_path / "specs.json"
        specs.write_text(json.dumps([spec]))
        code, out, err = run(capsys, ["verify", str(specs)])
        assert code == 1
        assert out == "verified 1 specs: 0 passed, 1 failed\n"
        assert err.count("\n") == 1
        assert err.startswith("FAILED ") and "ValueError: the collar's" in err
        assert err.endswith("beyond float range\n")

    def test_log_degrees_fail_alone(self, tmp_path, capsys):
        # j = 21 passes the largest factorial in int64 and j + k = 171 float
        # range: each fails alone with a ValueError, and the corner spec is
        # still reported
        corner = {"a": "-1/3", "b": "-1/4", "p": 0, "q": 0, "j": 0, "k": 0}
        high = [{**corner, "p": 1, "q": 1, "j": 21}, {**corner, "p": 1, "q": 1, "j": 100, "k": 71}]
        specs = tmp_path / "specs.json"
        specs.write_text(json.dumps(high + [corner]))
        base = tmp_path / "report"
        code, out, err = run(capsys, ["verify", str(specs), "--report", str(base)])
        assert code == 1
        assert out.startswith("verified 3 specs: 1 passed, 2 failed\n")
        lines = err.splitlines()
        assert len(lines) == 2 and "Traceback" not in err
        assert all(line.startswith("FAILED ") and "ValueError: " in line for line in lines)
        assert lines[1].endswith("ValueError: the log degree j+k = 171 needs (j+k)!, "
                                 "beyond float range")
        doc = json.loads(base.with_suffix(".json").read_text())
        assert [r["spec"] for r in doc["reports"]] == [{**corner, "chirality": "holo"}]

    def test_overflowing_build_fails_alone(self, tmp_path, capsys):
        # at j + k = 170 the far series' (j+k)!/E^(j+k) weights leave float
        # range: the spec fails alone with one ValueError that names j+k,
        # and no numpy warning reaches stderr
        corner = {"a": "-1/3", "b": "-1/4", "p": 0, "q": 0, "j": 0, "k": 0}
        specs = tmp_path / "specs.json"
        specs.write_text(json.dumps([{**corner, "p": 1, "q": 1, "j": 100, "k": 70}, corner]))
        base = tmp_path / "report"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, ["verify", str(specs), "--report", str(base)])
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert code == 1
        assert out.startswith("verified 2 specs: 1 passed, 1 failed\n")
        (line,) = err.splitlines()
        assert line.startswith("FAILED ")
        assert "ValueError: the build at log degree j+k = 170 left float range: overflow" in line
        doc = json.loads(base.with_suffix(".json").read_text())
        assert [r["spec"] for r in doc["reports"]] == [{**corner, "chirality": "holo"}]

    def test_gamma_beyond_float_range_fails_alone(self, tmp_path, capsys):
        # p = 10^306 passes the integer rule, but Gamma(a+p+1) is beyond
        # float range: the spec fails alone with a ValueError, never an
        # OverflowError that would end the batch
        corner = {"a": "-1/3", "b": "-1/4", "p": 0, "q": 0, "j": 0, "k": 0}
        specs = tmp_path / "specs.json"
        specs.write_text(json.dumps([{**corner, "p": 10**306}, corner]))
        code, out, err = run(capsys, ["verify", str(specs)])
        assert code == 1
        assert out.startswith("verified 2 specs: 1 passed, 1 failed\n")
        (line,) = err.splitlines()
        assert line.startswith("FAILED ") and "Traceback" not in err
        assert line.endswith("ValueError: Gamma(1e+306) is beyond float range")

    def test_empty_spec_list(self, tmp_path, capsys):
        specs = tmp_path / "specs.json"
        specs.write_text("[]")
        code, out, _ = run(capsys, ["verify", str(specs)])
        assert code == 0
        assert "verified 0 specs" in out

    def test_refused_spec_fails_alone(self, tmp_path, capsys):
        # the oracle refuses this spec with ValueError (too few radii for
        # its model); the batch still reports the good spec
        refused = {
            "a": "-1/3", "b": "-1/4", "p": 3, "q": 2, "j": 2, "k": 1,
            "chirality": "anti",
        }
        specs = tmp_path / "specs.json"
        specs.write_text(json.dumps([SPEC_GENERIC, refused]))
        blobs = []
        for jobs in ("1", "2"):
            base = tmp_path / ("jobs" + jobs)
            code, out, err = run(
                capsys,
                ["verify", str(specs), "--report", str(base), "--jobs", jobs],
            )
            assert code == 1
            assert "1 passed, 1 failed" in out
            doc = json.loads(base.with_suffix(".json").read_text())
            assert len(doc["reports"]) == 1
            (failure,) = doc["failures"]
            assert "ValueError: " in failure and "ValueError: " in err
            blobs.append(base.with_suffix(".json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_malformed_spec_entry(self, tmp_path, capsys):
        specs = tmp_path / "specs.json"
        specs.write_text('[{"a": "-1/2"}]')
        code, _, err = run(capsys, ["verify", str(specs)])
        assert code == 2
        assert "spec 0" in err

    def test_nonintegrable_spec(self, tmp_path, capsys):
        bad = dict(SPEC_GENERIC)
        bad["a"] = "-3/2"
        specs = tmp_path / "specs.json"
        specs.write_text(json.dumps([bad]))
        code, _, err = run(capsys, ["verify", str(specs)])
        assert code == 3

    @pytest.mark.parametrize("value", [1.9, True, "1"])
    def test_non_integer_power_is_domain_error(self, tmp_path, capsys, value):
        # JSON floats, booleans and strings are refused, never truncated
        bad = dict(SPEC_GENERIC)
        bad["p"] = value
        specs = tmp_path / "specs.json"
        specs.write_text(json.dumps([bad]))
        code, _, err = run(capsys, ["verify", str(specs)])
        assert code == 3
        assert "p must be an integer" in err

    def test_zero_tolerance_rejected(self, tmp_path, capsys):
        specs = tmp_path / "specs.json"
        specs.write_text("[]")
        code, _, err = run(capsys, ["verify", str(specs), "--tolerance", "0"])
        assert code == 3

    def test_zero_jobs_rejected(self, tmp_path, capsys):
        specs = tmp_path / "specs.json"
        specs.write_text("[]")
        code, _, err = run(capsys, ["verify", str(specs), "--jobs", "0"])
        assert code == 3


class TestBernstein:
    def test_cusp_times_cube_roots(self, tmp_path, capsys):
        left = tmp_path / "l.json"
        right = tmp_path / "r.json"
        left.write_text('["-1/2"]')
        right.write_text('["-1/3", "-2/3"]')
        code, out, _ = run(capsys, ["bernstein", str(left), str(right)])
        assert code == 0
        doc = json.loads(out)
        assert doc["canonical"] == ["-5/6", "-1/6"]
        assert doc["raw"] == ["-7/6", "-5/6"]

    def test_identical_singletons(self, tmp_path, capsys):
        doc = tmp_path / "r.json"
        doc.write_text('["-1/2"]')
        code, out, _ = run(capsys, ["bernstein", str(doc), str(doc)])
        assert code == 0
        assert json.loads(out)["canonical"] == ["-1"]

    def test_kappa_widens_candidates(self, tmp_path, capsys):
        doc = tmp_path / "r.json"
        doc.write_text('["-1/2"]')
        code, out, _ = run(
            capsys, ["bernstein", str(doc), str(doc), "--kappa", "1"]
        )
        assert code == 0
        assert json.loads(out)["candidates"] == ["-2", "-1"]

    def test_nonnegative_root_rejected(self, tmp_path, capsys):
        left = tmp_path / "l.json"
        right = tmp_path / "r.json"
        left.write_text('["0"]')
        right.write_text('["-1/2"]')
        code, _, err = run(capsys, ["bernstein", str(left), str(right)])
        assert code == 3

    def test_non_array_document(self, tmp_path, capsys):
        doc = tmp_path / "r.json"
        doc.write_text('{"roots": ["-1/2"]}')
        code, _, err = run(capsys, ["bernstein", str(doc), str(doc)])
        assert code == 2


# One rule for every document command: a wrong JSON shape (missing key,
# a float where a rational string belongs) is a parse error, exit 2; a
# string that is not a rational is a domain error, exit 3.  Exponent-type
# documents hold their rationals in object keys, which are always strings,
# so their float case is a float log degree: an integer field, refused as
# a domain error like every other non-integer count.
_SPEC = '{"a": %s, "b": "-1/2", "p": 0, "q": 0, "j": 0, "k": 0}'
_TERM = '{"terms": [{"r": %s, "m": 0, "n": 0, "log_coeffs": [[1, 0]]}], "smooth_order": 1}'
EXIT_CODE_RULE = [
    ("types", "string", '{"entries": {"abc": 1}}', 3),
    ("types", "float", '{"entries": {"-1/2": 1.5}}', 3),
    ("types", "missing", '{}', 2),
    ("convolve", "string", _TERM % '"abc"', 3),
    ("convolve", "float", _TERM % "-0.1", 2),
    ("convolve", "missing", '{"terms": [{"r": "0"}], "smooth_order": 1}', 2),
    ("bernstein", "string", '["abc"]', 3),
    ("bernstein", "float", "[-0.1]", 2),
    ("bernstein", "missing", '{"roots": ["-1/2"]}', 2),
    ("verify", "string", "[%s]" % (_SPEC % '"abc"'), 3),
    ("verify", "float", "[%s]" % (_SPEC % "-0.1"), 2),
    ("verify", "missing", '[{"a": "-1/2"}]', 2),
    # json's own dict would keep the last of two equal keys without a word
    ("types", "repeated", '{"entries": {"-1/2": 1, "-1/2": 0}}', 2),
    ("convolve", "repeated", _TERM % '"-1/2", "r": "-1/3"', 2),
    ("verify", "repeated", "[%s]" % (_SPEC % '"-1/3", "a": "-1/4"'), 2),
]


class TestExitCodeRule:
    @pytest.mark.parametrize(
        "command, case, text, expected",
        EXIT_CODE_RULE,
        ids=["%s-%s" % row[:2] for row in EXIT_CODE_RULE],
    )
    def test_same_mistake_same_code(self, tmp_path, capsys, command, case, text, expected):
        doc = tmp_path / "doc.json"
        doc.write_text(text)
        paths = [str(doc)] if command == "verify" else [str(doc), str(doc)]
        code, out, err = run(capsys, [command] + paths)
        assert code == expected
        assert out == ""
        assert err.startswith("parse error" if expected == 2 else "domain error")
        assert str(doc) in err


# Number faults, each a typed refusal: a zero denominator (exit 2 in a
# flag, which argparse refuses, and 3 in a document, naming the item), an
# exponent or integer field beyond float range and a BothInteger constant
# far below it, and an output past the 2^20-element cap (exit 3).  None
# may end in a traceback: exit 1 means a verification failed.
_N = 10**400
_GOOD_SPEC = _SPEC % '"-1/3"'
_POWERS_TERM = (
    '{"terms": [{"r": "-1/2", "m": %d, "n": %d, "log_coeffs": [[1, 0]]}], "smooth_order": 1}'
)
_BIG_TERM = _POWERS_TERM % (_N, _N)
NUMBER_FAULTS = [
    ("constant-zero-denominator", ["constant", "-a", "1/0", "-b", "0"], None, 2, "'1/0'"),
    ("verify-zero-denominator", ["verify"], "[%s]" % (_SPEC % '"1/0"'), 3, "spec 0"),
    ("convolve-zero-denominator", ["convolve"], _TERM % '"1/0"', 3, "'1/0'"),
    ("types-zero-denominator", ["types"], (DATA / "types_zero_denominator.json").read_text(), 3,
     "'1/0'"),
    ("bernstein-zero-denominator", ["bernstein"], '["1/0"]', 3, "root 0"),
    ("constant-a-over-3", ["constant", "-a", "%d/3" % _N, "-b", "-1/3"], None, 3,
     "a is beyond float range"),
    ("constant-natural-a", ["constant", "-a", str(_N), "-b", "-1/3", "-j", "1"], None, 3,
     "a is beyond float range"),
    ("verify-natural-a", ["verify"], "[%s, %s]" % (_SPEC % ('"%d"' % _N), _GOOD_SPEC), 3,
     "spec 0: a is beyond float range"),
    ("verify-a-over-3", ["verify"], "[%s, %s]" % (_SPEC % ('"%d/3"' % _N), _GOOD_SPEC), 3,
     "spec 0: a is beyond float range"),
    ("convolve-natural-powers", ["convolve"], _BIG_TERM, 3, "m is beyond float range"),
    ("convolve-power-m", ["convolve"], _POWERS_TERM % (_N, 0), 3, "m is beyond float range"),
    ("constant-p", ["constant", "-a", "-1/3", "-b", "-1/4", "-p", str(_N)], None, 3,
     "p is beyond float range"),
    ("constant-j", ["constant", "-a", "-1/3", "-b", "-1/4", "-j", str(_N)], None, 3,
     "degree is beyond float range"),
    ("verify-p", ["verify"], '[{"a": "-1/3", "b": "-1/4", "p": %d, "q": 0, "j": 0, "k": 0}]' % _N,
     3, "spec 0: p is beyond float range"),
    ("constant-both-integer-far", ["constant", "-a", "100000", "-b", "100000", "-j", "1", "-k",
                                   "1"], None, 3,
     "BothInteger constant at a=100000, b=100000 is below float range"),
    # p = 10^306 is within float range, but Gamma(a+p+1) is not
    ("constant-p-gamma", ["constant", "-a", "-1/3", "-b", "-1/4", "-p", str(10**306)], None, 3,
     "Gamma(1e+306) is beyond float range"),
    ("convolve-power-m-gamma", ["convolve"], _POWERS_TERM % (10**306, 0), 3,
     "Gamma(1e+306) is beyond float range"),
    ("demo-exponent", ["demo", "monomial", "--n", str(_N), "--m", "2"], None, 3,
     "exponent is beyond float range"),
    # an output of more than 2^20 elements is refused before any is built
    ("constant-j-cap", ["constant", "-a", "-1/3", "-b", "-1/4", "-j", "1000000000"], None, 3,
     "a log degree of 1000000000 would hold 1000000001 elements, beyond the output cap of 1048576"),
    ("bernstein-kappa-cap", ["bernstein", "--kappa", "1000000000"], '["-1/2"]', 3,
     "the candidates at kappa 1000000000 would hold 1000000001 elements, beyond the output cap"),
]


class TestNumberFaults:
    @pytest.mark.parametrize(
        "argv, text, expected, needle",
        [row[1:] for row in NUMBER_FAULTS],
        ids=[row[0] for row in NUMBER_FAULTS],
    )
    def test_typed_refusal(self, tmp_path, capsys, argv, text, expected, needle):
        if text is not None:
            doc = tmp_path / "doc.json"
            doc.write_text(text)
            argv = argv + ([str(doc)] if argv == ["verify"] else [str(doc), str(doc)])
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a flag itself
            code = exc.code
        captured = capsys.readouterr()
        assert code == expected
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert needle in captured.err.splitlines()[-1]
        assert expected == 2 or captured.err.count("\n") == 1


class TestDemo:
    def test_square_cube_demo(self, tmp_path, capsys):
        csv_path = tmp_path / "demo.csv"
        code, out, _ = run(
            capsys,
            ["demo", "monomial", "--n", "2", "--m", "3", "--csv", str(csv_path)],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["case"] == "Generic"
        assert doc["spec"]["a"] == "-1/2"
        assert doc["spec"]["b"] == "-2/3"
        assert doc["relative_error"] < 1e-6
        assert_csv_matches(csv_path.read_text(), [doc])

    def test_unwritable_csv_is_parse_error(self, tmp_path, capsys):
        csv_path = tmp_path / "missing" / "demo.csv"
        code, out, err = run(
            capsys,
            ["demo", "monomial", "--n", "2", "--m", "3", "--csv", str(csv_path)],
        )
        assert (code, out) == (2, "")
        assert err.startswith("cannot write %s: " % csv_path)
        assert err.count("\n") == 1

    def test_unwritable_csv_fails_before_the_demo_runs(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "thom_sebastiani_demo", lambda g1, g2: calls.append(g1))
        csv_path = tmp_path / "missing" / "demo.csv"
        code, out, err = run(
            capsys,
            ["demo", "monomial", "--n", "2", "--m", "3", "--csv", str(csv_path)],
        )
        assert (code, out, calls) == (2, "", [])
        assert err.startswith("cannot write %s: " % csv_path)

    def test_refused_demo_leaves_an_existing_csv_as_it_is(self, tmp_path, capsys):
        # the early check opens the path for append, so a demo that is
        # refused afterwards does not empty a file that was already there
        csv_path = tmp_path / "demo.csv"
        csv_path.write_text("earlier run\n")
        code, _, err = run(
            capsys,
            ["demo", "monomial", "--n", "1", "--m", "2", "--plateau", "0.5",
             "--support", "0.8", "--csv", str(csv_path)],
        )
        assert code == 3
        assert "plateau" in err
        assert csv_path.read_text() == "earlier run\n"

    @pytest.mark.parametrize(
        "argv, expected",
        [
            # IllConditioned: a + b + 1 = 1/2000 is within 1e-3 of a smooth power
            (["--n", "1", "--m", "2000", "--plateau", "0.9999"], 1),
            # the geometry check: plateau^M is narrower than the safety radius
            (["--n", "1", "--m", "2", "--plateau", "0.5", "--support", "0.8"], 3),
        ],
    )
    def test_refused_demo_leaves_no_new_csv(self, tmp_path, capsys, argv, expected):
        # the early path check creates the file; a refused demo removes it
        csv_path = tmp_path / "new.csv"
        code, out, _ = run(capsys, ["demo", "monomial"] + argv + ["--csv", str(csv_path)])
        assert (code, out) == (expected, "")
        assert list(tmp_path.iterdir()) == []

    def test_bad_plateau_is_domain_error(self, capsys):
        code, _, err = run(
            capsys,
            ["demo", "monomial", "--n", "2", "--m", "2", "--plateau", "1.5"],
        )
        assert code == 3

    def test_order_zero_germ_rejected(self, capsys):
        code, _, err = run(capsys, ["demo", "monomial", "--n", "0", "--m", "2"])
        assert code == 3

    def test_ill_conditioned_fit_is_a_refusal(self, capsys):
        # a + b + 1 = 1/2000 lies within 1e-3 of the smooth power 0
        code, out, err = run(
            capsys,
            ["demo", "monomial", "--n", "1", "--m", "2000", "--plateau", "0.9999"],
        )
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "IllConditioned" in err


class TestParserShell:
    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_repeated_calls_leave_no_cyclic_garbage(self, capsys):
        # one parser for the process: in-process callers such as a
        # benchmark loop must not pile up parsers until a full collection
        main(["constant", "-a", "-1/3", "-b", "-1/4"])
        gc.collect()
        gc.disable()
        try:
            for _ in range(20):
                assert main(["constant", "-a", "-1/3", "-b", "-1/4"]) == 0
            left = gc.collect()
        finally:
            gc.enable()
        capsys.readouterr()
        assert left < 100
