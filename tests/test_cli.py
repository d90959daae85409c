"""End-to-end checks of the command-line interface.

Everything runs through cli.main(argv) in-process; stdout is captured with
capsys.  Only cheap subcommands appear here so the suite stays fast — the
expensive pipelines get exercised by the acceptance tests.
"""

import gzip
import json
import math
import re
import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_linforms import linform

from qzeta import builders, forms, groups, measures, parith
from qzeta.cli import _log2, main
from qzeta.dyadic import Enclosure
from qzeta.forms import form_from_json, form_to_json
from qzeta.linforms import FAMILIES
from qzeta.measures import EmpiricalMu, MFit
from qzeta.params import ParamsZ1
from qzeta.parith import FactoredPPoly, PPoly
from qzeta.store import Store


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Point every invocation at a throwaway cache."""
    monkeypatch.setenv("QZETA_CACHE", str(tmp_path / "cache"))


def run_json(capsys, *argv):
    code = main(list(argv) + ["--format", "json"])
    return code, json.loads(capsys.readouterr().out)


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_no_subcommand_prints_usage(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_domain_error_is_input_error(self, capsys):
        assert main(["ord", "--l", "1", "--n", "5"]) == 2

    @pytest.mark.parametrize("flag", ["--u", "--v"])
    def test_zero_denominator_is_input_error(self, capsys, flag):
        # Fraction("1/0") raises ZeroDivisionError, which argparse let through as a traceback
        assert main(["eq3", "--n", "40", flag, "1/0"]) == 2
        captured = capsys.readouterr()
        assert f"error: {flag}: invalid Fraction value '1/0'" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("n", ["0", "1"])
    def test_ord_sweep_without_moduli_is_input_error(self, capsys, n):
        # l ranges over 2..n: an empty sweep would be a vacuous pass
        assert main(["ord", "--n", n]) == 2
        assert "ord sweep needs n >= 2" in capsys.readouterr().err
        code, report = run_json(capsys, "ord", "--n", n, "--l", "2")
        assert code == 0
        assert report["outputs"]["order"] == "0"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["inclusion", "--family", "bv", "--n-max", "-1"], "nothing was checked"),
            (["inclusion", "--family", "bv", "--n-max", "0"], "nothing was checked"),
            (["stability", "--family", "bv", "--n", "-1"], "nothing was checked"),
            (["stability", "--family", "bv", "--n", "0"], "nothing was checked"),
            (["apery", "--n-max", "-1"], "nothing was checked"),
            (["measure", "--family", "bv", "--fit-n-max", "0"], "need n_max >= 6"),
        ],
        ids=[
            "inclusion-n-max-neg",
            "inclusion-n-max-zero",
            "stability-n-neg",
            "stability-n-zero",
            "apery-n-max-neg",
            "measure-fit-n-max-zero",
        ],
    )
    def test_empty_or_zero_range_is_input_error(self, capsys, argv, message):
        # a zero must not fall back to the default range, an empty range must
        # not pass vacuously
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["inclusion", "--n-max", "1"], "--n-max needs --family"),
            (["inclusion", "--kind", "zeta1"], "--kind needs --params"),
            (
                ["inclusion", "--params", "3,3,3,6", "--family", "bv"],
                "--params and --family exclude each other",
            ),
            (["stability", "--n", "3"], "--n needs --family"),
        ],
        ids=[
            "inclusion-n-max-alone",
            "inclusion-kind-alone",
            "inclusion-params-and-family",
            "stability-n-alone",
        ],
    )
    def test_ignored_option_is_input_error(self, capsys, argv, message):
        # an option the command would not use must not be echoed as if it had run
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "extra",
        [
            ["--family", "theorem1", "--n", "1", "--p", "1"],
            ["--family", "theorem1", "--n", "1", "--p", "0"],
            ["--family", "theorem1", "--n", "1", "--p", "-1"],
            ["--p", "1"],
            ["--family", "bv", "--prec", "-1"],
            ["--family", "bv", "--prec", "0"],
        ],
        ids=["p1", "p0", "p-neg1", "default-p1", "prec-neg", "prec-zero"],
    )
    def test_stability_outside_domain_is_input_error(self, capsys, extra):
        # every enclosure would fail, so every image would read as skipped
        assert main(["stability", *extra]) == 2
        captured = capsys.readouterr()
        assert "stability needs |p| >= 2 and prec >= 1" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("terms", ["-1", "-9", "-20"])
    def test_stability_negative_terms_is_input_error(self, capsys, terms):
        argv = ["stability", "--family", "theorem1", "--n", "1", "--terms", terms]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "stability needs terms >= 0" in captured.err
        assert captured.out == ""

    def test_stability_terms_changes_nothing_but_says_so(self, capsys):
        argv = ["stability", "--family", "theorem1", "--n", "1", "--prec", "64"]
        code, with_terms = run_json(capsys, *argv, "--terms", "120")
        assert code == 0
        assert main([*argv, "--format", "json"]) == 0
        captured = capsys.readouterr()
        without = json.loads(captured.out)
        assert "--terms" not in captured.err
        for key in ("outputs", "checks"):
            assert with_terms[key] == without[key]
        assert with_terms["inputs"] == dict(without["inputs"], terms="120")
        main([*argv, "--terms", "7", "--format", "json"])
        assert "qzeta: note: --terms is ignored" in capsys.readouterr().err

    def test_stability_width_bound_follows_prec(self, capsys, monkeypatch):
        # an enclosure of width exactly 2^-prec fails the check, a narrower one passes
        def sweep(params, G, p, bits):
            q = Enclosure(0, width)
            return q, [(g, q) for g in G]

        monkeypatch.setattr(groups, "stability_sweep", sweep)
        for width, code in ((Fraction(1, 2**40), 1), (Fraction(1, 2**41), 0)):
            assert run_json(capsys, "stability", "--family", "bv", "--prec", "40")[0] == code

    def test_stability_image_that_misses_is_unstable(self, capsys, monkeypatch):
        # Q at sigma's image of theorem1 n = 1 moved to 2^-400 above Q at the params
        x, image = FAMILIES["theorem1"].params(1), (9, 9, 7, 16)
        quantity = groups.stable_quantity

        def moved(params, p, bits):
            q = quantity(params, p, bits)
            if params != image:
                return q
            return q + (quantity(x, p, bits).hi - q.lo + Fraction(1, 2**400))

        monkeypatch.setattr(groups, "stable_quantity", moved)
        code, report = run_json(capsys, "stability", "--family", "theorem1", "--prec", "64")
        assert code == 1
        statuses = [r["status"] for r in report["outputs"]["theorem1-n1"]]
        assert statuses == ["ok", "UNSTABLE", "UNSTABLE", "ok", "ok", "ok"]
        assert report["checks"][0]["pass"] is False

    def test_malformed_params(self, capsys):
        assert main(["linform", "--kind", "zeta1", "--params", "1,2"]) == 2

    def test_failed_check_is_exit_one(self, capsys):
        code, report = run_json(capsys, "mertens", "--n", "4")
        assert code == 1
        assert any(not c["pass"] for c in report["checks"])

    def test_success(self, capsys):
        assert run_json(capsys, "rho", "--k", "3")[0] == 0


class TestReportShape:
    def test_rho_example(self, capsys):
        code, report = run_json(capsys, "rho", "--k", "4")
        assert code == 0
        assert report["outputs"]["coefficients"] == ["1", "4", "1"]
        names = {c["name"]: c["pass"] for c in report["checks"]}
        assert names["rho4-at-1"] is True

    def test_ord_example(self, capsys):
        code, report = run_json(capsys, "ord", "--l", "2", "--n", "5")
        assert code == 0
        assert report["outputs"]["order"] == "2"

    def test_required_keys_and_int_encoding(self, capsys):
        _, report = run_json(capsys, "cyclotomic", "--l", "12", "--p", "10")
        for key in ("command", "version", "inputs", "outputs", "checks", "elapsed_ms"):
            assert key in report
        # big integers travel as strings, never as JSON numbers
        assert report["outputs"]["value_at_p"] == str(10**4 - 10**2 + 1)
        assert all(isinstance(c, str) for c in report["outputs"]["coefficients"])

    def test_deterministic_output(self, capsys):
        def snapshot():
            code = main(["dnp", "--n", "6", "--p", "2"])
            raw = json.loads(capsys.readouterr().out)
            raw.pop("elapsed_ms")
            return code, json.dumps(raw, sort_keys=True)

        assert snapshot() == snapshot()

    def test_warm_cache_does_not_change_payload(self, capsys):
        def snapshot():
            main(["linform", "--kind", "zeta1", "--params", "3,3,3,6"])
            raw = json.loads(capsys.readouterr().out)
            raw.pop("elapsed_ms")
            return raw

        cold = snapshot()  # first call computes and writes the cache
        warm = snapshot()  # second call loads it
        assert cold == warm

    def test_threads_flag_is_rejected(self, capsys):
        # evaluation is single-threaded; no flag pretends otherwise
        assert main(["rho", "--k", "2", "--threads", "4"]) == 2
        assert "--threads" in capsys.readouterr().err

    def test_csv_has_check_rows(self, capsys):
        assert main(["rho", "--k", "3", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "section,key,value"
        assert any(line.startswith("check,rho3-at-1,pass") for line in lines)


def _same_form(a, b):
    assert a.params == b.params and a.kind == b.kind and a.M == b.M
    for x, y in ((a.A, b.A), (a.B, b.B)):
        assert (x.num.coeffs, x.dpow, x.dphi) == (y.num.coeffs, y.dpow, y.dphi)
    assert a.cvec == b.cvec


def _stripped(report):
    report.pop("elapsed_ms")
    return report


SMALL = ParamsZ1(2, 2, 2, 4)
SMALL_ARGV = ["linform", "--kind", "zeta1", "--params", "2,2,2,4"]


def _edit_coefficient(text):
    data = json.loads(text)
    data["A"]["num"][-1] = str(int(data["A"]["num"][-1]) + 1)
    return json.dumps(data)


def _rewrite(text, **fields):
    """The form file with some fields replaced and a valid checksum again."""
    data = json.loads(text)
    data.pop("crc32")
    data.update(fields)
    return json.dumps({**data, "crc32": forms._checksum(data)})


def _bad_digits(text):
    A = json.loads(text)["A"]
    return _rewrite(text, A={**A, "num": ["12x4"] + A["num"][1:]})


def _v1(text):
    """The file as the previous format wrote it: spaced JSON with M, no checksum."""
    data = json.loads(text)
    del data["crc32"]
    data.update(format="qzeta-form-v1", M="5")
    return json.dumps(data, sort_keys=True)


CORRUPTIONS = {
    "unreadable": lambda text: "not json{",
    "edited-coefficient": _edit_coefficient,
    "bad-digit-string": _bad_digits,
    "non-object": lambda text: "[1, 2, 3]",
    "missing-field": lambda text: _rewrite(text, B=None),
    "params-mismatch": lambda text: form_to_json(Store().form(ParamsZ1(3, 3, 3, 6))),
    "old-format": _v1,
    "v2-format": lambda text: _rewrite(text, format="qzeta-form-v2"),
}

FORM_FILE = "forms/zeta1-2-2-2-4.json.gz"  # SMALL's file under a cache root


def _flip_middle_byte(data):
    i = len(data) // 2
    return data[:i] + bytes([data[i] ^ 1]) + data[i + 1 :]


BYTE_CORRUPTIONS = {
    "truncated-payload": lambda data: data[: len(data) // 2],
    "truncated-trailer": lambda data: data[:-4],  # the whole text, no length field
    "flipped-payload-byte": _flip_middle_byte,  # gzip's CRC-32 no longer matches
    "trailing-bytes": lambda data: data + b"x",  # the whole member, then one byte
    "uncompressed-text": lambda data: gzip.decompress(data),
    "empty": lambda data: b"",
}


class TestCache:
    def test_form_round_trip(self, store, tmp_path, monkeypatch):
        params = FAMILIES["bv"].params(4)
        fresh = linform(store, params, certify_at=None)
        Store(str(tmp_path)).form(params)
        monkeypatch.setattr(builders, "build", None)  # a second store must load
        _same_form(Store(str(tmp_path)).form(params), fresh)

    def test_memory_store_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        store = Store()
        form = store.form(SMALL)
        assert store.form(SMALL) is form
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("corrupt", sorted(CORRUPTIONS))
    def test_corrupt_form_file_is_rebuilt(self, corrupt, tmp_path, capsys):
        argv = SMALL_ARGV + ["--cache-dir", str(tmp_path)]
        code, cold = run_json(capsys, *argv)
        assert code == 0
        path = tmp_path / FORM_FILE
        good = path.read_bytes()
        bad = CORRUPTIONS[corrupt](gzip.decompress(good).decode())
        path.write_bytes(gzip.compress(bad.encode(), mtime=0))
        with pytest.raises(ValueError):
            form_from_json(bad, SMALL)
        assert Store(str(tmp_path))._load(SMALL) is None
        code, again = run_json(capsys, *argv)
        assert code == 0
        assert _stripped(again) == _stripped(cold)
        assert path.read_bytes() == good

    @pytest.mark.parametrize("corrupt", sorted(BYTE_CORRUPTIONS))
    def test_broken_gzip_member_is_rebuilt(self, corrupt, tmp_path, capsys):
        argv = SMALL_ARGV + ["--cache-dir", str(tmp_path)]
        code, cold = run_json(capsys, *argv)
        assert code == 0
        path = tmp_path / FORM_FILE
        good = path.read_bytes()
        path.write_bytes(BYTE_CORRUPTIONS[corrupt](good))
        assert Store(str(tmp_path))._load(SMALL) is None
        code, again = run_json(capsys, *argv)
        assert code == 0
        assert _stripped(again) == _stripped(cold)
        assert path.read_bytes() == good

    def test_unreadable_file_is_recomputed(self, tmp_path, capsys):
        code, cold = run_json(capsys, *SMALL_ARGV, "--cache-dir", str(tmp_path))
        assert code == 0
        (tmp_path / FORM_FILE).write_text("not json{")
        code, report = run_json(capsys, *SMALL_ARGV, "--cache-dir", str(tmp_path))
        assert code == 0
        assert report["outputs"] == cold["outputs"]

    def test_env_var_cache_root(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QZETA_CACHE", str(tmp_path / "viaenv"))
        code, _ = run_json(capsys, "linform", "--kind", "zeta1", "--params", "2,2,2,4")
        assert code == 0
        assert (tmp_path / "viaenv" / FORM_FILE).exists()

    def test_flag_overrides_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QZETA_CACHE", str(tmp_path / "loser"))
        code, _ = run_json(capsys, *SMALL_ARGV, "--cache-dir", str(tmp_path / "winner"))
        assert code == 0
        assert (tmp_path / "winner" / FORM_FILE).exists()
        assert not (tmp_path / "loser").exists()

    def test_unusable_cache_root_only_fails_commands_that_save(self, tmp_path, capsys):
        root = tmp_path / "a-file"
        root.write_text("")
        assert main(["rho", "--k", "3", "--cache-dir", str(root)]) == 0
        capsys.readouterr()
        # a form save is an input error with one line, not a traceback, and leaves no temp file
        assert main([*SMALL_ARGV, "--cache-dir", str(root)]) == 2
        err = f"qzeta: error: cannot save a form under {root}: Not a directory\n"
        assert capsys.readouterr() == ("", err)
        assert list(tmp_path.iterdir()) == [root] and root.read_text() == ""

    @pytest.mark.parametrize("spelled", [["--cache-dir", ""], ["--cache-dir="]], ids=["space", "eq"])
    def test_empty_cache_dir_is_input_error(self, tmp_path, monkeypatch, capsys, spelled):
        # before, it fell back to $QZETA_CACHE (tmp_path/cache here) or ~/.cache/qzeta
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        assert main([*SMALL_ARGV, *spelled]) == 2
        err = "qzeta: error: --cache-dir is empty; name a directory or leave the flag out\n"
        assert capsys.readouterr() == ("", err)
        assert list(tmp_path.iterdir()) == []

    def test_empty_env_var_means_unset(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QZETA_CACHE", "")
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        code, _ = run_json(capsys, *SMALL_ARGV)
        assert code == 0
        assert (tmp_path / "home" / ".cache" / "qzeta" / FORM_FILE).exists()

    def test_file_is_compact_and_holds_no_M(self, store, tmp_path):
        Store(str(tmp_path)).form(SMALL)
        data = json.loads(gzip.decompress((tmp_path / FORM_FILE).read_bytes()))
        assert sorted(data) == ["A", "B", "crc32", "format", "params"]
        assert form_to_json(linform(store, SMALL, None)) == json.dumps(
            data, sort_keys=True, separators=(",", ":")
        )

    @pytest.mark.parametrize(
        "params",
        [FAMILIES["bv"].params(n) for n in range(1, 5)]
        + [FAMILIES["theorem1"].params(n) for n in (1, 2)],
        ids=lambda p: "-".join([p.kind, *map(str, p)]),
    )
    def test_file_is_one_gzip_member_of_the_form_text(self, params, tmp_path):
        # two fresh stores write the same bytes, and a stdlib reader gets form_to_json back
        Store(str(tmp_path / "one")).form(params)
        form = Store(str(tmp_path / "two")).form(params)
        name = "-".join([params.kind, *map(str, params)]) + ".json.gz"
        data = (tmp_path / "one" / "forms" / name).read_bytes()
        assert data == (tmp_path / "two" / "forms" / name).read_bytes()
        assert data[:2] == b"\x1f\x8b" and data[4:8] == bytes(4)  # gzip magic, mtime 0
        assert gzip.decompress(data).decode() == form_to_json(form)

    def test_old_layout_file_is_not_read_and_left_alone(self, tmp_path, capsys, monkeypatch):
        argv = SMALL_ARGV + ["--cache-dir", str(tmp_path)]
        code, cold = run_json(capsys, *argv)
        assert code == 0
        path = tmp_path / FORM_FILE
        good = path.read_bytes()
        path.unlink()
        old = tmp_path / "forms" / "zeta1-2-2-2-4.json"
        text = gzip.decompress(good).decode()  # the uncompressed layout, valid v3
        old.write_text(text)
        built = []
        real = builders.build
        monkeypatch.setattr(builders, "build", lambda p: built.append(p) or real(p))
        code, again = run_json(capsys, *argv)
        assert code == 0
        assert built == [SMALL]  # the old file was not read
        assert _stripped(again) == _stripped(cold)
        assert sorted(f.name for f in (tmp_path / "forms").iterdir()) == [old.name, path.name]
        assert path.read_bytes() == good
        assert old.read_text() == text


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["bv", "apery"]), st.integers(1, 3))
def test_serialize_parse_round_trip(store, name, n):
    form = store.form(FAMILIES[name].params(n))
    _same_form(form_from_json(form_to_json(form), form.params), form)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_any_changed_character_is_rejected(store, data):
    text = form_to_json(store.form(FAMILIES["bv"].params(2)))
    i = data.draw(st.integers(0, len(text) - 1))
    c = data.draw(st.characters(codec="ascii").filter(lambda c: c != text[i]))
    with pytest.raises(ValueError):
        form_from_json(text[:i] + c + text[i + 1 :], FAMILIES["bv"].params(2))


@contextmanager
def _no_digit_limit():
    """Lift CPython's 4,300-digit int <-> str limit for the test's own checks."""
    if not hasattr(sys, "set_int_max_str_digits"):  # 3.10.0-3.10.6 have no limit
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


class TestLongIntegers:
    """Exact values past the interpreter's default digit limit print in full."""

    def test_cyclotomic_value(self, capsys):
        # 10007 is prime, so Phi_10007(3) = (3^10007 - 1) / 2, 4,775 digits
        code, report = run_json(capsys, "cyclotomic", "--l", "10007", "--p", "3")
        assert code == 0
        with _no_digit_limit():
            assert report["outputs"]["value_at_p"] == str((3**10007 - 1) // 2)

    def test_linform_values(self, store, capsys):
        p = 10**700
        code, report = run_json(capsys, *SMALL_ARGV, "--p", str(p))
        assert code == 0
        form = store.form(SMALL)
        with _no_digit_limit():
            assert Fraction(report["outputs"]["A_at_p"]) == form.A.value_at(p)
            assert Fraction(report["outputs"]["B_at_p"]) == form.B.value_at(p)
            assert len(report["outputs"]["A_at_p"]) > 4300

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
    def test_main_restores_the_callers_limit(self, capsys):
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            assert main(["cyclotomic", "--l", "10007", "--p", "3"]) == 0
            assert sys.get_int_max_str_digits() == 5000
        finally:
            sys.set_int_max_str_digits(previous)


class TestWitnessNumbers:
    @settings(max_examples=300)
    @given(st.floats(min_value=0, exclude_min=True, allow_infinity=False))
    def test_float_range_matches_float_formatting(self, x):
        # floor(log2 x) is the exponent of x's binary float form, frexp's minus one
        assert _log2(Fraction(x)) == math.frexp(x)[1] - 1

    def test_beyond_float_range(self):
        assert _log2(Fraction(2) ** 2000) == 2000
        assert _log2(Fraction(2**2000 - 1)) == 1999
        assert _log2(Fraction(1, 2**3000)) == -3000
        assert _log2(Fraction(3, 2**1200)) == -1199
        assert _log2(Fraction(2**1200 - 1, 2**2400)) == -1201

    def test_linform_beyond_float_range(self, capsys):
        # theorem1 n=3 at p=243: |A(243)| > 2^12000 and the widths < 2^-1074, both past floats
        code, report = run_json(
            capsys, "linform", "--kind", "zeta1", "--params", "25,19,25,46", "--p", "243"
        )
        assert code == 0
        (check,) = report["checks"]
        assert check["pass"]
        m = re.fullmatch(r"gap 0, widths < 2\^-(\d+), need < 2\^-(\d+)", check["witness"])
        assert m and int(m[1]) >= int(m[2]) > 1074

    def test_stability_width_beyond_float_range(self, capsys):
        # at 1200 bits the enclosures are narrower than the smallest float
        argv = ["stability", "--family", "theorem1", "--n", "1", "--prec", "1200"]
        code, report = run_json(capsys, *argv, "--terms", "200")
        assert code == 0
        (check,) = report["checks"]
        m = re.fullmatch(r"6 admissible images, widest enclosure < 2\^-(\d+)", check["witness"])
        assert m and int(m[1]) > 1074

    @pytest.mark.parametrize(
        "argv, prec",
        [([], 320), (["--family", "bv", "--n", "3", "--p", "-2"], 320), (["--prec", "64"], 64)],
        ids=["default", "bv3-minus-2", "prec64"],
    )
    def test_stability_witnesses_are_pinned(self, capsys, argv, prec):
        # Q's ends rounded outward at prec + 3 keep every sweep below 2^-(prec+2)
        code, report = run_json(capsys, "stability", *argv)
        assert code == 0
        for check in report["checks"]:
            assert check["witness"].endswith(f"widest enclosure < 2^-{prec + 2}")


def _dnp_verdicts_by_division(f, n):
    """dnp's two verdicts by division, the oracle for cmd_dnp's: a quotient
    by each p^v - 1, then Phi_n .. Phi_2 divided out of one shrinking
    cofactor, which must leave exactly p - 1."""
    shifted = f.mul_binomial(1)
    divisible = all(shifted.div_binomial(v) is not None for v in range(1, n + 1))
    orders_ok, rest = True, f
    for l in range(n, 1, -1):
        k, rest = rest.split_cyclotomic(l, cap=2)
        orders_ok &= k == 1
    orders_ok &= rest == PPoly((-1, 1))
    degree_ok = f.degree == sum(parith.totient(l) for l in range(1, n + 1))
    return {"divisible-by-every-q-integer": divisible, "lcm-minimality": orders_ok and degree_ok}


# name: mutant of D_n for each n it applies to, as (n, f) -> PPoly or None
DNP_MUTANTS = {
    "D_n": lambda n, f: f,
    "times-phi-1": lambda n, f: f.times_cyclotomics({1: 1}),
    "times-phi-2": lambda n, f: f.times_cyclotomics({2: 1}),
    "times-phi-n": lambda n, f: f.times_cyclotomics({n: 1}),
    "times-phi-n+1": lambda n, f: f.times_cyclotomics({n + 1: 1}),
    "over-phi-1": lambda n, f: f.div_cyclotomic(1),
    "over-phi-2": lambda n, f: f.div_cyclotomic(2) if n >= 2 else None,
    "over-phi-n": lambda n, f: f.div_cyclotomic(n),
    # Phi_7 and Phi_9 both have degree 6: the degree still matches
    "phi-7-for-phi-9": lambda n, f: (
        f.times_cyclotomics({9: 1}).div_cyclotomic(7) if n >= 7 else None
    ),
    "negated": lambda n, f: -f,
    "doubled": lambda n, f: f + f,
    "p-minus-2-for-p-minus-1": lambda n, f: (lambda g: g.shift(1) - g - g)(f.div_binomial(1)),
}


class TestCommands:
    def test_series_cross_check(self, capsys):
        code, report = run_json(capsys, "series", "--k", "3", "--order", "30")
        assert code == 0
        assert len(report["checks"]) == 3
        assert all(c["pass"] for c in report["checks"])

    def test_group_orders(self, capsys):
        code, report = run_json(capsys, "group")
        assert code == 0
        orders = {name: int(v["order"]) for name, v in report["outputs"].items()}
        assert orders == {"zeta1": 12, "zeta1-arith": 6, "zeta2": 120}

    def test_measure_bv(self, capsys):
        code, report = run_json(capsys, "measure", "--family", "bv")
        assert code == 0
        target = 2 * math.pi**2 / (math.pi**2 - 2)
        assert abs(float(report["outputs"]["mu_bound"]) - target) < 1e-8
        assert report["outputs"]["M_coeff"] == "3/2"
        assert report["outputs"]["M_values"][:4] == ["5", "12", "22", "35"]
        assert set(report["outputs"]["M_second_diffs"]) == {"3"}
        assert report["outputs"]["M_fit_period"] == "1"
        assert {c["name"]: c["pass"] for c in report["checks"]}["M-fit-stable"]

    def test_measure_apery_passes_by_default(self, capsys):
        # second differences alternate 3, 2: a period-2 fit needs the forms up to n = 8
        code, report = run_json(capsys, "measure", "--family", "apery")
        assert code == 0
        out = report["outputs"]
        assert out["M_values"] == ["5", "11", "20", "31", "45", "61", "80", "101"]
        assert out["M_second_diffs"] == ["3", "2", "3", "2", "3", "2"]
        assert (out["M_coeff"], out["M_fit_period"]) == ("5/4", "2")
        assert all(c["pass"] for c in report["checks"])

    def test_unstable_fit_fails_its_check(self, capsys, monkeypatch):
        def unstable(family, n_max, store):
            return MFit(Fraction(3, 2), (5, 12, 22, 36), (3, 4), False, 0, "did not settle")

        monkeypatch.setattr(measures, "fit_M_coeff", unstable)
        code, report = run_json(capsys, "measure", "--family", "bv")
        assert code == 1
        (check,) = [c for c in report["checks"] if c["name"] == "M-fit-stable"]
        assert not check["pass"] and check["witness"] == "did not settle"

    def test_empirical_mu_decay_witness(self, capsys):
        code, report = run_json(capsys, "empirical-mu", "--family", "bv", "--n-max", "3")
        assert code == 0
        (check,) = [c for c in report["checks"] if c["name"] == "forms-nonzero-and-decaying"]
        assert check["pass"]
        assert re.fullmatch(r"log\|Delta F\| from -\S+ at n=1 to -\S+ at n=3", check["witness"])

    def test_empirical_mu_without_decay_is_exit_one(self, capsys, monkeypatch):
        def flat(family, p, n_max, store):
            return EmpiricalMu((2.0, 2.0, 2.0), (-1.0, -0.5, 0.5))

        monkeypatch.setattr(measures, "empirical_mu", flat)
        code, report = run_json(capsys, "empirical-mu", "--family", "bv", "--n-max", "3")
        assert code == 1
        failed = [c["name"] for c in report["checks"] if not c["pass"]]
        assert failed == ["forms-nonzero-and-decaying"]

    def test_omega_reports_exponents(self, capsys):
        code, report = run_json(
            capsys, "omega", "--kind", "zeta1", "--params", "17,13,17,31", "--p", "2"
        )
        assert code == 0
        assert report["outputs"]["nu"]  # the factor is nontrivial here
        assert int(report["outputs"]["omega_at_p"]) >= 1

    @pytest.mark.parametrize(
        "moved", [lambda nu, l: nu + (l == 3), lambda nu, l: 0], ids=["raised", "zeroed"]
    )
    def test_omega_check_recomputes_nu_from_exact_orders(self, capsys, monkeypatch, moved):
        argv = ("omega", "--kind", "zeta1", "--params", "17,13,17,31")
        code, report = run_json(capsys, *argv)
        assert code == 0
        assert report["checks"] == [
            {"name": "nu-matches-exact-orders", "pass": True,
             "witness": "16 exponents recomputed, 5 nonzero"}
        ]  # fmt: skip
        real = groups.nu_l
        monkeypatch.setattr(groups, "nu_l", lambda c, G, l: moved(real(c, G, l), l))
        code, report = run_json(capsys, *argv)
        assert code == 1
        (check,) = report["checks"]
        assert not check["pass"] and re.fullmatch(r"nu_\d+ = \d+, exact \d+", check["witness"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["cyclotomic", "--l", "6", "--p", "1"],
            ["cyclotomic", "--l", "4", "--p", "-1"],
            ["omega", "--kind", "zeta2", "--params", "11,13,15,30,32", "--p", "1"],
            ["omega", "--kind", "zeta2", "--params", "11,13,15,30,32", "--p", "-1"],
        ],
        ids=["phi6-at-1", "phi4-at-minus-1", "omega-at-1", "omega-at-minus-1"],
    )
    def test_cyclotomic_values_at_plus_minus_one(self, capsys, argv):
        # the Moebius quotient is 0/0 there; the value is the polynomial's
        code, report = run_json(capsys, *argv)
        assert code == 0
        assert all(c["pass"] for c in report["checks"])

    def test_inclusion_single_form(self, capsys):
        code, report = run_json(
            capsys, "inclusion", "--kind", "zeta1", "--params", "3,3,3,6"
        )
        assert code == 0
        assert report["checks"][0]["pass"]
        assert report["checks"][0]["witness"] == "p^-M D clears A and B into Z[p]"

    @pytest.mark.parametrize("family, n_max", [("bv", 3), ("theorem1", 2), ("theorem2", 1)])
    def test_inclusion_on_stored_forms_makes_no_ord_at(
        self, capsys, tmp_path, monkeypatch, family, n_max
    ):
        # no stored Phi_l exponent exceeds D's, so the verdict is exponent arithmetic
        argv = ["inclusion", "--family", family, "--n-max", str(n_max)]
        argv += ["--cache-dir", str(tmp_path)]
        assert run_json(capsys, *argv)[0] == 0

        def refuse(self, l, cap=None):
            raise AssertionError(f"inclusion divided by Phi_{l}")

        monkeypatch.setattr(PPoly, "ord_at", refuse)
        code, report = run_json(capsys, *argv)
        assert code == 0
        assert len(report["checks"]) == n_max and all(c["pass"] for c in report["checks"])

    @pytest.mark.parametrize("family", ["theorem1", "theorem2", "bv"])
    def test_linform_reports_its_denominators(self, store, capsys, family):
        params = FAMILIES[family].params(2)
        argv = ["linform", "--kind", params.kind, "--params", ",".join(map(str, params))]
        code, report = run_json(capsys, *argv)
        assert code == 0
        out, form = report["outputs"], linform(store, params, certify_at=None)
        assert out["A_denominator"]["phi"] == {}  # A is in Z[p, 1/p] on the families
        for name, f in (("A", form.A), ("B", form.B)):
            want = {"p": str(f.dpow), "phi": {str(l): str(e) for l, e in f.dphi.items()}}
            assert out[f"{name}_denominator"] == want

    def test_dnp_certificate(self, capsys):
        code, report = run_json(capsys, "dnp", "--n", "10")
        assert code == 0
        assert {c["name"] for c in report["checks"]} == {
            "divisible-by-every-q-integer",
            "lcm-minimality",
        }

    def test_ord_sweep_requires_nothing_left_over(self, capsys, monkeypatch):
        # an extra factor Phi_1 = p - 1 leaves every Phi_l order for l >= 2 as it was
        real = parith.gauss_factorial
        monkeypatch.setattr(parith, "gauss_factorial", lambda n: real(n).mul_binomial(1))
        code, report = run_json(capsys, "ord", "--n", "12")
        assert code == 1
        assert [(c["name"], c["pass"]) for c in report["checks"]] == [
            ("division-count-sweep", False)
        ]

    def test_dnp_requires_phi_one_left_over(self, capsys, monkeypatch):
        # -D_n has each Phi_l once and D_n's degree, but leaves 1 - p, not p - 1
        real = FactoredPPoly.expand
        monkeypatch.setattr(FactoredPPoly, "expand", lambda self: -real(self))
        code, report = run_json(capsys, "dnp", "--n", "10")
        assert code == 1
        verdicts = {c["name"]: c["pass"] for c in report["checks"]}
        assert verdicts == {"divisible-by-every-q-integer": True, "lcm-minimality": False}

    @pytest.mark.parametrize("mutant", list(DNP_MUTANTS))
    def test_dnp_certificate_agrees_with_division(self, capsys, monkeypatch, mutant):
        # both verdicts against the division-based certificate, on D_n and its mutants
        real, mutate = FactoredPPoly.expand, DNP_MUTANTS[mutant]
        for n in range(1, 31):
            f = mutate(n, real(parith.dnp(n)))
            if f is None:
                continue
            monkeypatch.setattr(FactoredPPoly, "expand", lambda self, f=f: f)
            code, report = run_json(capsys, "dnp", "--n", str(n))
            verdicts = {c["name"]: c["pass"] for c in report["checks"]}
            assert verdicts == _dnp_verdicts_by_division(f, n), (mutant, n)
            assert verdicts["lcm-minimality"] is (mutant == "D_n"), (mutant, n)
            assert code == (0 if all(verdicts.values()) else 1)

    def test_ord_checks_its_input_before_building_the_factorial(self, capsys, monkeypatch):
        # [400]_p! took seconds to build before l = 1 was refused
        def refuse(n):
            raise AssertionError(f"built [{n}]_p! for an input ord refuses")

        monkeypatch.setattr(parith, "gauss_factorial", refuse)
        assert main(["ord", "--n", "400", "--l", "1"]) == 2
        assert capsys.readouterr().err == "qzeta: error: ord_phi_factorial needs l >= 2\n"
        assert main(["ord", "--n", "-1", "--l", "2"]) == 2
        assert capsys.readouterr().err == "qzeta: error: n must be nonnegative\n"

    def test_eq3_fraction_band(self, capsys):
        code, report = run_json(
            capsys, "eq3", "--n", "120", "--u", "1/3", "--v", "1/2"
        )
        assert code == 0
        assert report["outputs"]["band"] == "[1/3,1/2)"

    def test_eq3_band_below_the_trigamma_domain_is_input_error(self, capsys):
        # psi'(1/40) > 1600: its float carries no 1e-13, so trigamma refuses it
        assert main(["eq3", "--n", "40", "--u", "1/40", "--v", "1/2"]) == 2
        assert "trigamma certification exceeded 1e-13" in capsys.readouterr().err

    def test_jacobi(self, capsys):
        assert run_json(capsys, "jacobi", "--order", "80")[0] == 0

    def test_apery_with_doubled_limit_values_fails(self, capsys, monkeypatch):
        # the comparison with A_n is exact: twice the limit value fails at every n
        limit = measures._limit_value_at_one
        monkeypatch.setattr(measures, "_limit_value_at_one", lambda form: 2 * limit(form))
        code, report = run_json(capsys, "apery", "--n-max", "4")
        assert code == 1
        assert [c["pass"] for c in report["checks"]] == [False] * 5

    def test_apery_small(self, capsys):
        code, report = run_json(capsys, "apery", "--n-max", "1")
        assert code == 0
        assert report["outputs"]["apery_numbers"] == ["1", "3"]
