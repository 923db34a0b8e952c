import ast
import contextlib
import decimal
import importlib
import inspect
import io
import json
import math
import os
import pkgutil
import re
import resource
import subprocess
import sys
import types
from pathlib import Path

import pytest

import arcperp
from arcperp import arcgen, hankel, linalg, perp, reports, ring
from arcperp.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGens:
    def test_listing(self, capsys):
        code, out, _ = run(capsys, "gens", "--n", "1", "--max-order", "2")
        assert code == 0
        assert out.splitlines() == [
            "x1_0^2",
            "2*x1_0*x1_1",
            "2*x1_0*x1_2 + x1_1^2",
        ]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "gens", "--n", "2", "--max-order", "0", "--json")
        assert code == 0
        assert json.loads(out) == ["x1_0^2", "x1_0*x2_0", "x2_0^2"]

    def test_negative_max_order_rejected(self, capsys):
        code, out, err = run(capsys, "gens", "--n", "1", "--max-order", "-1", "--json")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("n,order", [(1, 446), (1, 6000), (40, 100), (447, 0)])
    def test_too_many_products_refused_before_any(self, capsys, monkeypatch, n, order):
        monkeypatch.setattr(ring.Monomial, "of", lambda *a: pytest.fail("a product was built"))
        code, out, err = run(capsys, "gens", "--n", str(n), "--max-order", str(order))
        assert (code, out) == (2, "")
        assert err == (
            f"error: arc generators of n={n} up to t^{order} exceed the limit of "
            f"{arcgen.PRODUCT_LIMIT:,} products per listing\n"
        )


class TestPair:
    def test_pairing_result(self, capsys):
        code, out, _ = run(
            capsys, "pair", "2*x1_0*x1_2 + x1_1^2", "x1_0*x1_2 - x1_1^2"
        )
        assert code == 0
        assert out.strip() == "0"

    def test_syntax_error_exit_code(self, capsys):
        code, _, err = run(capsys, "pair", "x1_0 +", "x1_0")
        assert code == 2
        assert "position" in err

    @pytest.mark.parametrize(
        "f_text, p_text, line",
        [
            ("x1_0", "1/x1_0", "error: expected num, found 'x1_0' (at position 2)"),
            ("x1_0 x1_1", "x1_0", "error: expected '+' or '-', found 'x1_1' (at position 5)"),
        ],
    )
    def test_syntax_error_line(self, capsys, f_text, p_text, line):
        assert run(capsys, "pair", f_text, p_text) == (2, "", line + "\n")

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="this interpreter converts integers of any length")
    def test_number_beyond_the_integer_string_limit(self, capsys):
        digits = "9" * (sys.get_int_max_str_digits() + 1)
        code, out, err = run(capsys, "pair", "x1_0", "x1_0 + 1/" + digits)
        assert (code, out) == (2, "")
        assert err.startswith("error: Exceeds the limit") and err.endswith("(at position 9)\n")

    @pytest.mark.parametrize("as_json", [False, True])
    def test_coefficient_beyond_the_integer_string_limit(self, capsys, as_json):
        # x^1700 paired with itself is 1700!, 4,756 digits: past Python's
        # default limit of 4,300 for converting an int to text.
        flag = ["--json"] if as_json else []
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, err = run(capsys, "pair", *flag, "x1_0^1700", "x1_0^1700")
        assert (code, err) == (0, "")
        text = json.loads(out) if as_json else out.rstrip("\n")
        assert len(text) == 4756 and text.isdigit()
        assert decimal.Decimal(text) == math.factorial(1700)
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    def test_fraction_beyond_the_integer_string_limit(self, capsys):
        sevens = "7" * 2000
        code, out, _ = run(capsys, "pair", "x1_0", f"1/{sevens}*1/{sevens}*1/{sevens}*x1_0")
        assert code == 0
        numerator, denominator = out.rstrip("\n").split("/")
        assert numerator == "1"
        assert decimal.Decimal(denominator) == int(sevens) ** 3


class TestPerp:
    def test_worked_example(self, capsys):
        code, out, _ = run(
            capsys, "perp", "--n", "1", "--degree", "2", "--order", "2", "--json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["dimension"] == 1
        assert data["basis"] == ["x1_0*x1_2 - x1_1^2"]

    def test_plain_output(self, capsys):
        code, out, _ = run(capsys, "perp", "--n", "1", "--degree", "1", "--order", "2")
        assert code == 0
        assert out.splitlines()[0] == "dimension 3"

    def test_oversized_kernel_refused(self, capsys):
        # 2,035,800 monomials; the walk stops at the first past the limit.
        code, out, err = run(capsys, "perp", "--n", "3", "--degree", "7", "--order", "7")
        assert (code, out) == (2, "")
        assert err == (
            f"error: over {perp.MONOMIAL_LIMIT:,} monomials of degree 7, orders <= 7 and "
            f"weight <= 49 exceed the limit of {perp.MONOMIAL_LIMIT:,} monomials per enumeration\n"
        )

    @pytest.mark.parametrize("n, order", [(1, 1000), (3, 400)])
    def test_more_variables_than_the_recursion_limit(self, capsys, n, order):
        # 1,001 and 1,203 variables: the walk recurses once per entered
        # variable, at most degree deep, not once per variable.
        code, out, err = run(capsys, "perp", "--n", str(n), "--degree", "1", "--order", str(order))
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == f"dimension {n * (order + 1)}"

    def test_decoding_is_not_quadratic_in_the_variables(self):
        # 10,001 variables: decoding a key costs a bisection per nonzero
        # digit, not a division per variable, so the basis prints in seconds.
        env = dict(os.environ, PYTHONPATH=str(Path(arcperp.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "arcperp.cli", "perp", "--n", "1", "--degree", "1",
             "--order", "10000"],
            env=env, capture_output=True, text=True, timeout=20,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        lines = proc.stdout.splitlines()
        assert lines == ["dimension 10001"] + [f"x1_{j}" for j in range(10001)]

    def test_too_many_variables_refused_up_front(self, capsys, monkeypatch):
        # Each x1_j with j <= 200,000 is a monomial of the enumeration, so
        # the count is refused before any variable is listed.
        def unlisted(n, max_order):
            raise AssertionError("variables listed")

        monkeypatch.setattr(perp, "differential_variables", unlisted)
        code, out, err = run(capsys, "perp", "--n", "1", "--degree", "1", "--order", "200000")
        assert (code, out) == (2, "")
        assert err == (
            f"error: over {perp.MONOMIAL_LIMIT:,} monomials of degree 1, orders <= 200000 and "
            f"weight <= 200000 exceed the limit of {perp.MONOMIAL_LIMIT:,} monomials per"
            " enumeration\n"
        )

    def test_too_wide_keys_refused_before_the_kernel(self, capsys, monkeypatch):
        # 40,001 variables in base 2: every key would be 40,002 bits wide.
        def unsolved(index, block):
            raise AssertionError("kernel reached")

        monkeypatch.setattr(perp, "_weight_block_kernel", unsolved)
        code, out, err = run(capsys, "perp", "--n", "1", "--degree", "1", "--order", "40000")
        assert (code, out) == (2, "")
        assert err == (
            "error: monomial keys of 40,002 bits over 40,001 variables exceed the limit of"
            f" {linalg.KEY_BIT_LIMIT:,} bits per key\n"
        )


class TestMinors:
    def test_triangular_json(self, capsys):
        code, out, _ = run(
            capsys, "minors", "--family", "T", "--n", "1", "--h", "1", "--json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["total_dimension"] == 4
        assert data["span_dimensions_by_degree"] == {"0": 1, "1": 2, "2": 1}
        values = [m["value"] for m in data["minors"]]
        assert "x1_1^2" in values

    def test_hankel_needs_k(self, capsys):
        code, _, err = run(capsys, "minors", "--family", "H", "--n", "1", "--h", "2")
        assert code == 2
        assert "k" in err

    @pytest.mark.parametrize("family", ["T", "S", "S1"])
    def test_k_rejected_outside_hankel(self, capsys, family):
        code, out, err = run(
            capsys, "minors", "--family", family, "--n", "1", "--h", "1", "--k", "1"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_too_wide_keys_refused_before_any_determinant(self, capsys, monkeypatch):
        # One row of 40,001 variables: 40,002 minors, each key 40,002 bits wide.
        def unexpanded(self, rows, cols):
            raise AssertionError("determinant expanded")

        monkeypatch.setattr(hankel.PackedMatrix, "det", unexpanded)
        code, out, err = run(
            capsys, "minors", "--family", "H", "--n", "1", "--h", "1", "--k", "40000"
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: monomial keys of 40,002 bits over 40,001 variables exceed the limit of"
            f" {linalg.KEY_BIT_LIMIT:,} bits per key\n"
        )

    def test_negative_max_size_rejected(self, capsys):
        code, out, err = run(
            capsys, "minors", "--family", "T", "--n", "1", "--h", "1", "--max-size", "-1"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "golden,argv",
        [
            ("minors_T_n1_h3.json", ["--family", "T", "--n", "1", "--h", "3"]),
            ("minors_S_n2_h1.json", ["--family", "S", "--n", "2", "--h", "1"]),
            ("minors_S1_n2_h2.json", ["--family", "S1", "--n", "2", "--h", "2"]),
            ("minors_H_n2_h2_k1.json", ["--family", "H", "--n", "2", "--h", "2", "--k", "1"]),
            # Entries down to x/3!: row scales 6, 2, 1 and 1.
            ("minors_S_n1_h3.json", ["--family", "S", "--n", "1", "--h", "3"]),
        ],
    )
    def test_json_matches_golden(self, capsys, golden, argv):
        # The files pin value formatting, enumeration order and zero minors.
        code, out, _ = run(capsys, "minors", *argv, "--json")
        assert code == 0
        assert out == (Path(__file__).parent / "data" / golden).read_text(encoding="utf-8")

    def test_max_size_past_the_shape_lists_every_minor(self, capsys, monkeypatch):
        # No minor is larger than the shape allows, so a huge --max-size is
        # the default, and no size past the shape is ever listed.
        listing = hankel.iter_minors

        def bounded(m, sizes):
            if len(sizes) > min(m.rows, m.cols) + 1:
                raise AssertionError("sizes past the shape")
            return listing(m, sizes)

        monkeypatch.setattr(hankel, "iter_minors", bounded)
        argv = ["minors", "--family", "T", "--n", "1", "--h", "1", "--json"]
        assert run(capsys, *argv, "--max-size", "1000000000") == run(capsys, *argv)

    def test_max_size(self, capsys):
        code, out, _ = run(
            capsys,
            "minors", "--family", "T", "--n", "1", "--h", "1",
            "--max-size", "1", "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert all(m["size"] <= 1 for m in data["minors"])


def _limit(count: str, shape: str) -> str:
    return (f"error: {count} minors of a {shape} matrix exceed the limit of"
            f" {hankel.MINOR_LIMIT:,} minors per enumeration\n")


class TestRefusedBeforeAnyMatrix:
    """Each command counts its minors from the shape, and refuses an
    over-limit enumeration before it builds a matrix; a count of 10^4300 or
    more, too long to write out, is named by that bound."""

    @pytest.mark.parametrize(
        "argv,count,shape",
        [
            (["minors", "--family", "T", "--n", "1", "--h", "1000"],
             f"{math.comb(2002, 1001):,}", "1001x1001"),
            (["minors", "--family", "T", "--n", "1", "--h", "100000"],
             "at least 10^4300", "100001x100001"),
            (["verify", "--n", "1", "--h", "100000"], "at least 10^4300", "100001x200002"),
            (["dims-chain", "--n", "1", "--h", "100000"], "at least 10^4300", "100001x100001"),
            # T(1, 16) has 2^17 top-row minors, admitted; S1(1, 16) C(34, 17)
            (["dims-chain", "--n", "1", "--h", "16"], f"{math.comb(34, 17):,}", "17x34"),
            # T(1, 0..16) are admitted; T(1, 17) has 2^18 top-row minors
            (["series", "--n", "1", "--h-max", "100"], "262,144", "18x18"),
        ],
        ids=["minors-h1000", "minors-h100000", "verify-h100000", "dims-chain-h100000",
             "dims-chain-h16", "series-h100"],
    )
    def test_refused_with_no_matrix_built(self, capsys, monkeypatch, argv, count, shape):
        def unbuilt(rows):
            raise AssertionError("a matrix was built")

        monkeypatch.setattr(hankel.SymbolicMatrix, "from_rows", unbuilt)
        assert run(capsys, *argv) == (2, "", _limit(count, shape))

    def test_deep_series_counted_before_the_first_triangle(self, capsys, monkeypatch):
        # At (1, 2) the deep series reaches T(1, 4), 2^5 top-row minors; no
        # earlier span of the battery has more than 21.
        def unbuilt(n, h):
            raise AssertionError("a triangular matrix was built")

        monkeypatch.setattr(hankel, "MINOR_LIMIT", 31)
        monkeypatch.setattr(hankel, "triangular_matrix", unbuilt)
        argv = ["verify", "--deep", "--no-timings", "--n", "1", "--h", "2"]
        assert run(capsys, *argv) == (2, "", _limit("32", "5x5"))


class TestReportGoldens:
    @pytest.mark.parametrize(
        "golden,argv",
        [
            ("verify_n1_h2.json", ["verify", "--n", "1", "--h", "2", "--no-timings"]),
            ("verify_n2_h2.json", ["verify", "--n", "2", "--h", "2", "--no-timings"]),
            ("dims_chain_n2_h3.json", ["dims-chain", "--n", "2", "--h", "3"]),
            # h = 3 is the cheapest run whose restriction is trimmed below h.
            ("verify_n1_h3.json", ["verify", "--n", "1", "--h", "3", "--no-timings"]),
            # --deep runs the series past h.
            (
                "verify_deep_n1_h2.json",
                ["verify", "--deep", "--n", "1", "--h", "2", "--no-timings"],
            ),
            ("series_n2_h3.json", ["series", "--n", "2", "--h-max", "3"]),
            # Top-row minor spans at larger sizes: recorded from full enumeration.
            ("dims_chain_n3_h3.json", ["dims-chain", "--n", "3", "--h", "3"]),
            ("series_n1_h8.json", ["series", "--n", "1", "--h-max", "8"]),
            # n = 3 tabulates cross-family second partials; h = 3 reaches
            # order 3 in the homogeneity check.
            ("verify_n3_h2.json", ["verify", "--n", "3", "--h", "2", "--no-timings"]),
            ("verify_n2_h3.json", ["verify", "--n", "2", "--h", "3", "--no-timings"]),
            # The target instance: recorded from the order-bound intersection
            # of all Wronskians.
            ("verify_n3_h3.json", ["verify", "--n", "3", "--h", "3", "--no-timings"]),
            # The pointwise certificate's largest sweep: 129 kernel basis
            # elements of degree <= 4 and orders <= 5.
            (
                "verify_deep_n2_h3.json",
                ["verify", "--deep", "--n", "2", "--h", "3", "--no-timings"],
            ),
        ],
    )
    def test_json_matches_golden(self, capsys, golden, argv):
        # The files pin every check's name, instance, dimensions and order.
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        assert out == (Path(__file__).parent / "data" / golden).read_text(encoding="utf-8")


_PAIR_F = "x1_0 + 1/2*x1_1"
_PAIR_P = "xi2*x1_0^2 + al1_1*x1_0^2 - 2/3*E1*y_1*x1_0*x1_1 + xi1^2*al2_1*E2*x1_1"


class TestTermOrderGoldens:
    @pytest.mark.parametrize(
        "golden,argv",
        [
            # The image mixes all five variable kinds, so its term order pins
            # the monomial order across kinds, families and degrees.
            ("pair_mixed.txt", ["pair", _PAIR_F, _PAIR_P]),
            ("pair_mixed.json", ["pair", "--json", _PAIR_F, _PAIR_P]),
            ("perp_n2_d3_o3.json", ["perp", "--json", "--n", "2", "--degree", "3", "--order", "3"]),
            ("gens_n2_m3.json", ["gens", "--json", "--n", "2", "--max-order", "3"]),
            ("perp_n3_d3_o3.json", ["perp", "--json", "--n", "3", "--degree", "3", "--order", "3"]),
        ],
    )
    def test_output_matches_golden(self, capsys, golden, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == (Path(__file__).parent / "data" / golden).read_text(encoding="utf-8")


class TestSeries:
    def test_matching_series(self, capsys):
        code, out, _ = run(capsys, "series", "--n", "1", "--h-max", "2", "--json")
        assert code == 0
        rows = json.loads(out)
        assert [r["dimension"] for r in rows] == [2, 4, 8]
        assert all(r["match"] for r in rows)

    def test_negative_h_max_rejected(self, capsys):
        code, out, err = run(capsys, "series", "--n", "1", "--h-max", "-1", "--json")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


class TestVerify:
    def test_passes_with_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "1", "--h", "1", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True

    def test_reports_are_byte_identical_without_timings(self, capsys):
        _, first, _ = run(
            capsys, "verify", "--n", "1", "--h", "1", "--json", "--no-timings"
        )
        _, second, _ = run(
            capsys, "verify", "--n", "1", "--h", "1", "--json", "--no-timings"
        )
        assert first == second

    def test_human_readable_listing(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "1", "--h", "0")
        assert code == 0
        assert "all checks passed" in out
        assert "[pass]" in out

    def test_seed_reaches_the_report(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "1", "--h", "0", "--json", "--seed", "5")
        assert code == 0
        assert json.loads(out)["parameters"]["seed"] == 5

    def test_oversized_instance_refused_before_any_check(self):
        # The child gets a 1 GiB address space, so a run that enumerated the
        # C(100, 10) maximal minors of S(10, 9) would fail, not exhaust memory.
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        env = dict(os.environ, PYTHONPATH=str(Path(arcperp.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "arcperp.cli", "verify", "--n", "9", "--h", "9"],
            env=env, capture_output=True, text=True, timeout=30, preexec_fn=limit_memory,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            "error: 17,310,309,456,440 minors of a 10x100 matrix exceed the limit of "
            f"{hankel.MINOR_LIMIT:,} minors per enumeration\n"
        )

    @pytest.mark.parametrize(
        "n,h,deep,order", [(447, 0, False, 0), (115, 1, False, 4), (183, 0, True, 2)]
    )
    def test_too_many_generator_products_refused_at_annihilation(
        self, capsys, monkeypatch, n, h, deep, order
    ):
        # The annihilation check lists the generators first, before any minor.
        monkeypatch.setattr(ring.Monomial, "of", lambda *a: pytest.fail("a product was built"))
        argv = ["verify", "--n", str(n), "--h", str(h)] + (["--deep"] if deep else [])
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (
            f"error: arc generators of n={n} up to t^{order} exceed the limit of "
            f"{arcgen.PRODUCT_LIMIT:,} products per listing\n"
        )

    @pytest.mark.parametrize(
        "n,h,count,shape",
        [(36, 1, "210,043", "3x108"), (85, 1, "2,763,776", "3x255"), (8, 2, "760,099", "5x40"),
         (17, 2, "866,848", "4x68"), (7, 3, "384,168", "5x35")],
    )
    def test_deep_series_refused_before_any_check(self, capsys, monkeypatch, n, h, count, shape):
        # The deep series passes h, so a triangular span can be over the limit
        # where S(n+1, h) is not; it is counted before the generators (n = 85)
        # or the kernel side (the others) refuse.
        monkeypatch.setattr(ring.Monomial, "of", lambda *a: pytest.fail("a product was built"))
        code, out, err = run(capsys, "verify", "--deep", "--n", str(n), "--h", str(h))
        assert (code, out) == (2, "")
        assert err == (
            f"error: {count} minors of a {shape} matrix exceed the limit of "
            f"{hankel.MINOR_LIMIT:,} minors per enumeration\n"
        )

    @pytest.mark.parametrize("n,h", [(1, -1), (0, 1)])
    def test_invalid_instance_rejected(self, capsys, n, h):
        code, out, err = run(capsys, "verify", "--n", str(n), "--h", str(h))
        assert code == 2
        assert out == ""
        assert err == f"error: run_verification needs n >= 1, h >= 0 (got n={n}, h={h})\n"


class TestDimsChain:
    def test_agreement(self, capsys):
        code, out, _ = run(capsys, "dims-chain", "--n", "1", "--h", "1", "--json")
        assert code == 0
        data = json.loads(out)
        assert data == {
            "triangular": 4,
            "scaled": 4,
            "scaled_augmented": 4,
            "equal": True,
            "bijection_lands_in_scaled": True,
        }


class TestGlobalFlags:
    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "gens.txt"
        code, out, _ = run(
            capsys, "gens", "--n", "1", "--max-order", "0", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert target.read_text() == "x1_0^2\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["series", "--n", "1", "--h-max", "1"],
            ["dims-chain", "--n", "1", "--h", "1"],
            ["gens", "--n", "1", "--max-order", "1"],
        ],
    )
    def test_seed_only_on_verify(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["series", "--n", "1", "--h-max", "3"],
            ["verify", "--json", "--no-timings", "--n", "1", "--h", "1"],
        ],
    )
    def test_closed_stdout_exits_1_in_silence(self, argv):
        # The read end is closed before the child starts, so its first write
        # to stdout fails with EPIPE.
        read, write = os.pipe()
        os.close(read)
        env = dict(os.environ, PYTHONPATH=str(Path(arcperp.__file__).resolve().parents[1]))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "arcperp.cli", *argv],
                env=env, stdout=write, stderr=subprocess.PIPE, text=True, timeout=60,
            )
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, "")

    @pytest.mark.parametrize("target", ["missing/gens.txt", "."])
    def test_unwritable_out_is_invalid_input(self, capsys, tmp_path, target):
        # A path in a missing directory, and a path that is a directory.
        path = tmp_path / target
        code, out, err = run(capsys, "gens", "--n", "1", "--max-order", "1", "--out", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {path}: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "missing").exists()

    def test_unwritable_out_fails_before_the_work(self, capsys, monkeypatch, tmp_path):
        # The verify command reads reports.run_verification when it runs, so
        # the stub stands in for the work it would start.
        calls = []
        monkeypatch.setattr(reports, "run_verification", lambda *a, **k: calls.append(a))
        path = tmp_path / "missing" / "x"
        code, out, err = run(capsys, "verify", "--n", "3", "--h", "3", "--out", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {path}: ")
        assert calls == []

    def test_out_probe_keeps_an_existing_file(self, capsys, tmp_path):
        # The path is probed in append mode, so a command that then rejects
        # its input leaves the file as it was.
        target = tmp_path / "kept.txt"
        target.write_text("before\n")
        code, _, err = run(capsys, "gens", "--n", "0", "--max-order", "1", "--out", str(target))
        assert code == 2
        assert err.startswith("error: ")
        assert target.read_text() == "before\n"

    @pytest.mark.parametrize(
        "argv",
        [["gens", "--n", "0", "--max-order", "1"], ["pair", "x1_", "x1_0"]],
    )
    def test_invalid_input_leaves_no_new_out_file(self, capsys, tmp_path, argv):
        # The probe creates a missing --out file; invalid input removes it again.
        target = tmp_path / "new.txt"
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
        assert not target.exists()

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


# Functions and methods that no subcommand calls: the dense matrix class,
# whose members the benchmark's tracer names.  The text forms ``__repr__`` and
# ``__str__`` are for a reader of values, not a command, and are not counted.
NEVER_CALLED_BY_A_COMMAND = {
    "linalg.RationalMatrix.__eq__",
    "linalg.RationalMatrix.__init__",
    "linalg.RationalMatrix._dense",
    "linalg.RationalMatrix._sparse_rows",
    "linalg.RationalMatrix.identity",
    "linalg.RationalMatrix.kernel_basis",
    "linalg.RationalMatrix.multiply_vector",
    "linalg.RationalMatrix.rank",
    "linalg.RationalMatrix.row_reduce",
    "linalg.RationalMatrix.zero",
}
TEXT_FORMS = {"__repr__", "__str__"}


def _package_code() -> dict:
    """Code object -> name of every function and method whose code lives in
    the package: the module functions, private and cached ones included;
    every method, classmethod, staticmethod, property and operator of the
    classes a module defines; and the functions defined inside any of them.
    Lambdas and comprehensions are not counted."""
    found = {}

    def add(fn, name, path):
        code = getattr(inspect.unwrap(fn), "__code__", None)
        if code is None or code.co_filename != path or code in found:
            return
        found[code] = name
        nested = [c for c in code.co_consts if isinstance(c, types.CodeType)]
        while nested:
            inner = nested.pop()
            if not inner.co_name.startswith("<") and inner.co_flags & inspect.CO_NEWLOCALS:
                found[inner] = f"{name}.{inner.co_name}"
            nested += [c for c in inner.co_consts if isinstance(c, types.CodeType)]

    for info in pkgutil.iter_modules(arcperp.__path__):
        module = importlib.import_module(f"arcperp.{info.name}")
        for attr, value in vars(module).items():
            if inspect.isclass(value) and value.__module__ == module.__name__:
                for name, raw in vars(value).items():
                    raw = raw.fget if isinstance(raw, property) else getattr(raw, "__func__", raw)
                    if name not in TEXT_FORMS and callable(raw):
                        add(raw, f"{info.name}.{attr}.{name}", module.__file__)
            elif callable(value):
                add(value, f"{info.name}.{attr}", module.__file__)
    return found


class TestReachability:
    def test_every_function_and_operator_is_reached_by_a_command(self, tmp_path):
        runs = [
            ["gens", "--n", "2", "--max-order", "2"],
            ["gens", "--json", "--n", "1", "--max-order", "1", "--out", str(tmp_path / "g")],
            ["pair", "x1_0^2 + y_0*E1", "x1_0^3*y_1 + xi1*al1_1"],
            ["pair", "--json", "x1_0", "1/2*x1_0"],
            ["pair", "x1_0^1000", "x1_0^1000"],  # 1000! is printed by binary splitting
            ["perp", "--n", "2", "--degree", "2", "--order", "1"],
            ["perp", "--json", "--n", "1", "--degree", "2", "--order", "2"],
            ["minors", "--family", "H", "--n", "1", "--h", "2", "--k", "1"],
            ["minors", "--json", "--family", "S1", "--n", "1", "--h", "1", "--max-size", "1"],
            ["series", "--n", "1", "--h-max", "2"],
            ["series", "--json", "--n", "1", "--h-max", "1"],
            ["verify", "--n", "1", "--h", "1"],
            ["verify", "--json", "--no-timings", "--deep", "--n", "1", "--h", "1"],
            ["dims-chain", "--n", "1", "--h", "1"],
            ["dims-chain", "--json", "--n", "1", "--h", "1"],
            # the error paths
            ["gens", "--n", "0", "--max-order", "1"],
            ["pair", "x1_", "x1_0"],
            ["minors", "--family", "T", "--n", "1", "--h", "1", "--k", "1"],
            ["series", "--n", "1", "--h-max", "-1"],
            ["gens", "--n", "1", "--max-order", "0", "--out", str(tmp_path)],
        ]
        called = set()
        for info in pkgutil.iter_modules(arcperp.__path__):
            # a cached function runs only on a miss, so each starts empty
            for value in vars(importlib.import_module(f"arcperp.{info.name}")).values():
                getattr(value, "cache_clear", lambda: None)()

        def profile(frame, event, arg):
            if event == "call":
                called.add(frame.f_code)

        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                sys.setprofile(profile)
                try:
                    main(argv)
                finally:
                    sys.setprofile(None)
        names = _package_code()
        # operators, private and cached functions, and nested ones are counted
        assert {
            "ring.Polynomial.__add__", "ring.Monomial.__hash__", "ring._decimal.split",
            "pairing._scaling_rule", "reports.run_verification.check_chain",
        } <= set(names.values())
        never = {name for code, name in names.items() if code not in called}
        assert never == NEVER_CALLED_BY_A_COMMAND


# Modules that only the kernel side and the verification driver need.
NOT_ON_THE_MINOR_SIDE = {
    "arcperp.reports", "arcperp.perp", "arcperp.pairing", "arcperp.arcgen", "random",
}


def _fresh_run(*args):
    """Exit code, stdout and the set of modules a fresh interpreter imported
    running ``args``.  ``-S`` leaves out the site hooks, so sys.modules starts
    clean and every module listed by ``-X importtime`` was loaded by the run."""
    env = dict(os.environ, PYTHONPATH=str(Path(arcperp.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    loaded = set(re.findall(r"^import time:\s+\d+ \|\s+\d+ \| +(\S+)$", proc.stderr, re.M))
    return proc.returncode, proc.stdout, loaded


class TestEntryPointImports:
    """What each command loads through the real ``python -m arcperp.cli``."""

    def test_importing_the_cli_loads_no_other_module(self):
        code, _, loaded = _fresh_run("-c", "import arcperp.cli")
        assert code == 0
        assert {m for m in loaded if m.startswith("arcperp")} == {"arcperp", "arcperp.cli"}

    @pytest.mark.parametrize(
        "argv", [["series", "--n", "1", "--h-max", "2"], ["dims-chain", "--n", "1", "--h", "1"]]
    )
    def test_minor_side_commands_never_load_the_kernel_side(self, argv):
        code, out, loaded = _fresh_run("-m", "arcperp.cli", *argv, "--json")
        assert code == 0
        assert json.loads(out)
        # The series and the chain, with its map of the triangular basis into
        # the scaled spans, read the minor side alone.
        modules = {"arcperp", "arcperp.hankel", "arcperp.linalg", "arcperp.ring"}
        assert {m for m in loaded if m.startswith("arcperp")} == modules
        assert loaded & NOT_ON_THE_MINOR_SIDE == set()

    def test_verify_loads_every_module(self):
        code, out, loaded = _fresh_run(
            "-m", "arcperp.cli", "verify", "--n", "1", "--h", "1", "--json", "--no-timings"
        )
        assert code == 0
        assert json.loads(out)["passed"] is True
        assert NOT_ON_THE_MINOR_SIDE <= loaded


# The package modules each module may import.  The kernel side (``perp``) and
# the minor side (``hankel``) share the linear-algebra core only, so that one
# bug cannot hide on both; ``reports`` and ``cli`` may import any module.
IMPORT_GRAPH = {
    "__init__": set(),
    "ring": set(),
    "linalg": {"ring"},
    "pairing": {"ring"},
    "arcgen": {"ring"},
    "hankel": {"linalg", "ring"},
    "perp": {"linalg", "ring"},
}


def _package_imports(path, modules):
    """The package modules that the source at ``path`` imports, at any depth:
    ``from .m import f`` and ``from . import m`` name m, and ``from . import
    f`` of a name that is not a module names ``__init__``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(a.name if a.name in modules else "__init__" for a in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
            assert not any(name.split(".")[0] == "arcperp" for name in names), path
    return found


class TestImportGraph:
    def test_each_side_imports_only_the_core(self):
        package = Path(arcperp.__file__).parent
        modules = {path.stem for path in package.glob("*.py")}
        graph = {m: _package_imports(package / f"{m}.py", modules) for m in modules}
        assert graph == {**IMPORT_GRAPH, "reports": graph["reports"], "cli": graph["cli"]}
