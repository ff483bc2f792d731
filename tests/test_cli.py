import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from chowforge.catalog import Params
from chowforge.cli import CheckReport, main
from chowforge.grideal import Presentation, ideal_equal
from chowforge.polyparse import parse_ideal_file
from test_grideal import clear_caches

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh(*argv, **kw):
    """A fresh interpreter run on this checkout's sources."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, **kw)


class TestPresent:
    def test_thm13_text(self, capsys):
        code, out, _ = run(
            capsys, "present", "--theorem", "thm1.3", "--g", "4", "--n", "2"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "ring: t:1, c1:1, c2:2"
        assert lines[1] == "6*t"
        assert len(lines) == 8  # header + 7 relations

    def test_thm19_guard_exit_2(self, capsys):
        code, _, err = run(
            capsys, "present", "--theorem", "thm1.9", "--g", "3", "--n", "2"
        )
        assert code == 2
        assert "odd" in err

    def test_cor110_contains_root_relation(self, capsys):
        code, out, _ = run(
            capsys, "present", "--theorem", "cor1.10", "--g", "4", "--n", "1"
        )
        assert code == 0
        # the relation 2u - t - c1 in canonical term order
        assert "-t + 2*u - c1" in out.splitlines()

    def test_thm12_takes_ab(self, capsys):
        code, out, _ = run(
            capsys, "present", "--theorem", "thm1.2", "--a", "1", "--b", "1"
        )
        assert code == 0
        assert out.splitlines()[0] == "ring: c1:1, c2:2, xi2a:1, xi2b:1"
        # a missing flag is reported before an extra one
        code, _, err = run(capsys, "present", "--theorem", "thm1.2", "--g", "4")
        assert code == 2 and err == "error: thm1.2 requires --a and --b\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("thm1.3", "--g", "4", "--n", "1", "--a", "7"), "thm1.3 does not take --a"),
            (("thm1.9", "--g", "3", "--n", "2", "--b", "1"), "thm1.9 does not take --b"),
            (
                ("cor1.10", "--g", "4", "--n", "1", "--a", "1", "--b", "2"),
                "cor1.10 does not take --a or --b",
            ),
            (("thm1.2", "--a", "1", "--b", "1", "--n", "0"), "thm1.2 does not take --n"),
        ],
    )
    def test_flags_a_theorem_does_not_take_exit_2(self, capsys, argv, message):
        # a value given is never silently ignored
        code, out, err = run(capsys, "present", "--theorem", *argv)
        assert (code, out, err) == (2, "", "error: %s\n" % message)

    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys,
            "present",
            "--theorem",
            "thm1.3",
            "--g",
            "2",
            "--n",
            "1",
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["theorem", "params", "ring", "relations"]
        assert doc["params"] == {"g": 2, "n": 1, "a": None, "b": None}
        assert doc["relations"][0] == "2*t"

    def test_determinism(self, capsys):
        args = ("present", "--theorem", "thm1.3", "--g", "6", "--n", "2")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_usage_error_exit_2(self, capsys):
        assert run(capsys, "present", "--theorem", "nope")[0] == 2
        assert run(capsys, "nonsense")[0] == 2


class TestDerive:
    def test_emit_steps(self, capsys):
        code, out, _ = run(
            capsys,
            "derive",
            "--pipeline",
            "rh-even",
            "--g",
            "2",
            "--n",
            "1",
            "--emit-steps",
        )
        assert code == 0
        assert "# step 3: torsor quotient by" in out
        assert "xi2a" in out  # intermediate rings shown
        assert out.splitlines()[-8] == "ring: t:1, c1:1, c2:2"

    def test_wrh_output_ideal_equal_to_catalog(self, capsys):
        from chowforge.catalog import thm_1_9_presentation

        code, out, _ = run(
            capsys, "derive", "--pipeline", "wrh-odd", "--g", "5", "--n", "1"
        )
        assert code == 0
        ring, rels = parse_ideal_file(out)
        assert ideal_equal(Presentation(ring, rels), thm_1_9_presentation(5, 1))

    def test_guard(self, capsys):
        code, _, err = run(
            capsys, "derive", "--pipeline", "rh-even", "--g", "3", "--n", "1"
        )
        assert code == 2
        assert "even" in err


class TestGraded:
    def test_2_1_table(self, capsys):
        code, out, _ = run(
            capsys,
            "graded",
            "--theorem",
            "thm1.3",
            "--g",
            "2",
            "--n",
            "1",
            "--deg-max",
            "1",
        )
        assert code == 0
        assert out.splitlines() == ["degree 0: Z", "degree 1: (Z/2)^2"]

    def test_crash_exit_3(self, capsys, monkeypatch):
        def boom(P, d):
            raise RuntimeError("boom")

        monkeypatch.setattr("chowforge.cli.quotient_graded_invariants", boom)
        code, out, err = run(
            capsys, "graded", "--theorem", "thm1.3", "--g", "2", "--n", "1", "--deg-max", "1"
        )
        assert code == 3 and out == ""
        assert err.startswith("Traceback") and err.endswith("RuntimeError: boom\n")

    def test_flags_a_theorem_does_not_take_exit_2(self, capsys):
        argv = ("--theorem", "thm1.2", "--a", "1", "--b", "1", "--g", "99", "--deg-max", "1")
        code, out, err = run(capsys, "graded", *argv)
        assert (code, out, err) == (2, "", "error: thm1.2 does not take --g\n")
        code, out, err = run(capsys, "graded", "--theorem", "thm1.3", "--g", "2", "--deg-max", "1")
        assert (code, out, err) == (2, "", "error: thm1.3 requires --g and --n\n")

    def test_deg_max_zero(self, capsys):
        code, out, _ = run(
            capsys,
            "graded",
            "--theorem",
            "thm1.3",
            "--g",
            "4",
            "--n",
            "1",
            "--deg-max",
            "0",
        )
        assert code == 0
        assert out == "degree 0: Z\n"

    def test_direct_vs_derived_tables_match(self, capsys):
        code, direct, _ = run(
            capsys,
            "graded",
            "--theorem",
            "thm1.3",
            "--g",
            "4",
            "--n",
            "2",
            "--deg-max",
            "4",
        )
        assert code == 0
        from chowforge.catalog import derive_thm_1_3
        from chowforge.grideal import quotient_graded_invariants

        derived = derive_thm_1_3(4, 2).presentation
        expected = "".join(
            "degree %d: %s\n" % (d, quotient_graded_invariants(derived, d))
            for d in range(5)
        )
        assert direct == expected

    @pytest.mark.parametrize("theorem, g, n", [("thm1.3", 8, 3), ("thm1.9", 21, 5)])
    def test_frozen_to_degree_30(self, capsys, theorem, g, n):
        # thm1.9 has no monic relation, so every piece is a Macaulay matrix
        # (1620x256 at degree 30); the tables are frozen from the dense kernel,
        # and degrees 0..30 are the first 31 lines of the degree-40 table
        code, out, _ = run(
            capsys, "graded", "--theorem", theorem, "--g", str(g), "--n", str(n), "--deg-max", "30"
        )
        assert code == 0
        frozen = (DATA / ("graded-%s-g%d-n%d-d40.txt" % (theorem, g, n))).read_text()
        assert out == "".join(frozen.splitlines(keepends=True)[:31])

    @pytest.mark.parametrize("theorem, deg_max", [("thm1.3", 40), ("cor1.10", 20)])
    def test_frozen_over_the_bundle(self, capsys, theorem, deg_max):
        # both have a monic relation, so every piece is small over its
        # bundle (237x41 for thm1.3 at degree 40); the tables are frozen
        # from the Macaulay matrices (2860x441 there)
        code, out, _ = run(
            capsys, "graded", "--theorem", theorem, "--g", "8", "--n", "3", "--deg-max", str(deg_max)
        )
        assert code == 0
        assert out == (DATA / ("graded-%s-g8-n3-d%d.txt" % (theorem, deg_max))).read_text()

    def test_frozen_thm12(self, capsys):
        # thm1.2 at (2, 3) has relations monic of k = 2 in two variables,
        # xi2a and xi2b, and the bundle takes the first; the table is frozen
        # from the dense oracle on the Macaulay matrices (about 13 s):
        #   PYTHONPATH=src:tests python -c 'from chowforge.catalog import
        #   thm_1_2_presentation as T; from macaulay import macaulay; from
        #   dense_snf import dense_snf; P = T(2, 3); [print("degree %d: %s" %
        #   (d, dense_snf(macaulay(P, d)).invariants)) for d in range(13)]'
        #   > tests/data/graded-thm1.2-a2-b3-d12.txt
        argv = ("--theorem", "thm1.2", "--a", "2", "--b", "3", "--deg-max", "12")
        code, out, _ = run(capsys, "graded", *argv)
        assert code == 0
        assert out == (DATA / "graded-thm1.2-a2-b3-d12.txt").read_text()


class TestIdealEq:
    def write(self, tmp_path, name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    def test_equal_with_sign_and_redundancy(self, capsys, tmp_path):
        a = self.write(tmp_path, "a.ideal", "ring: t:1\n2*t\n")
        b = self.write(tmp_path, "b.ideal", "ring: t:1\n-2*t\n4*t\n")
        code, out, _ = run(capsys, "ideal-eq", a, b)
        assert code == 0 and out == "equal\n"

    def test_not_equal_reports_witness(self, capsys, tmp_path):
        a = self.write(tmp_path, "a.ideal", "ring: t:1\nt\n")
        b = self.write(tmp_path, "b.ideal", "ring: t:1\n2*t\n")
        code, out, _ = run(capsys, "ideal-eq", a, b)
        assert code == 1
        assert out.startswith("not equal")
        assert "t" in out

    def test_crash_exit_3(self, capsys, tmp_path, monkeypatch):
        # exit 1 would read as "the ideals differ"
        def boom(P, Q):
            raise AssertionError("boom")

        monkeypatch.setattr("chowforge.cli.ideal_equal", boom)
        a = self.write(tmp_path, "a.ideal", "ring: t:1\n2*t\n")
        code, out, err = run(capsys, "ideal-eq", a, a)
        assert code == 3 and out == ""
        assert err.startswith("Traceback") and err.endswith("AssertionError: boom\n")

    def test_ring_mismatch_exit_2(self, capsys, tmp_path):
        a = self.write(tmp_path, "a.ideal", "ring: t:1\n2*t\n")
        b = self.write(tmp_path, "b.ideal", "ring: t:1, c1:1\n2*t\n")
        code, _, err = run(capsys, "ideal-eq", a, b)
        assert code == 2 and "ring headers differ" in err

    def test_parse_error_exit_2(self, capsys, tmp_path):
        a = self.write(tmp_path, "a.ideal", "ring: t:1\n2*\n")
        b = self.write(tmp_path, "b.ideal", "ring: t:1\n2*t\n")
        assert run(capsys, "ideal-eq", a, b)[0] == 2

        latin1 = tmp_path / "latin1.ideal"
        latin1.write_bytes(b"ring: t:1\n# caf\xe9\n2*t\n")
        code, out, err = run(capsys, "ideal-eq", b, str(latin1))
        assert code == 2 and out == ""
        assert err.startswith("error: %s: " % latin1)

    @pytest.mark.parametrize(
        "text",
        ["ring: t:1\nt*\u00b2\n", "ring: t:1\n\u0663*t\n", "ring: t:\u0663\n2*t\n"],
        ids=["superscript", "arabic-indic-literal", "arabic-indic-weight"],
    )
    def test_non_ascii_digit_exit_2(self, capsys, tmp_path, text):
        # a parse error, not a traceback or a silent reading as an ASCII digit
        a = self.write(tmp_path, "a.ideal", text)
        b = self.write(tmp_path, "b.ideal", "ring: t:1\n2*t\n")
        code, out, err = run(capsys, "ideal-eq", a, b)
        assert code == 2 and out == ""
        assert err.startswith("error: %s: line " % a)

    @pytest.mark.parametrize("relation", ["2*t + %s*t", "t + t^%s"], ids=["coefficient", "exponent"])
    def test_literal_beyond_the_int_string_limit_exit_2(self, capsys, tmp_path, relation):
        # more digits than Python's int() takes from a string: a usage error
        # that names the file, line and offset of the literal
        a = self.write(tmp_path, "a.ideal", "ring: t:1\n" + relation % ("9" * 5000) + "\n")
        b = self.write(tmp_path, "b.ideal", "ring: t:1\n2*t\n")
        code, out, err = run(capsys, "ideal-eq", b, a)
        assert code == 2 and out == ""
        assert err == "error: %s: line 2, offset 16: integer literal of 5000 digits is too long\n" % a

    def test_power_beyond_the_term_bound_exit_2(self, tmp_path):
        # a short relation whose expansion would run unbounded is a usage
        # error, reported at once by a fresh process
        a = self.write(tmp_path, "a.ideal", "ring: t:1, c1:1\n2*t\nt^2 - (t + c1)^9999\n")
        b = self.write(tmp_path, "b.ideal", "ring: t:1, c1:1\n2*t\n")
        done = fresh("-m", "chowforge.cli", "ideal-eq", b, a, timeout=10)
        assert done.returncode == 2 and done.stdout == ""
        offset = len("ring: t:1, c1:1\n2*t\nt^2 - ")
        assert done.stderr == (
            "error: %s: line 3, offset %d: power of a 2-term base would have more than 2000 terms\n"
            % (a, offset)
        )

    def test_power_coefficient_beyond_the_int_string_limit_exit_2(self, tmp_path):
        # 2^4000 to the 400 is refused at the power, before it is expanded
        a = self.write(tmp_path, "a.ideal", "ring: t:1, c1:1\n2*t\nt^2 - (2^4000*t + c1)^400*t\n")
        b = self.write(tmp_path, "b.ideal", "ring: t:1, c1:1\n2*t\n")
        done = fresh("-m", "chowforge.cli", "ideal-eq", b, a, timeout=10)
        assert done.returncode == 2 and done.stdout == ""
        offset = len("ring: t:1, c1:1\n2*t\nt^2 - ")
        assert done.stderr == (
            "error: %s: line 3, offset %d: power would have a coefficient of more than 4300 digits\n"
            % (a, offset)
        )

    def test_power_coefficient_off_the_lex_extremes_exit_2(self, tmp_path):
        # 2^4000*c1 is neither the lex-largest nor the lex-smallest term of
        # the base; expanding its 61st power took seconds before the bound
        a = self.write(tmp_path, "a.ideal", "ring: t:1, c1:1, c2:1\n2*t\n(t + 2^4000*c1 + c2)^61\n")
        b = self.write(tmp_path, "b.ideal", "ring: t:1, c1:1, c2:1\n2*t\n")
        done = fresh("-m", "chowforge.cli", "ideal-eq", b, a, timeout=10)
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr == (
            "error: %s: line 3, offset %d: power would have a coefficient of more than 4300 digits\n"
            % (a, len("ring: t:1, c1:1, c2:1\n2*t\n"))
        )

    def test_out_of_memory_exit_3(self, tmp_path):
        # t^100000000 against 3*t^100000000 asks for a piece of 10^8
        # columns; the child caps its own address space, so it runs out of
        # memory within seconds.  A MemoryError raised while the first one
        # is handled used to leave with exit 1, the code for "not equal"
        a = self.write(tmp_path, "a.ideal", "ring: t:1, c1:1\nt^100000000\n2*t\n")
        b = self.write(tmp_path, "b.ideal", "ring: t:1, c1:1\n3*t^100000000\n2*t\n")
        child = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (800 << 20, 800 << 20))\n"
            "from chowforge.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        done = fresh("-c", child, "ideal-eq", a, b, timeout=60)
        assert done.returncode == 3 and done.stdout == ""
        assert done.stderr == "error: out of memory\n"

    @pytest.mark.parametrize(
        "a, b, code, expected",
        [
            ("ring: t:1\n1\n", "ring: t:1\nt^2\n1\n", 0, "equal"),
            (
                "ring: t:1, c1:1\nt^2 - c1*t\n2*t\n",
                "ring: t:1, c1:1\nt^2 - c1*t\n4*t\n",
                1,
                "not equal: generator 2*t of the left ideal is not in the other",
            ),
            ("ring: c1:1, c2:2\nc2 - c1^2\n2*c1\n", "ring: c1:1, c2:2\nc2 - 3*c1^2\n2*c1\n2*c2\n", 0, "equal"),
            (
                "ring: c1:1, c2:2\nc2 - c1^2\n2*c1\n",
                "ring: c1:1, c2:2\nc2\n2*c1\n",
                1,
                "not equal: generator -c1^2 + c2 of the left ideal is not in the other",
            ),
        ],
    )
    def test_monic_relation_edges(self, capsys, tmp_path, a, b, code, expected):
        fa = self.write(tmp_path, "a.ideal", a)
        fb = self.write(tmp_path, "b.ideal", b)
        assert run(capsys, "ideal-eq", fa, fb)[:2] == (code, expected + "\n")

    def test_present_vs_derive_golden(self, capsys, tmp_path):
        _, present_out, _ = run(
            capsys, "present", "--theorem", "thm1.3", "--g", "4", "--n", "2"
        )
        _, derive_out, _ = run(
            capsys, "derive", "--pipeline", "rh-even", "--g", "4", "--n", "2"
        )
        a = self.write(tmp_path, "direct.ideal", present_out)
        b = self.write(tmp_path, "derived.ideal", derive_out)
        code, out, _ = run(capsys, "ideal-eq", a, b)
        assert code == 0 and out == "equal\n"


class TestVerify:
    def test_identities_pass(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "identities", "--ab-max", "3"
        )
        assert code == 0
        assert "0 failed" in out
        assert "PASS tau-pullback-square" in out
        assert "PASS chern-twist-conditional" in out

    def test_derivations_pass_small(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "derivations", "--g-max", "6"
        )
        assert code == 0 and "0 failed" in out

    def test_lemma34_pass_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "lemma34", "--ab-max", "3")
        assert code == 0 and "0 failed" in out

    def test_remark37_known_red(self, capsys):
        # ledgered paper defect: the non-redundancy claim fails honestly
        code, out, _ = run(capsys, "verify", "--suite", "remark37", "--ab-max", "2")
        assert code == 1
        assert "PASS remark37-reduction [a=1, b=1]" in out
        assert "FAIL remark37-nonredundant [a=1, b=1]" in out
        assert "first failure: FAIL remark37-nonredundant" in out

    def test_crashed_check_is_an_error(self, capsys, monkeypatch):
        def boom(a, b):
            raise RuntimeError("boom")

        monkeypatch.setattr("chowforge.catalog.lemma_3_4_check", boom)
        code, out, _ = run(capsys, "verify", "--suite", "lemma34", "--ab-max", "1")
        assert code == 1
        assert out.splitlines() == [
            "ERROR lemma34-superfluous [a=1, b=1]: error: boom",
            "1 checks, 1 failed",
            "first failure: ERROR lemma34-superfluous [a=1, b=1]: error: boom",
        ]
        code, out, _ = run(
            capsys, "verify", "--suite", "lemma34", "--ab-max", "1", "--format", "json"
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["verdict"] == "error" and doc["witness"] == "error: boom"
        assert '"verdict":"error"' in out

    def test_text_line_formats_the_parameters(self):
        report = CheckReport(
            "remark37-nonredundant", Params(a=1, b=1), "fail", "M2*(1) unexpectedly redundant"
        )
        assert report.text_line() == (
            "FAIL remark37-nonredundant [a=1, b=1]: M2*(1) unexpectedly redundant"
        )
        assert CheckReport("tau-pullback-square", Params(), "pass", None).text_line() == (
            "PASS tau-pullback-square"
        )

    def test_ndjson_schema_and_order(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "--suite",
            "derivations",
            "--g-max",
            "4",
            "--format",
            "json",
        )
        assert code == 0
        lines = out.strip().splitlines()
        docs = [json.loads(l) for l in lines]
        for doc in docs:
            assert list(doc) == ["check_id", "params", "verdict", "witness", "elapsed_ms"]
            assert list(doc["params"]) == ["g", "n", "a", "b"]
            assert doc["elapsed_ms"] == 0
        keys = [(d["check_id"], d["params"]["g"], d["params"]["n"]) for d in docs]
        assert keys == sorted(keys)

    def test_byte_determinism_and_jobs(self, capsys):
        args = (
            "verify", "--suite", "derivations", "--g-max", "4", "--format", "json",
        )
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
        _, out3, _ = run(capsys, *args, "--jobs", "2")
        assert out3 == out1

    def test_jobs_has_no_environment_default(self, capsys, monkeypatch):
        # --jobs is the one setting of the worker count
        args = ("verify", "--suite", "identities", "--ab-max", "2")
        serial = run(capsys, *args)
        assert serial[0] == 0
        monkeypatch.setenv("CHOWFORGE_JOBS", "abc")
        assert run(capsys, *args) == serial

    def test_shares_capped_at_grid_points(self, capsys, monkeypatch):
        from chowforge import cli

        shares, forked = [], []  # the share lengths of each run; each forked share's length
        run_shares, fork = cli._run_shares, cli._fork

        def recording(cut):
            shares.append([len(share) for share in cut])
            return run_shares(cut)

        def forking(share):
            forked.append(len(share))
            return fork(share)

        monkeypatch.setattr(cli, "_run_shares", recording)
        monkeypatch.setattr(cli, "_fork", forking)
        # 4 checks on 2 grid points, (a, b) = (1, 1) and the one without
        # parameters; the checks of a grid point run in one share
        args = ("verify", "--suite", "identities", "--ab-max", "1")
        code, out, _ = run(capsys, *args, "--jobs", "64")
        assert code == 0 and "4 checks, 0 failed" in out
        assert shares == [[1, 1]] and forked == [1]
        assert run(capsys, *args, "--jobs", "3")[1] == out
        assert shares == [[1, 1]] * 2 and forked == [1, 1]
        # 5 grid points on 2 workers: one contiguous share of 3, run here,
        # and one of 2, forked
        args = ("verify", "--suite", "identities", "--ab-max", "2")
        assert run(capsys, *args, "--jobs", "2")[0] == 0
        assert shares[-1] == [3, 2] and forked[-1] == 2
        # one worker forks nothing
        forked.clear()
        assert run(capsys, *args, "--jobs", "1")[0] == 0
        assert shares[-1] == [5] and forked == []

    def test_jobs_change_no_byte(self, capsys):
        args = ("verify", "--suite", "all", "--g-max", "6", "--ab-max", "2")
        # 38 reports, then in text the summary and the first failure
        for fmt, lines in (("json", 38), ("text", 40)):
            serial = run(capsys, *args, "--format", fmt, "--jobs", "1")
            assert serial[0] == 1 and serial[1].count("\n") == lines
            for jobs in ("2", "3", "4"):
                assert run(capsys, *args, "--format", fmt, "--jobs", jobs) == serial

    def test_each_derivation_built_once(self, capsys, monkeypatch):
        from chowforge import catalog

        derived = []
        original = catalog.adjoin_generator

        def counting(P, *rest):
            derived.append(P)
            return original(P, *rest)

        catalog._derive.cache_clear()
        monkeypatch.setattr(catalog, "adjoin_generator", counting)
        code, out, _ = run(capsys, "verify", "--suite", "derivations", "--g-max", "8", "--jobs", "1")
        pairs = len(catalog.valid_rh_even_pairs(8)) + len(catalog.valid_wrh_odd_pairs(8))
        assert code == 0 and "%d checks, 0 failed" % (2 * pairs) in out
        # one product presentation per (pipeline, g, n), each derived once
        assert len(derived) == len(set(derived)) == pairs

    def test_remark37_pieces_built_once(self, capsys, monkeypatch):
        from chowforge import grideal

        built = []
        original = grideal._lattice

        def counting(B, d):
            built.append(d)
            return original(B, d)

        clear_caches()  # the catalog's kept presentations, with their bundles
        monkeypatch.setattr(grideal, "_lattice", counting)
        code, out, _ = run(capsys, "verify", "--suite", "remark37", "--ab-max", "3", "--jobs", "1")
        assert code == 1 and "18 checks, 9 failed" in out
        # both checks of an (a, b) ask about its degree-2 piece
        assert built == [2] * 9

    def test_each_membership_piece_built_once(self, capsys, monkeypatch):
        from collections import Counter

        from chowforge import grideal

        owners = {}  # bundle -> presentation; holding each bundle keeps its id
        asked = set()  # the (presentation, degree) pairs that reach a piece
        built = []  # the pair of each piece built for membership
        inside = []  # the pair whose piece is being asked for
        bundle, piece, lattice = grideal._bundle, grideal._Bundle.piece, grideal._lattice

        def owned(P):
            B = bundle(P)
            owners[B] = P
            return B

        def asking(B, d):
            inside.append((owners[B], d))
            asked.add(inside[-1])
            try:
                return piece(B, d)
            finally:
                inside.pop()

        def counting(B, d):
            if inside:  # ideal_degree_matrix builds its pieces outside `piece`
                built.append(inside[-1])
            return lattice(B, d)

        clear_caches()  # the catalog's kept presentations, with their bundles
        monkeypatch.setattr(grideal, "_bundle", owned)
        monkeypatch.setattr(grideal._Bundle, "piece", asking)
        monkeypatch.setattr(grideal, "_lattice", counting)
        code, out, _ = run(
            capsys, "verify", "--suite", "all", "--g-max", "6", "--ab-max", "3", "--jobs", "1"
        )
        assert code == 1 and "\n63 checks, 9 failed\n" in out
        assert asked and Counter(built) == Counter(asked)

    def test_each_point_builds_its_classes_once(self, capsys):
        from chowforge import catalog

        kept = (
            catalog.classes_FG,
            catalog.classes_M,
            catalog._six_generator_ideal,
            catalog.thm_1_2_presentation,
            catalog.thm_1_3_presentation,
            catalog.thm_1_9_presentation,
            catalog._derive,
        )
        for fn in kept:
            fn.cache_clear()
        code, out, _ = run(
            capsys, "verify", "--suite", "all", "--g-max", "6", "--ab-max", "3", "--jobs", "1"
        )
        assert code == 1 and "63 checks, 9 failed" in out
        # each miss of a kept function runs its body once
        built = {fn.__name__: fn.cache_info().misses for fn in kept}
        rh = len(catalog.valid_rh_even_pairs(6))
        wrh = len(catalog.valid_wrh_odd_pairs(6))
        assert built == {
            "classes_FG": 9,
            "classes_M": 9,
            "_six_generator_ideal": 9,
            # the nine (a, b), then one product presentation per derivation
            "thm_1_2_presentation": 9 + rh + wrh,
            "thm_1_3_presentation": rh,
            "thm_1_9_presentation": wrh,
            "_derive": rh + wrh,
        }

    def test_malformed_flags_exit_2(self, capsys):
        assert run(capsys, "verify", "--suite", "bogus")[0] == 2
        assert run(capsys, "verify", "--g-max", "1")[0] == 2
        assert run(capsys, "verify", "--jobs", "0")[0] == 2

    @pytest.mark.parametrize("relation", ["2*t + %s*t", "t + t^%s"], ids=["coefficient", "exponent"])
    def test_external_literal_beyond_the_int_string_limit_exit_2(self, capsys, tmp_path, relation):
        long = tmp_path / "long.ideal"
        long.write_text("ring: t:1\n" + relation % ("9" * 5000) + "\n")
        code, out, err = run(capsys, "verify", "--external", str(long))
        assert code == 2 and out == ""
        assert err == "error: %s: line 2, offset 16: integer literal of 5000 digits is too long\n" % long

    @pytest.mark.parametrize(
        "relation", ["2^20000*t", "(2*t)^9999999999", "2^9999999999"], ids=["printed", "term", "integer"]
    )
    def test_external_coefficient_beyond_the_int_string_limit_exit_2(self, tmp_path, relation):
        # a coefficient of more digits than Python prints (2^20000 has 6021)
        # is a usage error at the power, not a traceback from printing the
        # relation; one that would take gigabytes is refused before it is
        # expanded, so a fresh process exits at once
        big = tmp_path / "big.ideal"
        big.write_text("ring: t:1\n%s\n" % relation)
        done = fresh("-m", "chowforge.cli", "verify", "--external", str(big), timeout=10)
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr == (
            "error: %s: line 2, offset 10: power would have a coefficient of more than 4300 digits\n"
            % big
        )

    def test_external_monic_power_of_large_degree(self, tmp_path):
        # t^100000000 is monic with k = 10^8, and only the shifts that the
        # degree-0 piece needs are divided: a fresh process answers at once
        big = tmp_path / "big.ideal"
        big.write_text("ring: t:1, c1:1\nt^100000000\n2*t\n")
        done = fresh("-m", "chowforge.cli", "verify", "--external", str(big), timeout=10)
        assert done.returncode == 0 and done.stderr == ""
        assert done.stdout.splitlines()[:2] == ["PASS external-roundtrip", "PASS external-proper"]

    def test_external_file_validation(self, capsys, tmp_path):
        good = tmp_path / "good.ideal"
        good.write_text("ring: t:1, c1:1, c2:2\n2*t\n4*c2 - c1^2\n")
        code, out, _ = run(capsys, "verify", "--external", str(good))
        assert code == 0
        assert "PASS external-roundtrip" in out
        assert "PASS external-proper" in out

        # the witness formats the invariants of the degree-0 piece
        for relations, piece in (("2*t\n3", "Z/3"), ("1", "0")):
            improper = tmp_path / "improper.ideal"
            improper.write_text("ring: t:1\n%s\n" % relations)
            code, out, _ = run(capsys, "verify", "--external", str(improper))
            assert code == 1
            witness = "FAIL external-proper: degree-0 piece is %s, not Z" % piece
            assert out.splitlines()[1] == witness

        broken = tmp_path / "broken.ideal"
        broken.write_text("ring: t:1\n2*\n")
        code, _, err = run(capsys, "verify", "--external", str(broken))
        assert code == 2
        assert err.startswith("error: %s: line 2" % broken)

        for text in ("ring: t:1\nt^\u00b2\n", "ring: t:1\n\u0663*t\n", "ring: t:\u0663\n2*t\n"):
            odd = tmp_path / "digits.ideal"
            odd.write_text(text, encoding="utf-8")
            code, out, err = run(capsys, "verify", "--external", str(odd))
            assert code == 2 and out == ""
            assert err.startswith("error: %s: line " % odd)

        missing = str(tmp_path / "missing.ideal")
        assert run(capsys, "verify", "--external", missing)[0] == 2

        latin1 = tmp_path / "latin1.ideal"
        latin1.write_bytes(b"ring: t:1\n# caf\xe9\n2*t\n")
        code, out, err = run(capsys, "verify", "--external", str(latin1))
        assert code == 2 and out == ""
        assert err.startswith("error: %s: " % latin1)


class TestWorkers:
    """`verify --jobs` forks one child per share after the first.  Each case
    runs in a fresh interpreter under a timeout, with coeff-identity-fg
    replaced by `check`; at --ab-max 2 the first share holds (a, b) = (1, 1),
    (1, 2) and (2, 1), and the forked one (2, 2) and the point without
    parameters."""

    SCRIPT = (
        "import os, signal, sys, time\n"
        "from chowforge import cli\n"
        "parent = os.getpid()\n"
        "def check(p):\n"
        "    here = 'parent' if os.getpid() == parent else 'child'\n"
        "%s\n"
        "    return True, None\n"
        "cli._CHECKS['coeff-identity-fg'] = ('identities', 'ab', check)\n"
        "argv = ['verify', '--suite', 'identities', '--ab-max', '2', '--jobs', '2']\n"
    )

    def verify(self, body, tail="sys.exit(cli.main(argv))\n"):
        return fresh("-c", self.SCRIPT % body + tail, timeout=60)

    def test_killed_child_exits_3(self):
        done = self.verify("    if here == 'child': os.kill(os.getpid(), signal.SIGKILL)")
        assert done.returncode == 3
        assert "died of signal %d" % signal.SIGKILL in done.stderr
        assert "checks," not in done.stdout

    def test_interrupt_in_parent_leaves_no_child(self):
        # the child sleeps, so it is still running when the parent's share
        # is interrupted
        tail = (
            "try:\n"
            "    cli.main(argv)\n"
            "except KeyboardInterrupt:\n"
            "    pass\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "except ChildProcessError:\n"
            "    print('no child')\n"
        )
        body = (
            "    if here == 'parent': raise KeyboardInterrupt\n"
            "    time.sleep(30)"
        )
        done = self.verify(body, tail)
        assert done.stdout == "no child\n"

    def test_exception_is_an_error_verdict_in_either_process(self):
        done = self.verify("    raise ValueError('boom in ' + here)")
        assert done.returncode == 1
        lines = done.stdout.splitlines()
        assert "ERROR coeff-identity-fg [a=1, b=1]: error: boom in parent" in lines
        assert "ERROR coeff-identity-fg [a=2, b=2]: error: boom in child" in lines
        assert "10 checks, 4 failed" in lines


# modules that only some commands use; importing the package or the CLI
# must not load them, since every command pays for what the import loads
ON_DEMAND = ("concurrent.futures", "multiprocessing", "dataclasses", "inspect", "logging")


@pytest.mark.parametrize("module", ["chowforge", "chowforge.cli"])
def test_import_loads_no_on_demand_module(module):
    """A fresh interpreter imports the module; the modules it loaded on
    top of the interpreter's own start-up must not include ON_DEMAND."""
    code = (
        "import sys; before = set(sys.modules); import %s; "
        "print(sorted(set(%r) & (set(sys.modules) - before)))" % (module, ON_DEMAND)
    )
    out = fresh("-c", code, check=True).stdout
    assert out == "[]\n"


def test_verify_jobs_loads_no_pool():
    """`verify --jobs 2` forks its children without concurrent.futures or
    multiprocessing."""
    code = (
        "import sys; from chowforge.cli import main; "
        "main(['verify', '--suite', 'identities', '--ab-max', '2', '--jobs', '2']); "
        "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
    )
    out = fresh("-c", code, check=True, timeout=60).stdout
    assert out.endswith("10 checks, 0 failed\n[]\n")
