import json

import pytest

from chowforge.cli import main
from chowforge.grideal import Presentation, ideal_equal
from chowforge.polyparse import parse_ideal_file


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        code, _, err = run(capsys, "present", "--theorem", "thm1.2", "--g", "4")
        assert code == 2

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

    def test_jobs_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("CHOWFORGE_JOBS", "2")
        args = ("verify", "--suite", "identities", "--ab-max", "2")
        code, out, _ = run(capsys, *args)
        assert code == 0
        monkeypatch.delenv("CHOWFORGE_JOBS")
        _, out_serial, _ = run(capsys, *args)
        assert out == out_serial

        monkeypatch.setenv("CHOWFORGE_JOBS", "abc")
        code, out, err = run(capsys, *args)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "CHOWFORGE_JOBS" in err

    def test_pool_capped_at_task_count(self, capsys, monkeypatch):
        class FakePool:
            """Records the pool size and runs the tasks in this process."""

            sizes = []

            def __init__(self, max_workers):
                self.sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr("chowforge.cli.ProcessPoolExecutor", FakePool)
        args = ("verify", "--suite", "identities", "--ab-max", "1")
        code, out, _ = run(capsys, *args, "--jobs", "64")
        assert code == 0 and "4 checks, 0 failed" in out
        assert FakePool.sizes == [4]
        assert run(capsys, *args, "--jobs", "3")[1] == out
        assert FakePool.sizes == [4, 3]

    def test_malformed_flags_exit_2(self, capsys):
        assert run(capsys, "verify", "--suite", "bogus")[0] == 2
        assert run(capsys, "verify", "--g-max", "1")[0] == 2
        assert run(capsys, "verify", "--jobs", "0")[0] == 2

    def test_external_file_validation(self, capsys, tmp_path):
        good = tmp_path / "good.ideal"
        good.write_text("ring: t:1, c1:1, c2:2\n2*t\n4*c2 - c1^2\n")
        code, out, _ = run(capsys, "verify", "--external", str(good))
        assert code == 0
        assert "PASS external-roundtrip" in out
        assert "PASS external-proper" in out

        improper = tmp_path / "improper.ideal"
        improper.write_text("ring: t:1\n2*t\n3\n")
        code, out, _ = run(capsys, "verify", "--external", str(improper))
        assert code == 1
        assert "FAIL external-proper" in out

        broken = tmp_path / "broken.ideal"
        broken.write_text("ring: t:1\n2*\n")
        code, _, err = run(capsys, "verify", "--external", str(broken))
        assert code == 2
        assert err.startswith("error: %s: line 2" % broken)

        missing = str(tmp_path / "missing.ideal")
        assert run(capsys, "verify", "--external", missing)[0] == 2

        latin1 = tmp_path / "latin1.ideal"
        latin1.write_bytes(b"ring: t:1\n# caf\xe9\n2*t\n")
        code, out, err = run(capsys, "verify", "--external", str(latin1))
        assert code == 2 and out == ""
        assert err.startswith("error: %s: " % latin1)
