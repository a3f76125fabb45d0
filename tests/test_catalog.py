import json

import pytest

from starnambu import PhaseExpr, UsageError
from starnambu.catalog import (catalog, check_metric_identities,
                               check_so3_closure, check_quantum_correction,
                               run_suite, select_entries)
from starnambu.cli import main
from starnambu.models import get_model, sphere_geometry


EXPECTED_IDS = [
    "S2-01", "S2-02", "S2-03", "S2-04", "S2-05", "S2-06", "S2-07",
    "SN-01", "SN-02", "SN-03", "SN-04", "SN-05", "SN-06", "SN-07", "SN-08",
    "CH-01", "CH-02", "CH-03", "CH-04", "CH-05", "CH-06",
    "NB-01", "NB-02", "NB-03", "NB-04", "NB-05", "NB-06", "NB-07",
    "QN-01", "QN-02", "QN-03", "QN-04", "QN-05", "QN-06", "QN-07", "QN-08",
    "QN-09", "QN-10", "QN-11", "QN-12", "QN-13",
    "OS-01", "OS-02", "OS-03", "OS-04",
    "ST-01", "ST-02",
]


class TestCatalogStructure:
    def test_ids_complete_and_unique(self):
        ids = [e.id for e in catalog()]
        assert ids == EXPECTED_IDS
        assert len(set(ids)) == len(ids)

    def test_required_anchors(self):
        by_id = {e.id: e for e in catalog()}
        assert "expose a quantum correction to" in by_id["S2-03"].paper_ref
        assert by_id["S2-03"].paper_ref.startswith("§2")
        assert "reductio ad dimidium" in by_id["OS-02"].paper_ref
        assert by_id["OS-02"].paper_ref.startswith("Appendix")

    def test_entries_constructible_without_running(self):
        for entry in catalog():
            assert entry.description
            assert callable(entry.runner)

    def test_qn07_detail_states_adopted_definition(self):
        by_id = {e.id: e for e in catalog()}
        assert "isospin" in by_id["QN-07"].params


class TestRunner:
    def test_id_glob(self):
        report = run_suite(id_glob="S2-0[13]")
        assert [r.id for r in report.results] == ["S2-01", "S2-03"]
        assert report.all_pass

    def test_suite_selection(self):
        entries = select_entries(suite="nb")
        assert all(e.suite == "nb" for e in entries)
        with pytest.raises(UsageError):
            select_entries(suite="bogus")
        with pytest.raises(UsageError):
            select_entries(id_glob="NOPE-*")

    def test_report_schema(self):
        report = run_suite(id_glob="S2-03")
        data = json.loads(report.to_json())
        assert set(data) == {"suite", "seed", "results", "summary"}
        assert set(data["summary"]) == {"pass", "fail", "error"}
        row = data["results"][0]
        assert set(row) == {"id", "paper_ref", "status", "detail", "elapsed_ms"}
        assert row["status"] == "pass"
        assert isinstance(row["elapsed_ms"], int)

    def test_determinism_modulo_timing(self):
        a = run_suite(id_glob="NB-0[136]", seed=7).to_dict()
        b = run_suite(id_glob="NB-0[136]", seed=7).to_dict()
        for row in a["results"] + b["results"]:
            row["elapsed_ms"] = 0
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_jobs_stable_order(self):
        seq = run_suite(id_glob="S2-*", seed=3, jobs=1)
        par = run_suite(id_glob="S2-*", seed=3, jobs=4)
        assert [r.id for r in seq.results] == [r.id for r in par.results]
        assert [r.status for r in seq.results] == [r.status for r in par.results]
        assert [r.detail for r in seq.results] == [r.detail for r in par.results]

    def test_jobs_stable_on_operator_entries(self):
        """The exact-matrix entries on the runner's threads give the same
        status and detail per id as run one after another."""
        for glob in ("OS-*", "QN-1[01]"):
            seq = run_suite(id_glob=glob, seed=0, jobs=1)
            par = run_suite(id_glob=glob, seed=0, jobs=2)
            assert [(r.id, r.status, r.detail) for r in seq.results] == \
                [(r.id, r.status, r.detail) for r in par.results]
            assert all(r.status == "pass" for r in seq.results), glob


class TestNegativeControls:
    """Deliberately perturbed fixtures must fail with printable witnesses."""

    def test_flipped_charge_breaks_closure(self):
        m = get_model("sphere:2")
        out = check_so3_closure(-m.charge("Lx"), m.charge("Ly"), m.charge("Lz"))
        assert out.status == "fail"
        assert out.witness not in ("", "0")

    def test_wrong_correction_constant(self):
        m = get_model("sphere:2")
        one = PhaseExpr.one(2)
        x, y = PhaseExpr.coord(2, 0), PhaseExpr.coord(2, 1)
        r = one - x * x - y * y
        from fractions import Fraction
        wrong = (one / r - one.scale_fraction(2)) \
            .times_hbar(2).scale_fraction(Fraction(1, 8))
        out = check_quantum_correction(m, wrong)
        assert out.status == "fail"
        assert out.witness not in ("", "0")

    def test_tampered_frame_breaks_metric(self):
        from dataclasses import replace
        g = sphere_geometry(2, "-")
        rows = [list(row) for row in g.vielbein_lower]
        rows[0][1] = rows[0][1] + PhaseExpr.coord(2, 0)
        tampered = replace(g, vielbein_lower=tuple(tuple(r) for r in rows))
        out = check_metric_identities(tampered, 2)
        assert out.status == "fail"
        assert out.witness not in ("", "0")


class TestCli:
    def test_check_single_entry_exit_zero(self, capsys):
        assert main(["check", "--id", "S2-03"]) == 0
        out = capsys.readouterr().out
        assert "S2-03" in out and "pass" in out

    def test_check_json(self, capsys):
        assert main(["check", "--id", "S2-05", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["summary"]["pass"] == 1

    def test_eval_conserved(self, capsys):
        assert main(["eval", "--model", "sphere:2", "mb(Lx,Hqm)"]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_eval_json(self, capsys):
        assert main(["eval", "--model", "sphere:2", "--format", "json",
                     "mb(Lx,Ly) - Lz"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["result"] == "0"
        assert data["model"] == "sphere:2:+"

    def test_eval_syntax_error_exit_two(self, capsys):
        assert main(["eval", "--model", "sphere:2", "pb(Lx,"]) == 2
        err = capsys.readouterr().err
        assert "syntax error" in err

    def test_eval_unknown_model_exit_two(self, capsys):
        assert main(["eval", "--model", "torus:2", "x1"]) == 2

    def test_eval_extra_model_name_field_exit_two(self, capsys):
        # sphere:2:-:junk used to run as sphere:2:- and print s*p2
        assert main(["eval", "--model", "sphere:2:-:junk", "Lx"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sphere models are named" in captured.err

    def test_eval_unknown_name_exit_two(self, capsys):
        assert main(["eval", "--model", "sphere:2", "mb(Lx, Zz)"]) == 2

    def test_eval_long_sum_does_not_recurse(self, capsys):
        text = " + ".join(["x1"] * 1000)
        assert main(["eval", "--model", "sphere:2", text]) == 0
        assert capsys.readouterr().out.strip() == "1000*x1"

    def test_models_listing(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "sphere:2" in out and "chiral-s3" in out and "gnomonic-s3" in out

    def test_bad_usage(self, capsys):
        assert main(["check", "--suite", "nonsense"]) == 2
        assert main(["frobnicate"]) == 2

    def test_check_exit_one_on_failure(self, monkeypatch, capsys):
        import starnambu.catalog as cat
        bad = cat.IdentityCheck(
            "ZZ-99", "star", "forced failure for exit-code coverage", "none",
            lambda ctx: cat.CheckOutcome("fail", "forced", "1"))
        monkeypatch.setattr(cat, "_CATALOG", cat._CATALOG + [bad])
        assert main(["check", "--id", "ZZ-99"]) == 1
        out = capsys.readouterr().out
        assert "fail" in out and "forced" in out
