import json
import os
import subprocess
import sys
import threading

import pytest

import starnambu
from starnambu import DomainError, PhaseExpr, UsageError
from starnambu.catalog import (SUITES, CheckOutcome, IdentityCheck,
                               RunContext, _verdict, catalog, run_entry,
                               run_suite, select_entries)
from starnambu.cli import main
from starnambu.models import get_model, sphere_geometry, vielbein_current
from starnambu.operators import ExactMatrix, number_matrix


@pytest.fixture
def entry_threads(monkeypatch):
    """Thread ids on which ``catalog.run_entry`` ran, in call order."""
    import starnambu.catalog as cat
    seen = []
    original = cat.run_entry

    def recording(entry, ctx):
        seen.append(threading.get_ident())
        return original(entry, ctx)

    monkeypatch.setattr(cat, "run_entry", recording)
    return seen


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

    def test_suites_in_catalog_order(self):
        assert SUITES == ("s2", "sn", "chiral", "nb", "qnb", "oscillator",
                          "star")

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
        """A second run in the same process, with the models' half tables
        and plan caches warm, gives the same rows in the same order."""
        first = run_suite(id_glob="S2-*", seed=3, jobs=1)
        second = run_suite(id_glob="S2-*", seed=3, jobs=4)
        assert [r.id for r in first.results] == [r.id for r in second.results]
        assert [r.status for r in first.results] == \
            [r.status for r in second.results]
        assert [r.detail for r in first.results] == \
            [r.detail for r in second.results]

    def test_jobs_run_on_calling_thread(self, entry_threads):
        report = run_suite(id_glob="S2-0[1-4]", seed=0, jobs=2)
        assert len(report.results) == 4
        assert entry_threads == [threading.get_ident()] * 4

    def test_jobs_stable_on_operator_entries(self):
        """The exact-matrix entries give the same status and detail per id
        when run a second time in the same process, with the models' half
        tables and plan caches warm."""
        for glob in ("OS-*", "QN-1[01]"):
            first = run_suite(id_glob=glob, seed=0, jobs=1)
            second = run_suite(id_glob=glob, seed=0, jobs=2)
            assert [(r.id, r.status, r.detail) for r in first.results] == \
                [(r.id, r.status, r.detail) for r in second.results]
            assert all(r.status == "pass" for r in first.results), glob


class TestVerdict:
    """The one rule that decides every catalog entry from its claims."""

    def test_pass_gives_count_or_detail(self):
        claims = [("phase", PhaseExpr.one(2), PhaseExpr.one(2)),
                  ("matrix", ExactMatrix.identity(2), ExactMatrix.identity(2)),
                  ("plain", 2, 2)]
        assert _verdict(iter(claims)) == \
            CheckOutcome("pass", "3 equalities hold exactly")
        assert _verdict(iter(claims), "all three hold") == \
            CheckOutcome("pass", "all three hold")

    @pytest.mark.parametrize("got, want, witness", [
        (PhaseExpr.coord(2, 0) + PhaseExpr.one(2), PhaseExpr.one(2), "x1"),
        (ExactMatrix.identity(2), ExactMatrix.zeros(2),
         "ExactMatrix(2, [0,0]=1, [1,1]=1)"),
        (True, False, "True, not False"),
    ])
    def test_first_mismatch_fails_with_witness(self, got, want, witness):
        claims = [("holds", 1, 1), ("breaks", got, want), ("also breaks", 1, 2)]
        assert _verdict(iter(claims), "unused") == \
            CheckOutcome("fail", "mismatch: breaks", witness)

    def test_long_witness_is_cut(self):
        out = _verdict(iter([("long", "x" * 1000, "")]))
        assert out.status == "fail"
        assert len(out.witness) == 403
        assert out.witness == (repr("x" * 1000) + ", not ''")[:400] + "..."

    def test_claims_after_the_mismatch_are_not_computed(self):
        def claims(ctx):
            yield "holds", 1, 1
            yield "breaks", 1, 2
            raise DomainError("computed past the first mismatch")

        entry = IdentityCheck("ZZ-98", "star", "stops at its mismatch", "none",
                              lambda ctx: _verdict(claims(ctx)))
        row = run_entry(entry, RunContext())
        assert (row.status, row.detail) == \
            ("fail", "mismatch: breaks | witness: 1, not 2")


class TestNegativeControls:
    """Deliberately perturbed fixtures must fail with printable witnesses."""

    def test_flipped_charge_breaks_closure(self, monkeypatch):
        from dataclasses import replace
        import starnambu.catalog as cat

        def flipped(name):
            m = get_model(name)
            if name != "sphere:2:-":
                return m
            return replace(m, charges={**m.charges, "Lx": -m.charge("Lx")})

        monkeypatch.setattr(cat, "get_model", flipped)
        row = run_suite(id_glob="S2-01").results[0]
        assert row.status == "fail"
        got, witness = row.detail.split(" | witness: ")
        assert got == "mismatch: hemisphere -: pb(Lx,Ly)"
        assert witness not in ("", "0")

    def test_wrong_correction_constant(self, monkeypatch):
        # 1/(1 - x^2 - y^2) - 2 in place of - 3
        from fractions import Fraction
        import starnambu.catalog as cat
        original = cat._sphere_correction

        def wrong(n):
            return original(n) + PhaseExpr.one(n).times_hbar(2) \
                .scale_fraction(Fraction(1, 8))

        monkeypatch.setattr(cat, "_sphere_correction", wrong)
        row = run_suite(id_glob="S2-03").results[0]
        assert row.status == "fail"
        got, witness = row.detail.split(" | witness: ")
        assert got == "mismatch: Hqm - H matches the stated correction"
        assert witness not in ("", "0")

    def test_tampered_frame_breaks_metric(self, monkeypatch):
        from dataclasses import replace
        import starnambu.catalog as cat

        def tampered(n, sign):
            g = sphere_geometry(n, sign)
            if (n, sign) != (2, "-"):
                return g
            rows = [list(row) for row in g.vielbein_lower]
            rows[0][1] = rows[0][1] + PhaseExpr.coord(2, 0)
            return replace(g, vielbein_lower=tuple(tuple(r) for r in rows))

        monkeypatch.setattr(cat, "sphere_geometry", tampered)
        row = run_suite(id_glob="SN-03").results[0]
        assert row.status == "fail"
        got, witness = row.detail.split(" | witness: ")
        assert got == "mismatch: N=2 sign -: g_11 from frame"
        assert witness not in ("", "0")

    def test_flipped_charge_fails_registered_entry(self, monkeypatch):
        from dataclasses import replace
        import starnambu.catalog as cat

        def flipped(name):
            m = get_model(name)
            if name != "sphere:2:+":
                return m
            return replace(m, charges={**m.charges, "Lx": -m.charge("Lx")})

        monkeypatch.setattr(cat, "get_model", flipped)
        row = run_suite(id_glob="S2-01").results[0]
        assert row.status == "fail"
        label, witness = row.detail.split(" | witness: ")
        assert label == "mismatch: hemisphere +: pb(Lx,Ly)"
        assert witness not in ("", "0")

    @pytest.mark.parametrize("entry_id, model, tamper, label", [
        ("SN-01", "sphere:3", lambda c: {"P1": -c["P1"]}, "N=3: pb(P1,P2)"),
        ("CH-01", "chiral-s3", lambda c: {"R1": c["Lch1"], "Lch1": c["R1"]},
         "pb(R1,R2)"),
    ], ids=["SN-01", "CH-01"])
    def test_tampered_charge_fails_closure_entry(self, monkeypatch, entry_id,
                                                 model, tamper, label):
        from dataclasses import replace
        import starnambu.catalog as cat

        def tampered(name):
            m = get_model(name)
            if name != model:
                return m
            return replace(m, charges={**m.charges, **tamper(m.charges)})

        monkeypatch.setattr(cat, "get_model", tampered)
        row = run_suite(id_glob=entry_id).results[0]
        assert row.status == "fail"
        got, witness = row.detail.split(" | witness: ")
        assert got == f"mismatch: {label}"
        assert witness not in ("", "0")

    def test_doubled_current_fails_ch06(self, monkeypatch):
        import starnambu.catalog as cat

        def doubled(model, j):
            cur = vielbein_current(model, j)
            return cur.scale_fraction(2) if j == 0 else cur

        monkeypatch.setattr(cat, "vielbein_current", doubled)
        row = run_suite(id_glob="CH-06").results[0]
        assert row.status == "fail"
        got, witness = row.detail.split(" | witness: ")
        assert got == "mismatch: pb(V1,V2)"
        assert witness not in ("", "0")

    def test_scaled_number_matrix_fails_os01(self, monkeypatch):
        import starnambu.catalog as cat

        def scaled(stack, i, j):
            m = number_matrix(stack, i, j)
            return m.scale_fraction(2) if (stack.n, i, j) == (2, 1, 1) else m

        monkeypatch.setattr(cat, "number_matrix", scaled)
        row = run_suite(id_glob="OS-01").results[0]
        assert row.status == "fail"
        got, witness = row.detail.split(" | witness: ")
        assert got == "mismatch: u(2) on the total=1 sector: comm(N11,N12)"
        assert witness not in ("", "0")

    def test_scaled_total_number_fails_os02(self, monkeypatch):
        # Ntot enters only the two halved forms, so every probe whose
        # bracket is nonzero now differs from them; the witness is the
        # matrix difference
        import starnambu.operators as ops
        original = ops.total_number_matrix
        monkeypatch.setattr(ops, "total_number_matrix",
                            lambda stack: original(stack).scale_fraction(2))
        row = run_suite(id_glob="OS-02").results[0]
        assert row.status == "fail"
        got, witness = row.detail.split(" | witness: ")
        assert got.startswith("mismatch: theorem holds for n=2, M=1: ")
        assert witness.startswith("ExactMatrix(")

    @staticmethod
    def _products(monkeypatch, entry_id):
        """Matrix products made by one entry: each a*b that the product
        kernel adds into an accumulator, two per (anti)commutator."""
        import starnambu.operators as ops
        products = []
        original = ops._addmul

        def counting(*args):
            products.append(1)
            return original(*args)

        monkeypatch.setattr(ops, "_addmul", counting)
        assert run_suite(id_glob=entry_id, seed=0).results[0].status == "pass"
        return len(products)

    def test_os01_cost_pinned(self, monkeypatch):
        # two products per commutator: 2 * (3 * 4**2 + 3 * 9**2) over the
        # u(2) and u(3) pairs on three sectors each; the sector-label
        # claim multiplies no matrices
        assert self._products(monkeypatch, "OS-01") == 582

    def test_os02_cost_pinned(self, monkeypatch):
        # 30 theorem checks at seed 0; the non-vacuity claim reads their
        # brackets, where it used to build six more (3204 products)
        assert self._products(monkeypatch, "OS-02") == 2745

    def test_six_bracket_entries_cost_pinned(self, monkeypatch):
        # (products, nodes) summed over the qnb calls of the entries at
        # seed 0; a subset that holds the first entry is never cached, so
        # the pairs of f with an entry that both orientations share are
        # built twice: 4 such commutators in QN-12 and 36 in QN-13
        import starnambu.catalog as cat
        stats = []
        original = cat.qnb

        def counting(*args, **kwargs):
            result = original(*args, **kwargs)
            stats.append(result.stats)
            return result

        monkeypatch.setattr(cat, "qnb", counting)

        def cost(*ids):
            stats.clear()
            for entry_id in ids:
                assert run_suite(id_glob=entry_id, seed=0).results[0].status \
                    == "pass"
            return (sum(s.products for s in stats), sum(s.nodes for s in stats))

        assert cost("QN-07", "QN-12") == (998, 219)
        assert cost("QN-13") == (1518, 316)

    def test_os_entries_make_no_polynomial_products(self, monkeypatch):
        # matrix cells hold one scalar per hbar power, so the oscillator and
        # sigma_12 entries never multiply polynomials; pmul is rebound in every
        # starnambu module that holds it by name, as the benchmark does
        import sys
        import starnambu.poly as poly
        calls = []
        original = poly.pmul

        def counting(f, g):
            calls.append(1)
            return original(f, g)

        for name, module in list(sys.modules.items()):
            if name.startswith("starnambu") \
                    and getattr(module, "pmul", None) is original:
                monkeypatch.setattr(module, "pmul", counting)
        rows = [r for glob in ("OS-*", "QN-1[01]")
                for r in run_suite(id_glob=glob, seed=0).results]
        assert [r.status for r in rows] == ["pass"] * 6
        assert len(calls) == 0

    @pytest.mark.parametrize("entry_id, counts", [
        ("S2-01", {"pb": 2 * 3 ** 2}),
        ("S2-02", {"mb": 3 ** 2}),
        ("SN-01", {"pb": 6 ** 2 + 10 ** 2}),
        ("SN-05", {"mb": 2 ** 2 + 3 ** 2, "pb": 2 ** 2 + 3 ** 2}),
        ("CH-01", {"pb": 6 ** 2, "comm": 3 ** 2}),
        ("CH-06", {"pb": 3 ** 2}),
        ("OS-01", {"comm": 3 * 4 ** 2 + 3 * 9 ** 2}),
    ], ids=["S2-01", "S2-02", "SN-01", "SN-05", "CH-01", "CH-06", "OS-01"])
    def test_closure_checks_every_ordered_pair(self, entry_id, counts):
        # |basis|**2 claims per closure, labelled name(a,b)
        import re
        from collections import Counter
        import starnambu.catalog as cat
        claims = getattr(cat, "_" + entry_id.lower().replace("-", "_"))
        pairs = (re.search(r"(\w+)\(\w+,\w+\)$", label)
                 for label, _, _ in claims(RunContext()))
        assert Counter(m.group(1) for m in pairs if m) == counts


class TestCli:
    def test_check_single_entry_exit_zero(self, capsys):
        assert main(["check", "--id", "S2-03"]) == 0
        out = capsys.readouterr().out
        assert "S2-03" in out and "pass" in out

    def test_check_json(self, capsys):
        assert main(["check", "--id", "S2-05", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["summary"]["pass"] == 1

    def test_check_jobs_is_refused(self, entry_threads, capsys):
        # --jobs was a no-op and is gone: argparse refuses it before any
        # entry runs
        assert main(["check", "--id", "S2-0[12]", "--jobs", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --jobs 2" in captured.err
        assert entry_threads == []

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_check_draws_below_one_exit_two(self, n, capsys):
        assert main(["check", "--id", "S2-03", "--n", n]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "at least 1" in captured.err

    def test_eval_conserved(self, capsys):
        assert main(["eval", "--model", "sphere:2", "mb(Lx,Hqm)"]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_eval_json(self, capsys):
        assert main(["eval", "--model", "sphere:2", "--format", "json",
                     "mb(Lx,Ly) - Lz"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["result"] == "0"
        assert data["model"] == "sphere:2:+"

    @pytest.mark.parametrize("argv, printed", [
        (["eval", "--model", "sphere:2", "-x1"], "-x1"),
        (["eval", "--model", "sphere:2", "-1/2*x1"], "-1/2*x1"),
        (["eval", "--model", "sphere:2", "-hbar*x1"], "-x1*hbar"),
        (["eval", "-x1", "--model", "sphere:2"], "-x1"),
        (["eval", "--model", "sphere:2", "--", "-x1"], "-x1"),
    ])
    def test_eval_expression_with_leading_minus(self, argv, printed, capsys):
        # argparse reads "-x1" as an option and "-hbar" as -h; the printer
        # writes such text, so eval must take it back
        assert main(argv) == 0
        assert capsys.readouterr() == (printed + "\n", "")

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

    @pytest.mark.parametrize("argv", [
        ["check", "--id", "CH-06"], ["models"],
        ["eval", "--model", "sphere:2", "x1"]])
    def test_closed_output_pipe_is_quiet(self, argv):
        # a reader that stops early (`| head -1`) leaves the exit status
        # the command's own and writes nothing on stderr
        src = os.path.dirname(os.path.dirname(starnambu.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        child = subprocess.Popen([sys.executable, "-m", "starnambu", *argv],
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                 env={**os.environ, "PYTHONPATH": path})
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        assert (child.wait(timeout=60), err) == (0, b"")

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
