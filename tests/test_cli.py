import json
import os

import pytest

from tsplocal.cli import main
from tsplocal.adversarial import build_graph_tsp_lower, write_bundle
from tsplocal.extremal import SimpleGraph


def run_cli(args, capsys=None):
    code = main(args)
    return code


class TestConstruct:
    def test_one_two_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            [
                "construct", "--family", "one-two", "--cage", "4,6",
                "--k", "2", "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["task"] == "construct"
        assert report["n"] == 260
        assert report["engineered_cost"] == 11 * 26
        assert "/" in report["ratio"]

    def test_graph_family_with_bundle(self, tmp_path):
        out = tmp_path / "report.json"
        bundle_dir = tmp_path / "bundle"
        code = main(
            [
                "construct", "--family", "graph", "--cage", "4,8",
                "--k", "2", "--f", "2",
                "--out", str(out), "--out-bundle", str(bundle_dir),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["engineered_cost"] == 160
        assert (bundle_dir / "instance.edge_list").exists()
        assert (bundle_dir / "engineered.tour").exists()
        assert (bundle_dir / "params.txt").exists()

    def test_graph_extension(self, tmp_path):
        out = tmp_path / "report.json"
        main(
            [
                "construct", "--family", "graph", "--cage", "4,8",
                "--k", "2", "--f", "2", "--a", "2", "--b", "0",
                "--out", str(out),
            ]
        )
        assert json.loads(out.read_text())["engineered_cost"] == 322


class TestSolveAnalyze:
    def test_solve_with_baseline(self, tmp_path):
        out = tmp_path / "solve.json"
        code = main(
            [
                "solve", "--algorithm", "lk", "--n", "9", "--p1", "5",
                "--p2", "2", "--trials", "4", "--seed", "3", "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert len(report["rows"]) == 4
        for row in report["rows"]:
            assert row["final_cost"] <= row["start_cost"]
            assert row["final_cost"] >= row["optimum"]

    def test_analyze_zero_violations(self, tmp_path):
        out = tmp_path / "analyze.json"
        code = main(
            [
                "analyze", "--n", "10", "--k", "3", "--trials", "5",
                "--seed", "1", "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["violations"] == 0


class TestCertify:
    def test_certify_marked_walk_bundle(self, tmp_path):
        from tsplocal.extremal import load_cage

        bundle = build_graph_tsp_lower(2, 2, load_cage(4, 8))
        bdir = tmp_path / "bundle"
        write_bundle(bundle, str(bdir))
        out = tmp_path / "cert.json"
        code = main(
            [
                "certify", "--mode", "k-opt",
                "--instance", str(bdir / "instance.edge_list"),
                "--format", "edge-list",
                "--tour", str(bdir / "engineered.tour"),
                "--k", "2", "--out", str(out),
            ]
        )
        assert code == 0
        assert json.loads(out.read_text())["certified"] is True

    def test_certify_k_improv_mode(self, tmp_path):
        from tsplocal.adversarial import build_12tsp_lower
        from tsplocal.extremal import load_cage

        bundle = build_12tsp_lower(2, 6, load_cage(4, 6))
        bdir = tmp_path / "b12"
        write_bundle(bundle, str(bdir))
        out = tmp_path / "cert.json"
        code = main(
            [
                "certify", "--mode", "k-improv",
                "--instance", str(bdir / "instance.unit_edge_list"),
                "--format", "unit-edge-list",
                "--tour", str(bdir / "engineered.tour"),
                "--k", "2", "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["certified"] is True and report["mode"] == "k-improv"

    def test_nonzero_exit_on_counterexample(self, tmp_path):
        from tsplocal.core import MetricInstance, Tour, write_instance, write_tour
        from tsplocal.core.rand import line_metric

        inst = line_metric([0, 1, 2, 3])
        (tmp_path / "inst.txt").write_bytes(write_instance(inst, "full-matrix"))
        (tmp_path / "bad.tour").write_bytes(write_tour(Tour([0, 2, 1, 3])))
        code = main(
            [
                "certify", "--mode", "k-opt",
                "--instance", str(tmp_path / "inst.txt"),
                "--format", "full-matrix",
                "--tour", str(tmp_path / "bad.tour"),
                "--k", "2", "--out", str(tmp_path / "cert.json"),
            ]
        )
        assert code == 1
        report = json.loads((tmp_path / "cert.json").read_text())
        assert report["certified"] is False
        assert report["counterexample"]["delta"] < 0


class TestMalformedInput:
    # a malformed file is a bad argument: one stderr line and exit 2, never a
    # traceback (the exception would escape pytest.raises) or the
    # counterexample code 1
    @staticmethod
    def _certify(tmp_path, capsys, instance_text, tour_text):
        (tmp_path / "inst.txt").write_text(instance_text)
        (tmp_path / "t.tour").write_text(tour_text)
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "certify",
                    "--instance", str(tmp_path / "inst.txt"), "--format", "full-matrix",
                    "--tour", str(tmp_path / "t.tour"), "--out", str(tmp_path / "c.json"),
                ]
            )
        assert exc.value.code == 2
        assert not (tmp_path / "c.json").exists()
        return capsys.readouterr().err

    def _good_files(self):
        from tsplocal.core import Tour, write_instance, write_tour
        from tsplocal.core.rand import line_metric

        inst = write_instance(line_metric([0, 1, 2]), "full-matrix").decode()
        return inst, write_tour(Tour([0, 1, 2])).decode()

    def test_truncated_matrix_exits_2(self, tmp_path, capsys):
        inst, tour = self._good_files()
        truncated = inst.replace("1 0 1\n", "")  # drop the middle row
        err = self._certify(tmp_path, capsys, truncated, tour)
        assert err == (
            f"tsplocal: {tmp_path / 'inst.txt'}: line 9, column 1: "
            "expected 9 weights, got 6\n"
        )

    def test_tour_without_terminator_exits_2(self, tmp_path, capsys):
        inst, tour = self._good_files()
        err = self._certify(tmp_path, capsys, inst, tour.replace("-1\n", ""))
        assert err == (
            f"tsplocal: {tmp_path / 't.tour'}: line 8, column 1: "
            "missing -1 terminator\n"
        )


class TestRatioSweep:
    def test_sweep_rows(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = main(
            [
                "ratio-sweep", "--family", "one-two", "--k", "2",
                "--cages", "4,6", "4,8", "--out", str(out),
            ]
        )
        assert code == 0
        rows = json.loads(out.read_text())["rows"]
        assert [r["cage"] for r in rows] == [[4, 6], [4, 8]]


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["construct", "--family", "one-two", "--cage", "4,6", "--k", "2"],
            ["solve", "--algorithm", "k-opt", "--n", "10", "--k", "2",
             "--trials", "5", "--seed", "42"],
            ["analyze", "--n", "10", "--k", "3", "--trials", "4", "--seed", "9"],
            ["ratio-sweep", "--family", "one-two", "--cages", "4,6"],
        ],
    )
    def test_reports_byte_identical(self, tmp_path, argv):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        main(argv + ["--out", str(out1)])
        main(argv + ["--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()
