"""Command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, load_cohort_bundle, main, save_cohort_bundle


@pytest.fixture()
def cohort_file(tmp_path, small_cohort):
    path = tmp_path / "cohort.npz"
    save_cohort_bundle(str(path), small_cohort)
    return str(path)


class TestBundleIo:
    def test_roundtrip(self, tmp_path, small_cohort):
        path = str(tmp_path / "c.npz")
        save_cohort_bundle(path, small_cohort)
        loaded = load_cohort_bundle(path)
        assert loaded.case == small_cohort.case
        assert loaded.control == small_cohort.control
        assert loaded.reference is loaded.control

    def test_missing_keys_rejected(self, tmp_path):
        import numpy as np

        path = str(tmp_path / "bad.npz")
        np.savez(path, case=np.zeros((2, 3), dtype=np.uint8))
        with pytest.raises(Exception):
            load_cohort_bundle(path)


class TestCommands:
    def test_generate_and_info(self, tmp_path, capsys):
        out = str(tmp_path / "gen.npz")
        assert main(
            [
                "generate",
                "--snps", "50",
                "--case", "60",
                "--control", "55",
                "--seed", "3",
                "--out", out,
            ]
        ) == 0
        assert "60 case" in capsys.readouterr().out
        assert main(["info", "--cohort", out]) == 0
        captured = capsys.readouterr().out
        assert "50 SNPs" in captured
        assert "minor-allele frequency" in captured

    @pytest.mark.parametrize("flag", ["--drift", "--site-effect"])
    def test_generate_rejects_nan(self, tmp_path, capsys, flag):
        out = tmp_path / "nan.npz"
        assert main(
            [
                "generate",
                "--snps", "50",
                "--case", "40",
                "--control", "40",
                flag, "nan",
                "--out", str(out),
            ]
        ) == 1
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_run_plain(self, cohort_file, tmp_path, capsys):
        json_out = str(tmp_path / "result.json")
        assert main(
            [
                "run",
                "--cohort", cohort_file,
                "--members", "2",
                "--json", json_out,
            ]
        ) == 0
        captured = capsys.readouterr().out
        assert "L_des=240" in captured
        payload = json.loads(open(json_out).read())
        assert payload["members"] == 2
        assert set(payload["l_safe"]) <= set(payload["l_double_prime"])

    def test_run_with_collusion(self, cohort_file, capsys):
        assert main(
            [
                "run",
                "--cohort", cohort_file,
                "--members", "3",
                "--collusion", "1",
            ]
        ) == 0
        assert "combinations" in capsys.readouterr().out

    def test_run_conservative_collusion(self, cohort_file, capsys):
        assert main(
            [
                "run",
                "--cohort", cohort_file,
                "--members", "3",
                "--collusion", "conservative",
            ]
        ) == 0
        assert "combinations" in capsys.readouterr().out

    def test_attack_from_release(self, cohort_file, tmp_path, capsys):
        json_out = str(tmp_path / "result.json")
        main(["run", "--cohort", cohort_file, "--json", json_out])
        capsys.readouterr()
        assert main(
            ["attack", "--cohort", cohort_file, "--release", json_out]
        ) == 0
        assert "power" in capsys.readouterr().out

    def test_attack_explicit_snps(self, cohort_file, capsys):
        assert main(
            ["attack", "--cohort", cohort_file, "--snps", "0,1,2,3"]
        ) == 0
        assert "4 SNPs" in capsys.readouterr().out

    def test_run_sharded_with_chaos_seed(self, cohort_file, tmp_path, capsys):
        """`run --shards N --chaos-seed S` composes sharding with the
        seeded fault plan under supervision — and the faulted sharded
        release matches the clean flat one bit for bit."""
        faulted_out = str(tmp_path / "faulted.json")
        clean_out = str(tmp_path / "clean.json")
        assert main(
            [
                "run",
                "--cohort", cohort_file,
                "--members", "3",
                "--shards", "4",
                "--chaos-seed", "7",
                "--chaos-intensity", "0.1",
                "--json", faulted_out,
            ]
        ) == 0
        capsys.readouterr()
        assert main(
            [
                "run",
                "--cohort", cohort_file,
                "--members", "3",
                "--json", clean_out,
            ]
        ) == 0
        capsys.readouterr()
        faulted = json.loads(open(faulted_out).read())
        clean = json.loads(open(clean_out).read())
        assert faulted["l_safe"] == clean["l_safe"]
        assert faulted["l_prime"] == clean["l_prime"]
        assert faulted["l_double_prime"] == clean["l_double_prime"]

    def test_run_supervised_flag_without_faults(self, cohort_file, capsys):
        assert main(
            [
                "run",
                "--cohort", cohort_file,
                "--members", "3",
                "--shards", "2",
                "--supervised",
            ]
        ) == 0
        assert "L_des" in capsys.readouterr().out

    def test_missing_file_is_clean_error(self, capsys):
        assert main(["info", "--cohort", "/nope/missing.npz"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestServeCommands:
    def test_serve_batch_with_artifacts(self, cohort_file, tmp_path, capsys):
        metrics_out = str(tmp_path / "serve_metrics.json")
        results_out = str(tmp_path / "serve_results.json")
        assert main(
            [
                "serve",
                "--cohort", cohort_file,
                "--studies", "3",
                "--metrics", metrics_out,
                "--results", results_out,
            ]
        ) == 0
        captured = capsys.readouterr().out
        assert "served 3 studies (3 done)" in captured
        with open(metrics_out, encoding="utf-8") as handle:
            metrics = json.load(handle)
        assert metrics["completed"] == 3
        assert metrics["warm_hits"] >= 1
        assert "rounds_admitted" in metrics
        with open(results_out, encoding="utf-8") as handle:
            results = json.load(handle)
        assert set(results) == {"serve-0", "serve-1", "serve-2"}
        assert all(r["status"] == "done" for r in results.values())

    def test_submit_single_study(self, cohort_file, tmp_path, capsys):
        report_out = str(tmp_path / "request_report.json")
        assert main(
            [
                "submit",
                "--cohort", cohort_file,
                "--study-id", "cli-submitted",
                "--report", report_out,
            ]
        ) == 0
        captured = capsys.readouterr().out
        assert "cli-submitted" in captured
        assert "gated rounds" in captured
        with open(report_out, encoding="utf-8") as handle:
            report = json.load(handle)
        assert report["study_id"] == "cli-submitted"

    def test_submit_sharded_study(self, cohort_file, tmp_path, capsys):
        """`submit --shards N` drives a sharded study through the
        service request path and reports shard accounting."""
        report_out = str(tmp_path / "sharded_report.json")
        assert main(
            [
                "submit",
                "--cohort", cohort_file,
                "--study-id", "cli-sharded",
                "--shards", "4",
                "--report", report_out,
            ]
        ) == 0
        captured = capsys.readouterr().out
        assert "cli-sharded" in captured
        with open(report_out, encoding="utf-8") as handle:
            report = json.load(handle)
        assert report["meta"]["sharding"]["num_shards"] == 4
        assert report["metrics"]["gauges"]["shard.ranges"] == 4
