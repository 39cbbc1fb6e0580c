import json

import numpy as np
import pytest

from rnasel.cli import main, report_groups
from rnasel.clustering import average_linkage, dissimilarity
from rnasel.ingest import load_matrix, load_meta, load_weights
from rnasel.model import PairWeights
from rnasel.objective import ObjectiveContext, ObjectiveParams, eval_u
from rnasel import clustering, ingest
from rnasel.errors import NumericalError


@pytest.fixture()
def dataset(tmp_path):
    root = tmp_path / "data"
    rc = main([
        "synth", "--out-dir", str(root), "--features", "60", "--informative", "14",
        "--effect-size", "2.5", "--noise-sd", "0.2", "--zero-fraction", "0.02", "--seed", "11",
    ])
    assert rc == 0
    return root


def run_args(dataset, out_dir, *extra):
    return [
        "run",
        "--matrix", str(dataset / "matrix.tsv"),
        "--meta", str(dataset / "meta.tsv"),
        "--weights", str(dataset / "weights.tsv"),
        "--gamma", "0.9", "--t-final", "0.01", "--swaps-per-temp", "20",
        "--out-dir", str(out_dir),
        *extra,
    ]


class TestSynthCommand:
    def test_emits_loadable_files(self, dataset):
        matrix, _ = load_matrix(dataset / "matrix.tsv")
        meta = load_meta(dataset / "meta.tsv")
        entries = load_weights(dataset / "weights.tsv")
        assert matrix.n_samples == 10
        assert len(meta.treated_ids()) == 8
        assert len(entries) == 28
        assert (dataset / "truth.json").exists()


class TestRunCommand:
    def test_single_cell_artifacts(self, dataset, tmp_path):
        out = tmp_path / "out"
        rc = main(run_args(dataset, out, "--n", "8", "--alpha", "0.2", "--seed", "5",
                           "--cut-k", "2", "--restarts", "2"))
        assert rc == 0
        cell = out / "n8_alpha0.2"
        for name in (
            "selection.json", "trace.csv", "dissimilarity.tsv",
            "dendrogram.nwk", "dendrogram.json", "dendrogram.svg",
            "scatter.svg", "groups_k2.txt",
        ):
            assert (cell / name).exists(), name
        summary = json.loads((out / "summary.json").read_text())
        assert list(summary["cells"]) == ["n=8,alpha=0.2"]
        assert summary["features"] <= 60
        assert (out / "timings.json").exists()

    def test_reported_u_matches_reevaluation(self, dataset, tmp_path):
        out = tmp_path / "out"
        assert main(run_args(dataset, out, "--n", "8", "--alpha", "0.2", "--seed", "5")) == 0
        sel = json.loads((out / "n8_alpha0.2" / "selection.json").read_text())
        matrix, report = load_matrix(dataset / "matrix.tsv")
        meta = load_meta(dataset / "meta.tsv")
        ratio = ingest.compute_ratios(matrix, meta, report)
        ctx = ObjectiveContext.from_matrices(matrix, ratio)
        weights = PairWeights.from_entries(ratio.treated_ids, load_weights(dataset / "weights.tsv"), 1)
        params = ObjectiveParams(alpha=0.2, n=8, weights=weights)
        u, u1, u2 = eval_u(ctx, sel["indices"], params)
        assert sel["u"] == pytest.approx(u, abs=1e-9)
        assert sel["u1"] == pytest.approx(u1, abs=1e-9)
        assert sel["u2"] == pytest.approx(u2, abs=1e-9)
        assert sel["feature_ids"] == [matrix.feature_ids[i] for i in sel["indices"]]

    def test_full_sweep_grid(self, dataset, tmp_path):
        out = tmp_path / "out"
        args = run_args(dataset, out, "--seed", "2")
        for n in ("12", "8", "4"):
            args += ["--n", n]
        for alpha in ("0.0", "0.1", "0.2", "0.3"):
            args += ["--alpha", alpha]
        assert main(args) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["cells"]) == 12
        for key, cell in summary["cells"].items():
            assert (out / cell["directory"] / "selection.json").exists()

    def test_cluster_all_features_modes(self, dataset, tmp_path):
        for mode in ("ratios", "levels"):
            out = tmp_path / f"out_{mode}"
            rc = main(run_args(dataset, out, "--cluster-all-features", "--cluster-mode", mode, "--cut-k", "2"))
            assert rc == 0
            summary = json.loads((out / "summary.json").read_text())
            assert "all_features" in summary
            assert summary["cells"] == {}
            dend = json.loads((out / "all_features" / "dendrogram.json").read_text())
            expected_leaves = 8 if mode == "ratios" else 10
            assert len(dend["leaves"]) == expected_leaves

    def test_determinism_byte_identical(self, dataset, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["--n", "8", "--alpha", "0.0", "--alpha", "0.2", "--seed", "17"]
        assert main(run_args(dataset, out_a, *args)) == 0
        assert main(run_args(dataset, out_b, *args)) == 0
        assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()
        for cell in ("n8_alpha0.0", "n8_alpha0.2"):
            assert (out_a / cell / "selection.json").read_bytes() == (out_b / cell / "selection.json").read_bytes()
            assert (out_a / cell / "trace.csv").read_bytes() == (out_b / cell / "trace.csv").read_bytes()

    def test_jobs_parallel_matches_serial(self, dataset, tmp_path):
        out_a, out_b = tmp_path / "serial", tmp_path / "parallel"
        args = ["--n", "8", "--n", "6", "--alpha", "0.0", "--alpha", "0.2", "--seed", "3"]
        assert main(run_args(dataset, out_a, *args, "--jobs", "1")) == 0
        assert main(run_args(dataset, out_b, *args, "--jobs", "4")) == 0
        assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()

    def test_return_final_flag_changes_selection(self, dataset, tmp_path):
        out_a, out_b = tmp_path / "best", tmp_path / "final"
        args = ["--n", "8", "--alpha", "0.2", "--seed", "23"]
        assert main(run_args(dataset, out_a, *args)) == 0
        assert main(run_args(dataset, out_b, *args, "--return-final")) == 0
        best = json.loads((out_a / "n8_alpha0.2" / "selection.json").read_text())
        final = json.loads((out_b / "n8_alpha0.2" / "selection.json").read_text())
        assert best["u"] >= final["u"] - 1e-12


class TestConfigFile:
    def test_file_plus_flag_precedence(self, dataset, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"""
# sweep configuration
matrix = {dataset / 'matrix.tsv'}
meta = {dataset / 'meta.tsv'}
weights = {dataset / 'weights.tsv'}
n = 8
alpha = 0.3
gamma = 0.9
t_final = 0.01
swaps_per_temp = 15
seed = 4
out_dir = {tmp_path / 'cfg_out'}
""",
            encoding="utf-8",
        )
        rc = main(["run", "--config", str(cfg), "--alpha", "0.1"])
        assert rc == 0
        summary = json.loads((tmp_path / "cfg_out" / "summary.json").read_text())
        assert list(summary["cells"]) == ["n=8,alpha=0.1"]  # flag wins over file
        assert summary["seed"] == 4  # file wins over default

    def test_unknown_key_rejected(self, dataset, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mystery = 1\n", encoding="utf-8")
        assert main(["run", "--config", str(cfg)]) == 4


class TestExitCodes:
    def test_missing_file_is_io_error(self, tmp_path):
        rc = main([
            "run", "--matrix", str(tmp_path / "none.tsv"), "--meta", str(tmp_path / "none2.tsv"),
            "--out-dir", str(tmp_path / "o"),
        ])
        assert rc == 3

    def test_malformed_matrix_is_validation_error(self, dataset, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("feature_id\ts0\ts1\nf0\t1\t-2\nf1\t1\t1\n", encoding="utf-8")
        rc = main([
            "run", "--matrix", str(bad), "--meta", str(dataset / "meta.tsv"),
            "--out-dir", str(tmp_path / "o"),
        ])
        assert rc == 2

    def test_bad_alpha_is_parameter_error(self, dataset, tmp_path):
        rc = main(run_args(dataset, tmp_path / "o", "--n", "8", "--alpha", "1.5"))
        assert rc == 4

    def test_missing_required_paths_is_parameter_error(self, tmp_path):
        assert main(["run", "--out-dir", str(tmp_path / "o")]) == 4

    def test_unknown_flag_exits_4(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--bogus"])
        assert exc.value.code == 4

    def test_n_larger_than_features_is_parameter_error(self, dataset, tmp_path):
        rc = main(run_args(dataset, tmp_path / "o", "--n", "10000", "--alpha", "0.2"))
        assert rc == 4

    def test_height_inversion_is_numerical_error(self, dataset, tmp_path, monkeypatch, caplog):
        def inverted(d):
            raise NumericalError("average linkage produced a height inversion: 0.1 after 0.2")

        monkeypatch.setattr(clustering, "average_linkage", inverted)
        rc = main(run_args(dataset, tmp_path / "o", "--cluster-all-features"))
        assert rc == 5
        assert "height inversion" in caplog.text


class TestReportGroups:
    def _dend(self):
        rng = np.random.default_rng(9)
        labels = ["cmpA_1", "cmpA_2", "cmpB_1", "cmpB_2"]
        a = rng.normal(size=20)
        b = rng.normal(size=20)
        profiles = np.array([
            a, a + 0.01 * rng.normal(size=20),
            b, b + 0.01 * rng.normal(size=20),
        ])
        return average_linkage(dissimilarity(labels, profiles))

    def test_single_group_lists_all_compounds(self):
        text = report_groups(self._dend(), 1)
        assert "group 1: cmpA, cmpB" in text

    def test_singletons_keep_replicate_labels(self):
        text = report_groups(self._dend(), 4)
        assert "cmpA_1" in text and "cmpA_2" in text

    def test_two_groups_collapse_replicates(self):
        text = report_groups(self._dend(), 2)
        assert "group 1: cmpA" in text
        assert "group 2: cmpB" in text


class TestOracleCommand:
    def test_golden_file(self, tmp_path):
        root = tmp_path / "tiny"
        assert main([
            "synth", "--out-dir", str(root), "--features", "10", "--informative", "5",
            "--effect-size", "3.0", "--seed", "2",
        ]) == 0
        out = tmp_path / "golden.json"
        rc = main([
            "oracle", "--matrix", str(root / "matrix.tsv"), "--meta", str(root / "meta.tsv"),
            "--n", "3", "--alpha", "0.2", "--out", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["evaluated"] == 120
        assert len(payload["indices"]) == 3
