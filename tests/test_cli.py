import json
from dataclasses import fields
from xml.etree import ElementTree

import numpy as np
import pytest

from rnasel.cli import RunConfig, build_parser, main, report_groups, resolve_config
from rnasel.clustering import average_linkage, cut, dissimilarity
from rnasel.ingest import load_matrix, load_meta, load_weights
from rnasel.model import PairWeights
from rnasel.objective import ObjectiveContext, ObjectiveParams, eval_u
from rnasel import clustering, ingest
from rnasel.errors import NumericalError, ParameterError


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


def written(out_dir):
    """The bytes of every file a run wrote, except the wall-clock timings."""
    return {
        path.relative_to(out_dir).as_posix(): path.read_bytes()
        for path in sorted(out_dir.rglob("*"))
        if path.is_file() and path.name != "timings.json"
    }


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

    def test_cluster_all_features_builds_no_objective_context(self, dataset, tmp_path, monkeypatch):
        args = ("--cluster-all-features", "--cut-k", "2", "--seed", "3")
        assert main(run_args(dataset, tmp_path / "plain", *args)) == 0

        def unused(*_):
            raise AssertionError("--cluster-all-features built the objective context")

        monkeypatch.setattr(ObjectiveContext, "from_matrices", unused)
        assert main(run_args(dataset, tmp_path / "lean", *args)) == 0
        assert written(tmp_path / "lean") == written(tmp_path / "plain")

    @pytest.mark.parametrize("extra", [("--n", "8", "--seed", "5"), ("--cluster-all-features",)],
                             ids=["sweep", "all-features"])
    def test_timings_hold_the_ingest_time(self, dataset, tmp_path, extra):
        out = tmp_path / "out"
        assert main(run_args(dataset, out, *extra)) == 0
        timings = json.loads((out / "timings.json").read_text())
        assert isinstance(timings["ingest"], float) and timings["ingest"] > 0.0

    def test_interrupted_json_write_keeps_the_earlier_file(self, dataset, tmp_path, monkeypatch):
        out = tmp_path / "out"
        assert main(run_args(dataset, out, "--n", "8", "--alpha", "0.2", "--seed", "5")) == 0
        before = {path: path.read_bytes() for path in out.rglob("*.json")}

        class Killed(Exception):
            pass

        def dump_half(payload, fh, **kwargs):
            fh.write(json.dumps(payload, **kwargs)[:20])
            raise Killed

        monkeypatch.setattr(json, "dump", dump_half)
        with pytest.raises(Killed):
            main(run_args(dataset, out, "--n", "8", "--alpha", "0.2", "--seed", "6"))
        assert {path: path.read_bytes() for path in out.rglob("*.json")} == before
        assert sorted(out.rglob("*.tmp")) == []

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


# two distinct values of each `rnasel run` option, as config-file text; the
# first is not the default
OPTION_SAMPLES = {
    "matrix": ("m1.tsv", "m2.tsv"),
    "meta": ("meta1.tsv", "meta2.tsv"),
    "weights": ("w1.tsv", "w2.tsv"),
    "n": ("8, 6", "4"),
    "alpha": ("0.0 0.3", "0.1"),
    "t_init": ("2.0", "3.0"),
    "t_final": ("0.01", "0.02"),
    "gamma": ("0.9", "0.8"),
    "swaps_per_temp": ("5", "7"),
    "restarts": ("2", "3"),
    "seed": ("18446744073709551615", "4"),
    "default_weight": ("-1", "0"),
    "cluster_mode": ("levels", "ratios"),
    "cluster_all_features": ("YES", "off"),
    "cut_k": ("2", "3"),
    "out_dir": ("o1", "o2"),
    "format": ("svg", "newick"),
    "return_final": ("on", "0"),
    "scatter_compound": ("cmpA", "cmpB"),
    "jobs": ("2", "3"),
}


def test_svgs_parse_when_labels_hold_markup(tmp_path):
    data, out = tmp_path / "data", tmp_path / "out"
    assert main([
        "synth", "--out-dir", str(data), "--groups", "G1:a&b,c<d;G2:e,f",
        "--features", "40", "--informative", "8", "--seed", "2",
    ]) == 0
    assert main(run_args(data, out, "--n", "6", "--format", "svg", "--scatter-compound", "a&b")) == 0
    texts = {
        name: {node.text for node in ElementTree.parse(out / "n6_alpha0.2" / name).iter("{http://www.w3.org/2000/svg}text")}
        for name in ("dendrogram.svg", "scatter.svg")
    }
    assert {"a&b_1", "a&b_2", "c<d_1", "c<d_2"} <= texts["dendrogram.svg"]
    assert {"a&b_1 level", "a&b_2 level"} <= texts["scatter.svg"]
    assert any(text.startswith("a&b: selected features") for text in texts["scatter.svg"])


def resolve(tmp_path, argv=(), lines=""):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("matrix = m.tsv\nmeta = meta.tsv\n" + lines, encoding="utf-8")
    return resolve_config(build_parser().parse_args(["run", "--config", str(cfg), *argv]))


def flag_args(option, text):
    flag = "--" + option.name.replace("_", "-")
    if isinstance(option.default, bool):
        return [flag]
    return [arg for token in text.replace(",", " ").split() for arg in (flag, token)]


class TestConfigFile:
    @pytest.mark.parametrize("option", fields(RunConfig), ids=lambda f: f.name)
    def test_file_and_flag_resolve_alike(self, tmp_path, option):
        first, second = OPTION_SAMPLES[option.name]
        by_file = resolve(tmp_path, lines=f"{option.name} = {first}\n")
        assert getattr(by_file, option.name) != option.default
        assert resolve(tmp_path, lines=f"{option.name.replace('_', '-')} = {first}\n") == by_file
        assert resolve(tmp_path, flag_args(option, first)) == by_file
        both = resolve(tmp_path, flag_args(option, first), f"{option.name} = {second}\n")
        assert both == by_file  # the flag wins over the file

    def test_boolean_spellings(self, tmp_path):
        config = resolve(tmp_path, lines="cluster_all_features = True\nreturn_final = No\n")
        assert config.cluster_all_features is True and config.return_final is False
        with pytest.raises(ParameterError, match=r"run\.cfg:3: bad value for 'cluster_all_features'"):
            resolve(tmp_path, lines="cluster_all_features = ture\n")

    @pytest.mark.parametrize("line", ["seed = -1", "n = 8, 8", "alpha = 0.2 0.20", "return_final = of"])
    def test_bad_value_is_parameter_error(self, dataset, tmp_path, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(
            f"matrix = {dataset / 'matrix.tsv'}\nmeta = {dataset / 'meta.tsv'}\nn = 8\n{line}\n",
            encoding="utf-8",
        )
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 4

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

    @pytest.mark.parametrize("extra", [
        ("--n", "8", "--seed", "-1"),
        ("--n", "8", "--seed", str(2**64)),
        ("--n", "8", "--t-init", "inf"),
        ("--n", "8", "--n", "8"),
        ("--n", "8", "--alpha", "0.2", "--alpha", "0.20", "--jobs", "2"),
    ], ids=["negative-seed", "seed-2^64", "infinite-t-init", "repeated-n", "repeated-alpha"])
    def test_out_of_range_setting_is_parameter_error(self, dataset, tmp_path, extra):
        assert main(run_args(dataset, tmp_path / "o", *extra)) == 4

    def test_missing_required_paths_is_parameter_error(self, tmp_path):
        assert main(["run", "--out-dir", str(tmp_path / "o")]) == 4

    def test_unknown_flag_exits_4(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--bogus"])
        assert exc.value.code == 4

    def test_n_larger_than_features_is_parameter_error(self, dataset, tmp_path):
        rc = main(run_args(dataset, tmp_path / "o", "--n", "10000", "--alpha", "0.2"))
        assert rc == 4

    def test_n_larger_than_features_fails_before_any_cell(self, dataset, tmp_path):
        # the dataset has 60 features; the n = 8 cell comes first
        out = tmp_path / "o"
        assert main(run_args(dataset, out, "--n", "8", "--n", "61", "--alpha", "0.2")) == 4
        assert not out.exists()

    def test_unknown_scatter_compound_fails_before_any_cell(self, dataset, tmp_path):
        out = tmp_path / "o"
        args = run_args(dataset, out, "--n", "8", "--n", "6", "--alpha", "0.2", "--scatter-compound", "nosuch")
        assert main(args) == 4
        assert not out.exists()

    @pytest.mark.parametrize("extra", [
        ("--n", "8", "--n", "6", "--gamma", "2"),
        ("--cluster-all-features", "--gamma", "2", "--restarts", "0"),
    ], ids=["sweep", "all-features"])
    def test_bad_schedule_fails_before_any_output(self, dataset, tmp_path, extra):
        out = tmp_path / "o"
        assert main(run_args(dataset, out, *extra)) == 4
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda rows: [rows[0][:2] + ["2"], *rows[1:]], "{weights}:2: weight must be -1, 0 or 1, got '2'"),
        (lambda rows: [[rows[0][0], "nosuch", "1"], *rows[1:]],
         "weight entry ('cmpA_1', 'nosuch') names an unknown treated sample"),
        (lambda rows: [*rows, [rows[0][1], rows[0][0], "0"]],
         "pair ('cmpA_1', 'cmpA_2') listed more than once in weights"),
    ], ids=["weight-2", "unknown-sample", "listed-twice"])
    def test_bad_weights_file_fails_in_all_features_mode(self, dataset, tmp_path, caplog, edit, message):
        lines = (dataset / "weights.tsv").read_text(encoding="utf-8").splitlines()
        rows = edit([line.split("\t") for line in lines[1:]])
        (dataset / "weights.tsv").write_text("\n".join([lines[0], *map("\t".join, rows)]) + "\n", encoding="utf-8")
        out = tmp_path / "o"
        assert main(run_args(dataset, out, "--cluster-all-features")) == 2
        assert "validation error: " + message.format(weights=dataset / "weights.tsv") in caplog.text
        assert not out.exists()

    def test_overflowing_levels_fail_in_all_features_mode(self, dataset, tmp_path, caplog):
        # squares of levels this large overflow, so every profile would look constant
        matrix, _ = load_matrix(dataset / "matrix.tsv")
        huge = tmp_path / "huge.tsv"
        ingest.write_table(huge, "feature_id", matrix.sample_ids, matrix.feature_ids, matrix.values * 1e200)
        args = run_args(dataset, tmp_path / "o", "--cluster-all-features", "--cluster-mode", "levels")
        args[args.index("--matrix") + 1] = str(huge)
        assert main(args) == 2
        assert "validation error: profiles too large: a sum of squares overflows" in caplog.text

    def test_height_inversion_is_numerical_error(self, dataset, tmp_path, monkeypatch, caplog):
        def inverted(d):
            raise NumericalError("average linkage produced a height inversion: 0.1 after 0.2")

        monkeypatch.setattr(clustering, "average_linkage", inverted)
        rc = main(run_args(dataset, tmp_path / "o", "--cluster-all-features"))
        assert rc == 5
        assert "height inversion" in caplog.text


class TestReportGroups:
    COMPOUNDS = {"cmpA_1": "cmpA", "cmpA_2": "cmpA", "cmpB_1": "cmpB", "cmpB_2": "cmpB"}

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
        text = report_groups(cut(self._dend(), 1), self.COMPOUNDS)
        assert "group 1: cmpA, cmpB" in text

    def test_singletons_keep_replicate_labels(self):
        text = report_groups(cut(self._dend(), 4), self.COMPOUNDS)
        assert "cmpA_1" in text and "cmpA_2" in text

    def test_two_groups_collapse_replicates(self):
        text = report_groups(cut(self._dend(), 2), self.COMPOUNDS)
        assert "group 1: cmpA" in text
        assert "group 2: cmpB" in text
