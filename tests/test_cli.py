"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.graphs import io as graph_io
from repro.graphs import hermitian_laplacian, mixed_sbm
from repro.pipeline import STAGE_NAMES


def profile_rows(out: str) -> dict:
    """``--profile`` rows of a ``cluster`` run's output, by stage name."""
    return {
        line.split()[0]: line
        for line in out.split("stage profile:")[1].splitlines()
        if line.startswith("  ")
    }


@pytest.fixture()
def graph_file(tmp_path):
    graph, labels = mixed_sbm(24, 2, p_intra=0.6, p_inter=0.04, seed=0)
    path = tmp_path / "graph.mixed"
    graph_io.save(graph, path)
    return str(path), labels


class TestClusterCommand:
    def test_quantum_cluster(self, graph_file, capsys):
        path, _ = graph_file
        code = main(
            [
                "cluster",
                "--input",
                path,
                "--clusters",
                "2",
                "--shots",
                "256",
                "--seed",
                "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("labels:")
        assert "cut_weight:" in out

    def test_readout_chunk_size_matches_unchunked(self, graph_file, capsys):
        path, _ = graph_file
        args = [
            "cluster",
            "--input",
            path,
            "--clusters",
            "2",
            "--shots",
            "128",
            "--seed",
            "1",
        ]
        assert main(args) == 0
        unchunked = capsys.readouterr().out
        assert main(args + ["--readout-chunk-size", "5"]) == 0
        chunked = capsys.readouterr().out
        assert chunked.splitlines()[0] == unchunked.splitlines()[0]

    def test_readout_chunk_size_rejects_zero(self, graph_file, capsys):
        path, _ = graph_file
        code = main(
            [
                "cluster",
                "--input",
                path,
                "--clusters",
                "2",
                "--readout-chunk-size",
                "0",
            ]
        )
        assert code == 1
        assert "readout_chunk_size" in capsys.readouterr().err

    def test_draw_threads_flag_is_gone(self, graph_file, capsys):
        path, _ = graph_file
        args = ["cluster", "--input", path, "--clusters", "2"]
        with pytest.raises(SystemExit) as exit_info:
            main(args + ["--draw-threads", "3"])
        assert exit_info.value.code == 2
        assert "--draw-threads" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--readout-shards", "2"),
            ("--shard-timeout", "5"),
            ("--shard-retries", "1"),
            ("--shard-workers", "2"),
            ("--shard-failure-mode", "degrade"),
        ],
    )
    def test_shard_flags_are_gone(self, graph_file, capsys, flag, value):
        """The readout runs in one process: its old shard flags are usage
        errors, not silently ignored."""
        path, _ = graph_file
        args = ["cluster", "--input", path, "--clusters", "2"]
        with pytest.raises(SystemExit) as exit_info:
            main(args + [flag, value])
        assert exit_info.value.code == 2
        assert flag in capsys.readouterr().err

    def test_profile_prints_stage_table(self, graph_file, capsys):
        path, _ = graph_file
        code = main(
            ["cluster", "--input", path, "--clusters", "2", "--shots", "64",
             "--seed", "1", "--profile"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "stage profile:" in out
        for stage in ("laplacian", "threshold", "readout", "embedding", "qmeans"):
            assert stage in out

    def test_profile_names_the_engine_eigensolve(self, graph_file, capsys):
        path, _ = graph_file
        base = ["cluster", "--input", path, "--clusters", "2", "--shots", "64",
                "--seed", "1", "--profile"]
        # the 24-node fixture graph pads to a 32-dimensional register;
        # without the flag the default, v3, runs
        for flag, solve in (
            ([], "eigh-mrrr(n=24)"),
            (["--spectral-engine", "v3"], "eigh-mrrr(n=24)"),
            (["--spectral-engine", "v1"], "eigh(D=32)"),
        ):
            assert main(base + flag) == 0
            rows = {
                line.split()[0]: line
                for line in capsys.readouterr().out.splitlines()
                if line.startswith("  ")
            }
            assert rows["laplacian"].endswith(f"[dense/{solve}]")
            assert "[" not in rows["threshold"]

    def test_unknown_spectral_engine_is_a_usage_error(self, graph_file, capsys):
        path, _ = graph_file
        # "v2" (NumPy's eigh on the graph block) was retired
        for engine in ("v9", "v2"):
            with pytest.raises(SystemExit) as info:
                main(["cluster", "--input", path, "--clusters", "2",
                      "--spectral-engine", engine])
            assert info.value.code == 2
            assert "--spectral-engine" in capsys.readouterr().err

    def test_save_stages_is_a_usage_error(self, graph_file, tmp_path, capsys):
        """Stage checkpoints live only in the store: the run-directory
        flag is gone, so argparse rejects it."""
        path, _ = graph_file
        with pytest.raises(SystemExit) as info:
            main(["cluster", "--input", path, "--clusters", "2",
                  "--save-stages", str(tmp_path / "stages")])
        assert info.value.code == 2
        assert "--save-stages" in capsys.readouterr().err
        assert not (tmp_path / "stages").exists()

    @pytest.mark.parametrize("store", [False, True], ids=["no-store", "store"])
    def test_resume_without_store_dir_errors(self, graph_file, tmp_path, capsys, store):
        """A store-backed run serves every stage it holds, so the resume
        flag is gone and argparse rejects it."""
        path, _ = graph_file
        argv = ["cluster", "--input", path, "--clusters", "2",
                "--resume-from", "readout"]
        if store:
            argv += ["--store-dir", str(tmp_path / "cas")]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "--resume-from" in capsys.readouterr().err
        assert not (tmp_path / "cas").exists()

    def test_resume_from_store_matches_the_full_run(
        self, graph_file, tmp_path, capsys, pristine_store
    ):
        """A rerun at another shot budget serves the two stages shots do
        not key and computes the rest, as a run without a store would."""
        path, _ = graph_file
        base = ["cluster", "--input", path, "--clusters", "2", "--seed", "2"]
        store = ["--store-dir", str(tmp_path / "cas")]
        assert main(base + ["--shots", "64"]) == 0
        direct_out = capsys.readouterr().out
        assert main(base + ["--shots", "128"] + store) == 0
        capsys.readouterr()
        assert main(base + ["--shots", "64", "--profile"] + store) == 0
        rerun_out = capsys.readouterr().out
        assert rerun_out.startswith(direct_out)
        rows = profile_rows(rerun_out)
        assert "store" in rows["laplacian"]
        assert "store" in rows["threshold"]
        assert all("computed" in rows[name] for name in STAGE_NAMES[2:])

    def test_a_run_without_store_dir_uses_no_store(
        self, graph_file, tmp_path, capsys, pristine_store
    ):
        """``--store-dir`` names the store of its own run only: a later run
        without it, in the same process, computes every stage."""
        path, _ = graph_file
        base = ["cluster", "--input", path, "--clusters", "2", "--shots",
                "64", "--seed", "2", "--profile"]
        assert main(base + ["--store-dir", str(tmp_path / "cas")]) == 0
        capsys.readouterr()
        assert main(base) == 0
        rows = profile_rows(capsys.readouterr().out)
        assert [rows[name].split()[3] for name in STAGE_NAMES] == (
            ["computed"] * len(STAGE_NAMES)
        )
        assert all("disk_hits=0" in rows[name] for name in STAGE_NAMES)

    def test_resume_from_an_empty_store_recomputes(
        self, graph_file, tmp_path, capsys, pristine_store
    ):
        """A stage the store lacks is a miss, not an error: it is
        recomputed and the labels equal a run without a store; a warm
        rerun then serves every stage."""
        path, _ = graph_file
        base = ["cluster", "--input", path, "--clusters", "2", "--shots",
                "128", "--seed", "2"]
        assert main(base) == 0
        direct_out = capsys.readouterr().out
        store = ["--store-dir", str(tmp_path / "cas"), "--profile"]
        assert main(base + store) == 0
        cold_out = capsys.readouterr().out
        assert cold_out.startswith(direct_out)
        assert all("computed" in row for row in profile_rows(cold_out).values())
        assert main(base + store) == 0
        warm_out = capsys.readouterr().out
        assert warm_out.startswith(direct_out)
        assert all("store" in row for row in profile_rows(warm_out).values())

    def test_stage_flags_rejected_for_classical(self, graph_file, capsys):
        path, _ = graph_file
        code = main(
            ["cluster", "--input", path, "--clusters", "2", "--method",
             "classical", "--profile"]
        )
        assert code == 1
        assert "--profile" in capsys.readouterr().err

    def test_classical_cluster(self, graph_file, capsys):
        path, _ = graph_file
        code = main(
            ["cluster", "--input", path, "--clusters", "2", "--method", "classical"]
        )
        assert code == 0
        assert "modularity:" in capsys.readouterr().out

    def test_missing_file_errors(self, capsys):
        code = main(["cluster", "--input", "/nonexistent.mixed", "--clusters", "2"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_auto_clusters(self, graph_file, capsys):
        path, truth = graph_file
        code = main(
            [
                "cluster",
                "--input",
                path,
                "--clusters",
                "auto",
                "--shots",
                "256",
                "--seed",
                "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        labels = [int(tok) for tok in out.splitlines()[0].split()[1:]]
        assert len(set(labels)) == len(set(truth))

    def test_auto_clusters_classical_rejected(self, graph_file, capsys):
        path, _ = graph_file
        code = main(
            [
                "cluster",
                "--input",
                path,
                "--clusters",
                "auto",
                "--method",
                "classical",
            ]
        )
        assert code == 1
        assert "quantum" in capsys.readouterr().err


class TestGenerateCommand:
    def test_generate_flow_graph(self, tmp_path, capsys):
        out_path = tmp_path / "flow.mixed"
        labels_path = tmp_path / "labels.txt"
        code = main(
            [
                "generate",
                "--kind",
                "flow",
                "--nodes",
                "30",
                "--clusters",
                "3",
                "--output",
                str(out_path),
                "--labels-output",
                str(labels_path),
            ]
        )
        assert code == 0
        graph = graph_io.load(out_path)
        assert graph.num_nodes == 30
        labels = np.loadtxt(labels_path, dtype=int)
        assert labels.size == 30

    def test_generate_random(self, tmp_path):
        out_path = tmp_path / "r.mixed"
        assert main(["generate", "--kind", "random", "--output", str(out_path)]) == 0
        assert graph_io.load(out_path).num_nodes == 60

    def test_generate_v2_version(self, tmp_path):
        v2_path = tmp_path / "v2.mixed"
        code = main(
            [
                "generate",
                "--kind",
                "mixed",
                "--nodes",
                "40",
                "--seed",
                "3",
                "--generator-version",
                "v2",
                "--output",
                str(v2_path),
            ]
        )
        assert code == 0
        v2_graph = graph_io.load(v2_path)
        assert v2_graph.num_nodes == 40
        # v2 is a different seed contract: same distribution, new stream
        v1_path = tmp_path / "v1.mixed"
        assert (
            main(
                [
                    "generate",
                    "--kind",
                    "mixed",
                    "--nodes",
                    "40",
                    "--seed",
                    "3",
                    "--output",
                    str(v1_path),
                ]
            )
            == 0
        )
        v1_graph = graph_io.load(v1_path)
        total_v1 = v1_graph.num_edges + v1_graph.num_arcs
        total_v2 = v2_graph.num_edges + v2_graph.num_arcs
        assert abs(total_v1 - total_v2) <= max(0.35 * total_v1, 10)

    def test_generate_sparse_v2_version(self, tmp_path, capsys):
        out = tmp_path / "s.mixed"
        code = main(
            [
                "generate",
                "--kind",
                "sparse",
                "--generator-version",
                "v2",
                "--nodes",
                "200",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

    def test_generate_rejects_version_for_random_kind(self, tmp_path, capsys):
        code = main(
            [
                "generate",
                "--kind",
                "random",
                "--generator-version",
                "v2",
                "--output",
                str(tmp_path / "r.mixed"),
            ]
        )
        assert code == 1
        assert "mixed/flow/sparse" in capsys.readouterr().err

    def test_generate_rejects_unknown_version(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(
                [
                    "generate",
                    "--generator-version",
                    "v9",
                    "--output",
                    str(tmp_path / "x.mixed"),
                ]
            )


class TestServeCommand:
    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--job-timeout", "nan"], "job_timeout"),
            (["--job-timeout", "-1"], "job_timeout"),
            (["--job-retries", "-1"], "job_retries"),
        ],
    )
    def test_bad_job_settings_fail_before_binding(
        self, flags, field, capsys, monkeypatch
    ):
        from repro.service.server import JobServer

        async def return_at_once(self):
            return None

        # Were the setting accepted, the server would return instead of
        # serving forever, and the exit code would read 0.
        monkeypatch.setattr(JobServer, "serve_forever", return_at_once)
        assert main(["serve", "--port", "0"] + flags) == 1
        assert field in capsys.readouterr().err


class TestBenchCommand:
    def test_c17(self, capsys):
        code = main(["bench", "--name", "c17", "--clusters", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "partition 0:" in out and "partition 1:" in out


class TestExperimentsCommand:
    def test_list(self, capsys):
        assert main(["experiments", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig1", "fig2", "fig3", "fig4", "table1", "table2"):
            assert name in out

    def test_run_writes_valid_artifact(self, tmp_path, capsys):
        from repro.experiments.runner import validate_artifact_file

        code = main(
            [
                "experiments",
                "--only",
                "fig1",
                "--trials",
                "1",
                "--out",
                str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fig1:" in out and "store disk_hits=" in out
        artifact = validate_artifact_file(tmp_path / "fig1.json")
        assert artifact["name"] == "fig1"
        assert artifact["spec"]["trials"] == 1

    def test_generator_version_recorded_in_artifact(self, tmp_path, capsys):
        from repro.experiments.runner import validate_artifact_file

        code = main(
            [
                "experiments",
                "--only",
                "fig1",
                "--trials",
                "1",
                "--generator-version",
                "v2",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        artifact = validate_artifact_file(tmp_path / "fig1.json")
        assert artifact["spec"]["fixed"]["generator_version"] == "v2"

    def test_readout_shards_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(
                ["experiments", "--only", "fig1", "--readout-shards", "2",
                 "--out", str(tmp_path)]
            )
        assert exit_info.value.code == 2
        assert "--readout-shards" in capsys.readouterr().err
        assert not (tmp_path / "fig1.json").exists()

    def test_unknown_experiment_errors(self, capsys):
        assert main(["experiments", "--only", "fig9"]) == 1
        assert "unknown experiment" in capsys.readouterr().err


class TestSpectrumCommand:
    def test_prints_low_spectrum(self, graph_file, capsys):
        path, _ = graph_file
        code = main(["spectrum", "--input", path, "--top", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("lambda_") == 4
        first = float(out.splitlines()[0].split("=")[1])
        assert first >= -1e-9

    @pytest.mark.parametrize("backend", ["auto", "dense", "sparse"])
    def test_every_backend_prints_the_numpy_spectrum(
        self, graph_file, capsys, backend
    ):
        path, _ = graph_file
        code = main(["spectrum", "--input", path, "--top", "3", "--backend", backend])
        out = capsys.readouterr().out
        printed = [float(line.split("=")[1]) for line in out.splitlines()]
        laplacian = hermitian_laplacian(graph_io.load(path))
        assert code == 0
        assert np.allclose(printed, np.linalg.eigvalsh(laplacian)[:3], atol=1e-6)

    @pytest.mark.parametrize("top", ["0", "-2"])
    def test_a_top_below_one_is_a_usage_error(self, graph_file, capsys, top):
        """``--top`` is checked at the boundary: argparse exits 2 before the
        graph is read or the eigensolver runs."""
        path, _ = graph_file
        with pytest.raises(SystemExit) as info:
            main(["spectrum", "--input", path, "--top", top])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "--top" in err and f"must be >= 1, got {top}" in err


@pytest.mark.parametrize("command", ["cluster", "spectrum", "experiments"])
@pytest.mark.parametrize("backend", ["gpu", "array"])
def test_unknown_backend_is_a_usage_error(graph_file, capsys, command, backend):
    """``--backend`` accepts auto, dense and sparse only; ``array`` (the
    array-API accelerator backend) was retired."""
    path, _ = graph_file
    argv = {
        "cluster": ["cluster", "--input", path, "--clusters", "2"],
        "spectrum": ["spectrum", "--input", path],
        "experiments": ["experiments", "--only", "fig1"],
    }[command]
    with pytest.raises(SystemExit) as info:
        main(argv + ["--backend", backend])
    assert info.value.code == 2
    assert "--backend" in capsys.readouterr().err
