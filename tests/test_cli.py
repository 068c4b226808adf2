"""Tests for the command-line interface."""

import argparse
import inspect

import numpy as np
import pytest
import scipy.io

from repro.apps import train_sparse_embedding
from repro.baselines import ALGORITHMS
from repro.cli import _check_kernel, build_parser, main
from repro.data import load
from repro.sparse import CsrMatrix, kernels

from .conftest import KERNELS_AT_IMPORT


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_multiply_defaults(self):
        args = build_parser().parse_args(["multiply"])
        assert args.dataset == "uk"
        assert args.ranks == 16
        assert args.d == 128

    def test_embed_lr_defaults_to_the_library_default(self):
        lr = inspect.signature(train_sparse_embedding).parameters["learning_rate"]
        assert build_parser().parse_args(["embed"]).lr == lr.default

    def test_model_ps_parsing(self):
        args = build_parser().parse_args(["model", "--ps", "4,8"])
        assert args.ps == "4,8"


class TestCommands:
    def test_multiply_runs(self, capsys):
        rc = main(
            [
                "multiply", "--dataset", "cora", "--scale", "0.3",
                "-p", "2", "--d", "8", "--sparsity", "0.5",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "multiply time" in out
        assert "bytes on wire" in out

    def test_multiply_with_baseline(self, capsys):
        rc = main(
            [
                "multiply", "--dataset", "cora", "--scale", "0.3",
                "-p", "4", "--d", "8", "--algorithm", "SUMMA-2D",
            ]
        )
        assert rc == 0
        assert "SUMMA-2D" in capsys.readouterr().out

    def test_multiply_recovers_from_an_injected_crash(self, capsys, monkeypatch):
        """``--faults`` reaches the one-shot's session: the crash is
        retried and the lost rank recovered, and C equals the fault-free
        run's."""
        from repro import cli

        products, ts_spgemm = [], ALGORITHMS["TS-SpGEMM"]

        def recording(*args, **kwargs):
            result = ts_spgemm(*args, **kwargs)
            products.append(result.C)
            return result

        monkeypatch.setitem(cli.ALGORITHMS, "TS-SpGEMM", recording)
        argv = ["multiply", "--dataset", "uk", "--scale", "0.25", "-p", "4"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--faults", "crash@1,task=2"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert ["fault", "retries", "1"] in rows
        assert ["rank", "recoveries", "1"] in rows
        fault_free, faulted = products
        assert faulted.equal(fault_free)

    @pytest.mark.parametrize("command", ["multiply", "bfs"])
    @pytest.mark.parametrize("algorithm", ["PETSc-1D", "SUMMA-2D", "SUMMA-3D"])
    def test_faults_need_a_recoverable_algorithm(self, capsys, command, algorithm):
        """Only TS-SpGEMM sessions inject faults: another algorithm would
        run fault-free, so the flag is refused rather than ignored."""
        with pytest.raises(SystemExit) as exc:
            main([
                command, "--dataset", "cora", "--scale", "0.3",
                "--algorithm", algorithm, "--faults", "crash@1,task=2",
            ])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --faults" in err and algorithm in err

    @pytest.mark.parametrize("command", ["multiply", "bfs"])
    def test_unknown_algorithm_lists_the_choices(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--dataset", "cora", "--scale", "0.3", "--algorithm", "FOO"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'FOO'" in err
        assert all(name in err for name in sorted(ALGORITHMS))

    @pytest.mark.parametrize("command", ["multiply", "bfs"])
    def test_algorithm_choices_are_the_four_registry_names(self, capsys, command):
        """Alg 1 is offered once, as the ``PETSc-1D`` baseline; its old
        second registry name (spelled in two parts here) is refused."""
        subparsers = next(
            a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        option = next(
            a for a in subparsers.choices[command]._actions if a.dest == "algorithm"
        )
        assert list(option.choices) == ["PETSc-1D", "SUMMA-2D", "SUMMA-3D", "TS-SpGEMM"]
        retired = "-".join(["TS-SpGEMM", "Naive"])
        with pytest.raises(SystemExit) as exc:
            main([command, "--dataset", "cora", "--scale", "0.3", "--algorithm", retired])
        assert exc.value.code == 2
        assert f"invalid choice: '{retired}'" in capsys.readouterr().err

    def test_bfs_runs(self, capsys):
        rc = main(
            ["bfs", "--dataset", "cora", "--scale", "0.3", "--sources", "4", "-p", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "MSBFS" in out
        assert "mean vertices reached" in out
        header = next(line for line in out.splitlines() if "frontier nnz" in line)
        assert header.split() == [
            "level", "frontier", "nnz", "comm", "nnz", "rounds", "runtime"
        ]

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["multiply", "-p", "0"], "-p/--ranks"),
            (["bfs", "--sources", "-3"], "--sources"),
            (["bfs", "--sources", "0"], "--sources"),
        ],
    )
    def test_counts_must_be_positive(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--dataset", "cora", "--scale", "0.3"])
        assert exc.value.code == 2
        assert f"argument {flag}: must be a positive integer" in capsys.readouterr().err

    def test_bfs_title_counts_the_sources_traversed(self, capsys):
        n = load("cora", scale=0.3, seed=0).nrows
        rc = main(
            ["bfs", "--dataset", "cora", "--scale", "0.3", "--sources", "5000", "-p", "2"]
        )
        assert rc == 0
        assert f"MSBFS: {n} sources on cora" in capsys.readouterr().out

    def test_embed_runs(self, capsys):
        rc = main(
            [
                "embed", "--dataset", "cora", "--scale", "0.2",
                "-p", "2", "--d", "8", "--epochs", "2",
            ]
        )
        assert rc == 0
        assert "link-prediction accuracy" in capsys.readouterr().out

    def test_influence_runs(self, capsys):
        rc = main(
            [
                "influence", "--dataset", "cora", "--scale", "0.3",
                "-p", "2", "--k", "2", "--samples", "2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "influence maximization" in out
        assert "seed vertex" in out

    @pytest.mark.parametrize(
        "command, flag",
        [("bfs", "--reuse-plan"), ("embed", "--reuse-plan"), ("bfs", "--driver-gather")],
    )
    def test_removed_flags_are_refused(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, "--dataset", "cora", "--scale", "0.3", flag, "off"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_bfs_kernel_flag(self, capsys):
        """--kernel is threaded through bfs (not just multiply)."""
        rc = main(
            [
                "bfs", "--dataset", "cora", "--scale", "0.3", "--sources", "4",
                "-p", "2", "--kernel", "spa",
            ]
        )
        assert rc == 0
        assert "MSBFS" in capsys.readouterr().out

    def test_embed_kernel_and_negative_refresh(self, capsys):
        rc = main(
            [
                "embed", "--dataset", "cora", "--scale", "0.2", "-p", "2",
                "--d", "8", "--epochs", "3", "--kernel", "esc-vectorized",
                "--negative-refresh", "2",
            ]
        )
        assert rc == 0
        assert "link-prediction accuracy" in capsys.readouterr().out

    def test_embed_driver_gather_ablation(self, capsys):
        rc = main(
            [
                "embed", "--dataset", "cora", "--scale", "0.2", "-p", "2",
                "--d", "8", "--epochs", "2", "--driver-gather", "on",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "driver bytes" in out
        assert "link-prediction accuracy" in out

    @pytest.mark.parametrize(
        "command, extra", [("bfs", ["--sources", "4"]), ("serve", ["--queries", "6"])]
    )
    def test_kernel_that_cannot_run_booleans_is_refused(
        self, capsys, monkeypatch, command, extra
    ):
        """bfs and serve multiply over bool_and_or: a plus_times-only
        kernel exits 2 before any session is built, naming exactly the
        kernels that can (no RankError traceback, no "served ok 1 /
        failed 5")."""
        monkeypatch.setattr(kernels, "_REGISTRY", dict(KERNELS_AT_IMPORT))
        argv = [command, "--dataset", "cora", "--scale", "0.05", "-p", "4"]
        with pytest.raises(SystemExit) as exc:
            main(argv + extra + ["--kernel", "scipy"])
        assert exc.value.code == 2
        err = capsys.readouterr()
        assert "'scipy' cannot run the bool_and_or products" in err.err
        able = err.err.rsplit("choose from ", 1)[1].strip().split(", ")
        assert able == ["auto", "esc-vectorized", "spa"]
        assert err.out == ""

    @pytest.mark.parametrize("kernel", ["auto", "esc-vectorized", "spa"])
    def test_kernel_that_runs_booleans_passes_the_check(self, kernel):
        parser = build_parser()
        for command in ("bfs", "serve"):
            _check_kernel(parser, parser.parse_args([command, "--kernel", kernel]))

    def test_plus_times_commands_keep_scipy(self):
        parser = build_parser()
        for command in ("multiply", "embed"):
            _check_kernel(parser, parser.parse_args([command, "--kernel", "scipy"]))

    @pytest.mark.parametrize("kernel", ["spa-rowwise", "hash-rowwise", "hash"])
    def test_rowwise_kernels_are_no_longer_choices(self, capsys, kernel):
        for command in ("multiply", "bfs", "embed", "serve"):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args([command, "--kernel", kernel])
            assert exc.value.code == 2
            assert f"invalid choice: '{kernel}'" in capsys.readouterr().err

    def test_bfs_and_embed_accept_kernel_choices(self):
        for cmd in ("bfs", "embed"):
            args = build_parser().parse_args([cmd, "--kernel", "spa"])
            assert args.kernel == "spa"

    def test_model_runs(self, capsys):
        rc = main(["model", "--ps", "8,64"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "TS-SpGEMM" in out and "SUMMA-2D" in out

    def test_matrix_market_input(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        dense = (rng.random((20, 20)) < 0.2) * 1.0
        np.fill_diagonal(dense, 0)
        mat = CsrMatrix.from_dense(dense)
        path = tmp_path / "g.mtx"
        scipy.io.mmwrite(path, mat.to_scipy())
        rc = main(["multiply", "--dataset", str(path), "-p", "2", "--d", "4"])
        assert rc == 0
