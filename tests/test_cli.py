"""Tests for the command-line front end, driven in-process through main()."""

import argparse
import math

import numpy as np
import pytest

import rieszlab.cli as cli
from rieszlab.quadrature import NonConvergenceError


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestKernelCommand:
    def test_single_pair(self, capsys):
        # the second pair sits 1e-7 from the diagonal
        for argv, x in (
            (("--alpha", "1", "--x", "0.5", "--y", "1.25"), "0.5"),
            (("--alpha", "2,2", "--x", "0.4,0.3", "--y", "0.4,0.3000001"), "0.4,0.3"),
        ):
            code, out, _ = run(capsys, "kernel", *argv)
            assert code == 0
            lines = out.splitlines()
            assert lines[0] == "x;y;log_value;sign;diagnostics"
            assert len(lines) == 2
            fields = lines[1].split(";")
            assert fields[0] == x and fields[1] == argv[-1]
            assert math.isfinite(float(fields[2]))
            assert fields[3] in ("+1", "-1")
            assert fields[4].startswith("subdivisions=")

    def test_deterministic_output(self, capsys):
        # negative coordinates need the equals syntax to survive argparse
        args = ("kernel", "--alpha", "2,1", "--x", "1.1,0.3", "--y=-0.4,2.0")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_diagonal_rejected(self, capsys):
        code, _, err = run(
            capsys, "kernel", "--alpha", "1", "--x", "0.5", "--y", "0.5"
        )
        assert code == 2
        assert "diagonal" in err

    def test_non_finite_point_rejected(self, capsys):
        # refused before any quadrature runs, so the exit is immediate
        for bad in ("nan", "inf"):
            code, out, err = run(
                capsys, "kernel", "--alpha", "1,0", "--x", "0.2,0.1", "--y", f"{bad},0"
            )
            assert code == 2
            assert "finite" in err
            assert out == ""

    def test_bad_alpha(self, capsys):
        code, _, err = run(
            capsys, "kernel", "--alpha", "a,b", "--x", "0.5", "--y", "1.0"
        )
        assert code == 2
        assert "invalid input" in err

    def test_dimension_mismatch(self, capsys):
        code, _, err = run(capsys, "kernel", "--alpha", "1", "--x", "0.5,0.2", "--y", "1.0")
        assert code == 2
        assert "dimension" in err

    def test_missing_points(self, capsys):
        code, _, _ = run(capsys, "kernel", "--alpha", "1")
        assert code == 2

    def test_batch_file(self, capsys, tmp_path):
        batch = tmp_path / "pairs.txt"
        batch.write_text(
            "# comment line\n0.5;1.25\n\n-0.3;2.0  # trailing comment\n"
        )
        code, out, _ = run(capsys, "kernel", "--alpha", "1", "--batch", str(batch))
        assert code == 0
        assert len(out.splitlines()) == 3

    def test_batch_file_bad_line(self, capsys, tmp_path):
        batch = tmp_path / "pairs.txt"
        batch.write_text("0.5,1.25\n")
        code, _, _ = run(capsys, "kernel", "--alpha", "1", "--batch", str(batch))
        assert code == 2

    def test_nonconvergence_maps_to_exit_three(self, capsys, monkeypatch):
        def raiser(*args, **kwargs):
            raise NonConvergenceError("synthetic", subdivisions=1, err_logmag=0.0)

        monkeypatch.setattr(cli, "riesz_kernel", raiser)
        code, _, err = run(
            capsys, "kernel", "--alpha", "1", "--x", "0.5", "--y", "1.0"
        )
        assert code == 3
        assert "did not converge" in err


class TestVerifyCommand:
    def test_l2_norms_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "l2-norms")
        assert code == 0
        lines = out.splitlines()
        assert all(line.startswith("PASS [l2-norms]") for line in lines[:-1])
        assert lines[-1] == "all checks passed"

    def test_single_bound_with_count(self, capsys):
        code, out, _ = run(
            capsys, "--count", "64", "verify", "lemma-bounds", "--which", "step1-far"
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("PASS [lemma-bounds] bound step1-far")

    def test_which_accepts_registry_aliases(self, capsys):
        code, out, _ = run(
            capsys, "--count", "128", "verify", "lemma-bounds", "--which", "5.2.1"
        )
        assert code == 0
        assert "bound case-2.1" in out

    def test_which_requires_lemma_bounds(self, capsys):
        code, _, err = run(capsys, "verify", "l2-norms", "--which", "step1-far")
        assert code == 2
        assert "lemma-bounds" in err

    def test_which_and_all_conflict(self, capsys):
        code, _, err = run(
            capsys, "verify", "lemma-bounds", "--which", "step1-far", "--all"
        )
        assert code == 2
        assert "mutually exclusive" in err

    def test_unknown_bound_name(self, capsys):
        code, _, _ = run(capsys, "verify", "lemma-bounds", "--which", "nope")
        assert code == 2

    def test_unknown_suite_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["verify", "nope"])

    def test_json_report(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run(
            capsys,
            "--count",
            "64",
            "verify",
            "lemma-bounds",
            "--which",
            "step1-far",
            "--out",
            str(out_path),
        )
        assert code == 0
        import json

        report = json.loads(out_path.read_text())
        assert report["config"]["count"] == 64
        assert report["config"]["which"] == "step1-far"
        entries = report["suites"]["lemma-bounds"]
        assert len(entries) == 1 and entries[0]["ok"] is True


class TestCounterexampleCommand:
    CONFIG = (
        "# coarse settings for fast runs\n"
        "grid_axis = 12\n"
        "grid_perp = 4\n"
    )

    def test_single_eta_reports_missing_fit(self, capsys, tmp_path):
        cfg = tmp_path / "coarse.cfg"
        cfg.write_text(self.CONFIG)
        code, out, _ = run(
            capsys,
            "--config",
            str(cfg),
            "counterexample",
            "--alpha",
            "2,1",
            "--etas",
            "4",
        )
        # one eta cannot support a growth fit, so the expectation fails
        assert code == 4
        assert "eta=4 quasi_norm=" in out
        assert "slope=nan" in out
        assert "note=growth fit needs >= 3 etas" in out
        assert "FAIL growth expectation" in out

    def test_deterministic_with_reports(self, capsys, tmp_path):
        cfg = tmp_path / "coarse.cfg"
        cfg.write_text(self.CONFIG)
        outs = []
        contents = []
        for tag in ("one", "two"):
            prefix = tmp_path / tag
            code, out, _ = run(
                capsys,
                "--config",
                str(cfg),
                "counterexample",
                "--alpha",
                "2,1",
                "--etas",
                "4",
                "--out",
                str(prefix),
            )
            assert code == 4
            outs.append(out.replace(tag, ""))
            contents.append(
                (
                    (tmp_path / f"{tag}.csv").read_bytes(),
                    (tmp_path / f"{tag}.json").read_bytes(),
                )
            )
        assert outs[0] == outs[1]
        assert contents[0] == contents[1]

    def test_config_file_is_applied(self, capsys, tmp_path):
        import json

        cfg = tmp_path / "coarse.cfg"
        cfg.write_text(self.CONFIG)
        prefix = tmp_path / "run"
        run(
            capsys,
            "--config",
            str(cfg),
            "counterexample",
            "--alpha",
            "2,1",
            "--etas",
            "4",
            "--out",
            str(prefix),
        )
        summary = json.loads((tmp_path / "run.json").read_text())
        assert summary["config"]["grid_axis"] == 12
        assert summary["config"]["grid_perp"] == 4
        assert "ball_angular" not in summary["config"]
        # the ball rule's node count and error, per eta
        assert summary["ball_nodes"] == [64]
        assert 0.0 < summary["ball_quadrature_error"][0] <= 1e-5

    def test_ball_rule_key_refused(self, capsys, tmp_path):
        # the ball's node count follows from its error, so the old volume
        # rule's keys are unknown
        cfg = tmp_path / "old.cfg"
        cfg.write_text("ball_angular = 16\n")
        code, out, err = run(
            capsys, "--config", str(cfg), "counterexample", "--alpha", "2,1", "--etas", "4"
        )
        assert code == 2
        assert out == ""
        assert "unknown config key" in err

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("grid_axes = 12\n")
        code, _, err = run(
            capsys, "--config", str(cfg), "counterexample", "--alpha", "2,1"
        )
        assert code == 2
        assert "unknown config key" in err

    def test_malformed_config_line(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("grid_axis 12\n")
        code, _, _ = run(
            capsys, "--config", str(cfg), "counterexample", "--alpha", "2,1"
        )
        assert code == 2

    @pytest.mark.parametrize("key", ["grid_perp", "grid_axis"])
    def test_zero_grid_count_in_config_file(self, capsys, tmp_path, key):
        # a non-positive grid count is rejected with a message naming the
        # key, not with an error from deep inside the quadrature
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(f"{key} = 0\n")
        code, _, err = run(
            capsys,
            "--config",
            str(cfg),
            "counterexample",
            "--alpha",
            "2,1",
            "--etas",
            "4,6,8",
        )
        assert code == 2
        assert key in err

    def test_eta_gap_validation(self, capsys):
        code, _, err = run(capsys, "counterexample", "--alpha", "2,1", "--etas", "2")
        assert code == 2
        assert "gap" in err

    def test_infinite_eta_maps_to_exit_two(self, capsys):
        code, out, err = run(capsys, "counterexample", "--alpha", "1,0", "--etas", "4,6,inf")
        assert code == 2
        assert out == ""
        assert "etas must be positive and finite" in err

    def test_unsupported_dimension_maps_to_exit_two(self, capsys):
        # the tube experiment has ball nodes for n <= 2 only
        code, out, err = run(capsys, "counterexample", "--alpha", "1,0,0", "--etas", "4")
        assert code == 2
        assert out == ""
        assert "n = 1 or 2" in err


class TestConfigResolution:
    def make_args(self, config=None, **flags):
        base = {"config": config, "seed": None, "count": None, "jobs": None}
        base.update(flags)
        return argparse.Namespace(**base)

    def test_defaults(self):
        cfg = cli._resolve_config(self.make_args())
        assert cfg == {"seed": 7, "count": 384, "jobs": 1}

    def test_file_below_flags(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("jobs = 3\ncount = 100\n")
        cfg = cli._resolve_config(self.make_args(config=str(path)))
        assert cfg["jobs"] == 3 and cfg["count"] == 100
        cfg = cli._resolve_config(self.make_args(config=str(path), jobs=2))
        assert cfg["jobs"] == 2 and cfg["count"] == 100

    def test_missing_config_file_maps_to_exit_two(self, capsys):
        code, _, _ = run(
            capsys, "--config", "/nonexistent.cfg", "counterexample", "--alpha", "2,1"
        )
        assert code == 2
