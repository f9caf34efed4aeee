"""Command-line entry points, exit codes, output artifacts."""

import json
import re

import pytest

from coopmpc import SolverOptions, build_problem, example_config_path, initial_state, load_config
from coopmpc.cli import main
from coopmpc.qp import INFEASIBLE

from support import noiter_verdicts
from test_config import flagship_dict, minimal_single_agent


def write_cfg(tmp_path, doc, name="problem.cfg"):
    path = tmp_path / name
    path.write_text(json.dumps(doc) + "\n")
    return str(path)


def run(args):
    return main(list(args))


def assert_certified_at_first_box_qp(cfg):
    """Every agent of the configured initial state fails on the certificate's
    verdict, with its budget unused: the residual of the search's first box
    QP proves its ball out of reach, and the certificate is iteration 3."""
    config = load_config(cfg)
    problem = build_problem(config)
    for sol, calls, margin in noiter_verdicts(problem, initial_state(config, problem)):
        assert calls == 1
        assert (sol.status, sol.iterations, sol.margin) == (INFEASIBLE, 1 + calls + 1, margin)


class TestSynthesize:
    def test_flagship_report(self, tmp_path, capsys):
        code = run(["synthesize", "--config", str(example_config_path()), "--out-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "decrease certificate: holds" in out
        report = json.loads((tmp_path / "synthesis_report.json").read_text())
        assert report["decrease_global"]["holds"] is True
        assert report["alpha"] == 3.0
        assert report["certified"] is True
        assert len(report["gains"]) == 3
        assert all(len(K) == 1 and len(K[0]) == 6 for K in report["gains"])
        assert all(r < 1.0 for r in report["closed_loop_spectral_radii"])
        assert 0.0 <= report["lyapunov_residual"] < 1e-6
        assert len(report["ball_certificates"]) == 3

    def test_single_agent_scaling(self, tmp_path):
        cfg = write_cfg(tmp_path, minimal_single_agent())
        assert run(["synthesize", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "synthesis_report.json").read_text())
        assert report["alpha"] == 1.0
        assert report["certified"] is True


class TestCheck:
    def test_flagship_passes(self, capsys):
        assert run(["check", "--config", str(example_config_path())]) == 0
        out = capsys.readouterr().out
        assert "decrease certificate: holds" in out
        for i in (1, 2, 3):
            assert "agent %d:" % i in out
        (line,) = [line for line in out.splitlines() if line.startswith("noiter price: ")]
        price = float(line.split()[2])
        assert price == pytest.approx(build_problem(load_config(example_config_path())).noiter_price()[0], rel=1e-5)
        assert 0.0 <= price < 1.0

    def test_aggressive_design_weights_fail(self, tmp_path, capsys):
        doc = flagship_dict()
        doc["lqr"]["Q"] = [10.0, 5.0, 0.2]
        doc["lqr"]["R"] = [0.1, 0.1, 0.01]
        cfg = write_cfg(tmp_path, doc)
        assert run(["check", "--config", cfg]) == 3
        assert "certification failure" in capsys.readouterr().err

    def test_weak_explicit_terminal_weight_fails(self, tmp_path, capsys):
        doc = flagship_dict()
        doc["cost"]["P"] = [
            [[0.01 if r == c else 0.0 for c in range(6)] for r in range(6)]
            for _ in range(3)
        ]
        cfg = write_cfg(tmp_path, doc)
        assert run(["check", "--config", cfg]) == 3
        assert "FAILS" in capsys.readouterr().out


class TestTransform:
    def test_flagship_tables(self, tmp_path):
        code = run(["transform", "--config", str(example_config_path()), "--out-dir", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "transform.json").read_text())
        assert doc["orthogonal_round_trip"] is True
        assert doc["bar_dims"] == [6, 6, 6]
        assert len(doc["T"]) == 18
        assert all(sorted(set(row)) in ([0.0], [0.0, 1.0]) for row in doc["T"])
        assert len(doc["Abar"]) == 3 and len(doc["Qbar"]) == 18


class TestSimulate:
    def test_short_run_artifacts(self, tmp_path, capsys):
        code = run([
            "simulate", "--config", str(example_config_path()),
            "--out-dir", str(tmp_path), "--steps", "5",
        ])
        assert code == 0
        lines = (tmp_path / "trace.csv").read_text().strip().split("\n")
        assert len(lines) == 6
        assert lines[0].startswith("t,xbar_0")
        timing = (tmp_path / "timing_summary.csv").read_text()
        assert timing.startswith("method,worst_case_s,average_s")
        assert "5 steps" in capsys.readouterr().out

    def test_strategy_override(self, tmp_path):
        code = run([
            "simulate", "--config", str(example_config_path()), "--out-dir", str(tmp_path),
            "--steps", "3", "--strategy", "coop", "--iters", "2",
        ])
        assert code == 0
        body = (tmp_path / "trace.csv").read_text()
        assert body.count("\n") == 4

    def test_uncertified_blocked_then_forced(self, tmp_path):
        doc = flagship_dict()
        doc["cost"]["P"] = [
            [[0.01 if r == c else 0.0 for c in range(6)] for r in range(6)]
            for _ in range(3)
        ]
        cfg = write_cfg(tmp_path, doc)
        assert run(["simulate", "--config", cfg, "--out-dir", str(tmp_path), "--steps", "4"]) == 3
        assert not (tmp_path / "trace.csv").exists()
        forced = run([
            "simulate", "--config", cfg, "--out-dir", str(tmp_path),
            "--steps", "4", "--no-check",
        ])
        assert forced == 0
        assert (tmp_path / "trace.csv").exists()

    def test_starved_solver_reported(self, tmp_path, capsys):
        doc = flagship_dict()
        doc["sim"]["x0"] = [1000.0] * 18
        doc["solver"]["max_iters"] = 40
        cfg = write_cfg(tmp_path, doc)
        assert run(["simulate", "--config", cfg, "--out-dir", str(tmp_path), "--steps", "6"]) == 4
        err = capsys.readouterr().err
        assert "solver failure" in err
        # one line per failed step, with its status and terminal-ball margin
        failures = re.findall(r"t=(\d+) (\w+) \(terminal-ball margin (\S+)\)", err)
        assert [(t, status) for t, status, _ in failures] == [(str(t), "infeasible") for t in range(3)]
        assert all(float(margin) < 0.0 for _, _, margin in failures)
        assert not (tmp_path / "trace.csv").exists()
        assert_certified_at_first_box_qp(cfg)

    def test_loop_shorter_than_the_abort_rule_reported(self, tmp_path, capsys):
        # two failed steps end the loop before three in a row abort it
        doc = flagship_dict()
        doc["sim"]["x0"] = [1000.0] * 18
        cfg = write_cfg(tmp_path, doc)
        assert run(["simulate", "--config", cfg, "--out-dir", str(tmp_path), "--steps", "2"]) == 4
        assert "solved none of its 2 steps" in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()
        assert_certified_at_first_box_qp(cfg)


class TestCompare:
    def test_flagship_table(self, tmp_path, capsys):
        code = run(["compare", "--config", str(example_config_path()), "--out-dir", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "compare.csv").read_text().strip().split("\n")
        assert lines[0] == "method,GC,GC_loss,CC,CC_loss"
        assert len(lines) == 8
        first = lines[1].split(",")
        assert first[0] == "centralized"
        assert float(first[2]) == 0.0 and float(first[4]) == 0.0
        methods = [ln.split(",")[0] for ln in lines[1:]]
        assert methods == ["centralized", "coop_5", "coop_4", "coop_3", "coop_2", "coop_1", "noiter"]
        assert "wrote" in capsys.readouterr().out

    def test_zero_state_has_zero_losses(self, tmp_path):
        doc = flagship_dict()
        doc["sim"]["x0"] = [0.0] * 18
        cfg = write_cfg(tmp_path, doc)
        assert run(["compare", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "compare.csv").read_text().strip().split("\n")[1:]
        assert len(lines) == 7
        assert all(float(ln.split(",")[2]) == 0.0 and float(ln.split(",")[4]) == 0.0 for ln in lines)


class TestMonteCarlo:
    def test_small_sample(self, tmp_path):
        code = run([
            "montecarlo", "--config", str(example_config_path()),
            "--out-dir", str(tmp_path), "--draws", "5",
        ])
        assert code == 0
        doc = json.loads((tmp_path / "montecarlo.json").read_text())
        assert doc["draws"] == 5
        assert doc["strategy"] == "noiter"
        assert len(doc["per_draw_losses"]) == 5
        kept = [v for v in doc["per_draw_losses"] if v is not None]
        assert doc["excluded"] == 5 - len(kept)
        assert len(doc["excluded_draws"]) == doc["excluded"]

    def test_no_draw_kept_is_a_solver_failure(self, tmp_path, capsys):
        # every state drawn from +-500 puts some agent's ball out of reach
        doc = flagship_dict()
        doc["sim"]["bounds"] = [-500.0, 500.0]
        cfg = write_cfg(tmp_path, doc)
        assert run(["montecarlo", "--config", cfg, "--out-dir", str(tmp_path), "--draws", "3"]) == 4
        assert "solver failure: Monte Carlo excluded all of its 3 draws" in capsys.readouterr().err

        def reject(name):
            raise ValueError("not strict JSON: %s" % name)

        doc = json.loads((tmp_path / "montecarlo.json").read_text(), parse_constant=reject)
        assert (doc["draws"], doc["excluded"]) == (3, 3)
        assert doc["loss_mean"] is None and doc["loss_worst"] is None
        assert doc["per_draw_losses"] == [None] * 3
        assert [rec["status"] for rec in doc["excluded_draws"]] == [INFEASIBLE] * 3

    def test_reversed_bounds_are_a_configuration_error(self, tmp_path, capsys):
        doc = flagship_dict()
        doc["sim"]["bounds"] = [8, -8]
        out = tmp_path / "out"
        assert run(["montecarlo", "--config", write_cfg(tmp_path, doc), "--out-dir", str(out), "--draws", "3"]) == 2
        assert "configuration error: sim.bounds" in capsys.readouterr().err
        assert not out.exists()


class TestFailureModes:
    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.cfg"
        path.write_text("{\n  not json\n")
        assert run(["check", "--config", str(path)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert run(["check", "--config", "/nonexistent/problem.cfg"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_pinned_unstable_gains(self, tmp_path, capsys):
        doc = flagship_dict()
        doc["lqr"]["K"] = [[[0.0] * 6], [[0.0] * 6], [[0.0] * 6]]
        cfg = write_cfg(tmp_path, doc)
        assert run(["synthesize", "--config", cfg, "--out-dir", str(tmp_path)]) == 3
        assert "certification failure" in capsys.readouterr().err

    def test_bad_strategy_choice(self, tmp_path):
        with pytest.raises(SystemExit):
            run(["simulate", "--config", str(example_config_path()), "--strategy", "magic"])

    @pytest.mark.parametrize(
        "args",
        [
            ["simulate", "--steps", "0"],
            ["simulate", "--steps", "-2"],
            ["simulate", "--strategy", "coop", "--iters", "0"],
            ["compare", "--iters", "0"],
            ["montecarlo", "--draws", "0"],
            ["montecarlo", "--draws", "-1"],
        ],
    )
    def test_count_below_one_is_a_configuration_error(self, tmp_path, capsys, args):
        code = run([args[0], "--config", str(example_config_path()), "--out-dir", str(tmp_path)] + args[1:])
        assert code == 2
        assert "configuration error: %s: must be an integer >= 1" % args[-2] in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["simulate", "compare", "montecarlo"])
    def test_negative_seed_is_a_configuration_error(self, tmp_path, capsys, command):
        code = run([command, "--config", str(example_config_path()), "--out-dir", str(tmp_path), "--seed", "-1"])
        assert code == 2
        assert "configuration error: --seed: must be an integer >= 0" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_configured_zero_steps_rejected(self, tmp_path, capsys):
        doc = flagship_dict()
        doc["sim"]["steps"] = 0
        out = tmp_path / "out"
        assert run(["simulate", "--config", write_cfg(tmp_path, doc), "--out-dir", str(out)]) == 2
        assert "sim.steps" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("entry", [float("nan"), "a"])
    def test_bad_configured_state_is_a_configuration_error(self, tmp_path, capsys, entry):
        doc = flagship_dict()
        doc["sim"]["x0"] = [entry] * len(doc["sim"]["x0"])
        out = tmp_path / "out"
        assert run(["simulate", "--config", write_cfg(tmp_path, doc), "--out-dir", str(out), "--steps", "2"]) == 2
        assert "configuration error: sim.x0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["check"], ["simulate", "--steps", "3"]])
    @pytest.mark.parametrize(
        "path, value",
        [
            (("input_box", 1), -4.0),
            (("input_box", 1), float("nan")),
            (("input_box", 1), "4"),
            (("terminal_radius", 0), -1.0),
            (("terminal_radius", 0), float("nan")),
            (("terminal_radius", 0), "1"),
            (("horizon",), True),
            (("cost", "R"), 1.0),
            (("cost", "rho"), 1.0),
            (("cost", "rho"), [True, True, True]),
            (("cost", "rho", 2), float("inf")),
            (("cost", "Q", 0, 0, 0), "10"),
            (("lqr", "Q"), 1.0),
            (("lqr", "K"), 5),
            (("lqr", "Q", 0), -1.0),
            (("lqr", "Q", 0), 0.0),
            (("lqr", "R", 0), 0.0),
            (("lqr", "R", 0), -1.0),
            (("subsystems", "A", 0, 0, 0, 0), "x"),
            (("cost", "Q", 0, 0), [1.0, 2.0]),
            (("subsystems", "dims", 0, 0), 1.5),
            (("subsystems", "dims", 0, 0), "2"),
        ],
    )
    def test_malformed_config_is_a_configuration_error(self, tmp_path, capsys, command, path, value):
        doc = flagship_dict()
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, doc)
        assert run([command[0], "--config", cfg, "--out-dir", str(out)] + command[1:]) == 2
        assert "configuration error: " in capsys.readouterr().err
        assert not out.exists()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit):
            run(["--version"])
        assert capsys.readouterr().out.startswith("coopmpc ")


class TestArtifactFormats:
    """Key order and CSV headers of every artifact on the shipped config.

    The JSON records are written from their dataclasses, so a field that is
    renamed or reordered changes an artifact and must fail here.
    """

    def artifacts(self, tmp_path, *commands):
        for command in commands:
            args = command.split()
            cfg = str(example_config_path())
            assert run([args[0], "--config", cfg, "--out-dir", str(tmp_path)] + args[1:]) == 0

    def test_json_keys(self, tmp_path):
        self.artifacts(tmp_path, "synthesize", "transform", "montecarlo --draws 20")
        report = json.loads((tmp_path / "synthesis_report.json").read_text())
        assert list(report) == [
            "gains", "closed_loop_spectral_radii", "Phat", "lyapunov_residual", "terminal_weights", "alpha",
            "decrease_global", "decrease_blocks", "diagonal_dominance", "ball_certificates", "certified",
            "noiter_price",
        ]
        assert list(report["noiter_price"]) == ["loss", "worst_direction"]
        assert len(report["noiter_price"]["worst_direction"]) == 18
        assert list(report["decrease_global"]) == ["holds", "margin"]
        assert [list(c) for c in report["decrease_blocks"]] == [["holds", "margin"]] * 3
        assert list(report["diagonal_dominance"]) == ["holds", "slack"]
        ball = ["radius", "sigma_max", "ball_invariant", "input_margin", "input_admissible"]
        assert [list(c) for c in report["ball_certificates"]] == [ball] * 3
        mc = json.loads((tmp_path / "montecarlo.json").read_text())
        assert list(mc) == [
            "draws", "seed", "strategy", "bounds", "loss_mean", "loss_worst", "excluded",
            "per_draw_losses", "excluded_draws",
        ]
        # the first 20 draws exclude draw 14 alone
        assert [list(rec) for rec in mc["excluded_draws"]] == [["index", "status", "margin"]]
        transform = json.loads((tmp_path / "transform.json").read_text())
        assert list(transform) == [
            "T", "bar_dims", "Abar", "Btilde", "Qbar", "Pbar", "Qtilde", "Ptilde", "orthogonal_round_trip",
        ]

    def test_csv_headers(self, tmp_path):
        self.artifacts(tmp_path, "simulate --steps 2", "compare")
        header = lambda name: (tmp_path / name).read_text().split("\n", 1)[0].split(",")
        inputs = ["u_agent1", "u_agent2", "u_agent3"]
        assert header("trace.csv") == ["t"] + ["xbar_%d" % k for k in range(18)] + inputs + ["GC", "CC", "iters", "millis"]
        assert header("timing_summary.csv") == ["method", "worst_case_s", "average_s"]
        assert header("compare.csv") == ["method", "GC", "GC_loss", "CC", "CC_loss"]

    def test_solver_section_is_the_solve_record(self, flagship_cfg):
        assert isinstance(flagship_cfg.solver, SolverOptions)
        assert flagship_cfg.to_dict()["solver"] == {"eps_abs": 1e-08, "max_iters": 50000}
        cfg = load_config(example_config_path())
        problem = build_problem(cfg)
        assert problem.solver is not cfg.solver and problem.solver == cfg.solver
        cfg.solver.max_iters = 7
        assert problem.solver.max_iters == 50000
        problem.solver.eps_abs = 1e-3
        assert cfg.solver.eps_abs == 1e-8
