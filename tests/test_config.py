"""Description-file parsing and problem assembly."""

import json

import numpy as np
import pytest

from coopmpc import (
    ConfigError,
    DimensionMismatch,
    NotSchur,
    build_problem,
    config_from_dict,
    example_config_path,
    initial_state,
    parse_config,
)

from support import X0_EXP1


def minimal_single_agent():
    return {
        "subsystems": {
            "dims": [[2]],
            "A": [[[[0.5, 0.1], [0.0, 0.4]]]],
            "B": [[[[1.0], [0.5]]]],
        },
        "cost": {"Q": [2.0], "R": [1.0], "rho": [1.0]},
        "horizon": 3,
        "input_box": [2.0],
        "lqr": {"Q": [1.0], "R": [50.0]},
    }


def flagship_dict():
    with open(example_config_path(), "r") as fh:
        return json.load(fh)


class TestParsing:
    def test_round_trip_is_identity(self, flagship_cfg):
        again = parse_config(flagship_cfg.to_json())
        assert again.to_dict() == flagship_cfg.to_dict()

    def test_shipped_initial_state(self, flagship_cfg):
        assert flagship_cfg.sim.x0 == list(X0_EXP1)
        assert flagship_cfg.horizon == 8
        assert flagship_cfg.cost.rho == [1.0, 0.5, 1.0]

    def test_syntax_error_reports_location(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config('{\n  "subsystems": oops\n}')

    def test_missing_top_level_section(self):
        doc = minimal_single_agent()
        del doc["subsystems"]
        with pytest.raises(ConfigError, match="missing required key 'subsystems'"):
            config_from_dict(doc)

    def test_missing_cost_entry(self):
        doc = minimal_single_agent()
        del doc["cost"]["R"]
        with pytest.raises(ConfigError, match="cost: missing required key 'R'"):
            config_from_dict(doc)

    def test_nonsquare_dims_table(self):
        doc = minimal_single_agent()
        doc["subsystems"]["dims"] = [[1, 1], [1]]
        with pytest.raises(ConfigError, match="square table"):
            config_from_dict(doc)

    def test_nonpositive_priority(self):
        doc = minimal_single_agent()
        doc["cost"]["rho"] = [-1.0]
        with pytest.raises(ConfigError, match=r"rho\[0\]: must be positive"):
            config_from_dict(doc)

    def test_zero_horizon(self):
        doc = minimal_single_agent()
        doc["horizon"] = 0
        with pytest.raises(ConfigError, match="horizon"):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("max_iters", 0),
            ("max_iters", -5),
            ("eps_abs", 0.0),
            ("eps_abs", -1e-8),
            ("eps_abs", float("nan")),
            ("eps_abs", float("inf")),
            ("eps_abs", "x"),
            ("max_iters", "100"),
            ("max_iters", 2.5),
            ("max_iters", float("nan")),
        ],
    )
    def test_bad_solver_setting(self, key, value):
        doc = minimal_single_agent()
        doc["solver"] = {key: value}
        with pytest.raises(ConfigError, match="solver.%s" % key):
            config_from_dict(doc)

    def test_solver_edge_settings_accepted(self):
        doc = minimal_single_agent()
        doc["solver"] = {"max_iters": 1, "eps_abs": 1e-12}
        cfg = config_from_dict(doc)
        assert (cfg.solver.max_iters, cfg.solver.eps_abs) == (1, 1e-12)

    def test_retired_keys_are_ignored(self):
        # solver.eps_rel tuned a solver that is gone; subsystems.C was never read
        doc = minimal_single_agent()
        doc["solver"] = {"eps_rel": 1e-6}
        doc["subsystems"]["C"] = [[[[1.0, 0.0]]]]
        cfg = config_from_dict(doc)
        assert cfg == config_from_dict(minimal_single_agent())
        assert "eps_rel" not in cfg.to_dict()["solver"] and "C" not in cfg.to_dict()["subsystems"]

    @pytest.mark.parametrize(
        "key, value",
        [
            ("steps", 0),
            ("steps", -3),
            ("iters", 0),
            ("draws", 0),
            ("draws", -1),
            ("warmup_steps", -1),
            ("steps", "abc"),
            ("steps", 2.5),
            ("steps", True),
            ("iters", "5"),
            ("seed", "20"),
            ("seed", -1),
            ("warmup_steps", None),
            ("draws", [10]),
            ("draws", float("inf")),
        ],
    )
    def test_bad_sim_count(self, key, value):
        doc = minimal_single_agent()
        doc["sim"] = {key: value}
        with pytest.raises(ConfigError, match="sim.%s" % key):
            config_from_dict(doc)

    def test_sim_edge_counts_accepted(self):
        doc = minimal_single_agent()
        doc["sim"] = {"steps": 1, "iters": 1, "draws": 1, "warmup_steps": 0}
        sim = config_from_dict(doc).sim
        assert (sim.steps, sim.iters, sim.draws, sim.warmup_steps) == (1, 1, 1, 0)

    def test_whole_float_settings_accepted(self):
        doc = minimal_single_agent()
        doc["sim"] = {"steps": 4.0, "seed": 7.0}
        doc["solver"] = {"max_iters": 100.0, "eps_abs": 1}
        cfg = config_from_dict(doc)
        assert (cfg.sim.steps, cfg.sim.seed, cfg.solver.max_iters, cfg.solver.eps_abs) == (4, 7, 100, 1.0)
        assert isinstance(cfg.sim.steps, int) and isinstance(cfg.solver.eps_abs, float)

    @pytest.mark.parametrize("section", ["sim", "solver"])
    def test_section_must_be_an_object(self, section):
        doc = minimal_single_agent()
        doc[section] = [1, 2]
        with pytest.raises(ConfigError, match="%s: expected an object" % section):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "x0",
        [
            ["a", 1.0],
            [float("nan"), 0.0],
            [0.0, float("-inf")],
            [[1.0], [2.0]],
            [True, 1.0],
            [None, 1.0],
            "ab",
            5,
        ],
    )
    def test_bad_sim_x0(self, x0):
        doc = minimal_single_agent()
        doc["sim"] = {"x0": x0}
        with pytest.raises(ConfigError, match="sim.x0"):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "bounds",
        [[1.0], [8, -8], ["a", 1], [0, float("nan")], [0, float("inf")], [-1.0, 0.0, 1.0], "ab", 5, None],
    )
    def test_bad_sim_bounds(self, bounds):
        doc = minimal_single_agent()
        doc["sim"] = {"bounds": bounds}
        with pytest.raises(ConfigError, match="sim.bounds"):
            config_from_dict(doc)

    def test_sim_edge_bounds_accepted(self):
        doc = minimal_single_agent()
        for bounds in ([0, 0], [-3, 2.5]):
            doc["sim"] = {"bounds": bounds}
            assert config_from_dict(doc).sim.bounds == bounds

    def test_unknown_sim_strategy(self):
        doc = minimal_single_agent()
        doc["sim"] = {"strategy": "magic"}
        with pytest.raises(ConfigError, match="unknown strategy"):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "section, key, value, match",
        [
            (None, "input_box", [-1.0], r"input_box\[0\]"),
            (None, "input_box", [float("nan")], r"input_box\[0\]"),
            (None, "input_box", ["a"], r"input_box\[0\]"),
            (None, "input_box", [[1.0, -1.0]], r"input_box\[0\]"),
            (None, "input_box", [[]], r"input_box\[0\]"),
            (None, "input_box", 2.0, "input_box: need one entry per agent"),
            (None, "terminal_radius", [-1.0], r"terminal_radius\[0\]"),
            (None, "terminal_radius", [0.0], r"terminal_radius\[0\]"),
            (None, "terminal_radius", [float("nan")], r"terminal_radius\[0\]"),
            (None, "terminal_radius", ["a"], r"terminal_radius\[0\]"),
            (None, "horizon", True, "horizon: must be an integer >= 1"),
            (None, "horizon", 2.5, "horizon: must be an integer >= 1"),
            ("cost", "R", 1.0, "cost.R: need one entry per agent"),
            ("cost", "rho", 1.0, "cost.rho: need one entry per agent"),
            ("cost", "rho", [float("inf")], r"cost.rho\[0\]: must be positive"),
            ("cost", "rho", [True], r"cost.rho\[0\]: must be positive"),
            ("cost", "Q", [["a"]], r"cost.Q\[0\]"),
            ("cost", "Q", 2.0, "cost.Q: need one entry per agent"),
            ("lqr", "Q", 1.0, "lqr.Q: need one entry per agent"),
            ("lqr", "R", 50.0, "lqr.R: need one entry per agent"),
            ("lqr", "K", 5, "lqr.K: need one entry per agent"),
            ("lqr", "K", [["a"]], r"lqr.K\[0\]"),
            ("subsystems", "dims", [[1.5]], "subsystems.dims: block sizes must be integers >= 0"),
            ("subsystems", "dims", [["2"]], "subsystems.dims: block sizes must be integers >= 0"),
            ("subsystems", "dims", [[-2]], "subsystems.dims: block sizes must be integers >= 0"),
            ("subsystems", "dims", [[True]], "subsystems.dims: block sizes must be integers >= 0"),
            ("subsystems", "A", [[[["a", 0.1], [0.0, 0.4]]]], r"subsystems.A\[0\]\[0\]: expected a matrix of finite numbers"),
            ("subsystems", "A", [[[[0.5, 0.1], [0.0]]]], r"subsystems.A\[0\]\[0\]: expected a matrix of finite numbers"),
            ("subsystems", "A", [[[[0.5, 0.1]]]], r"subsystems.A\[0\]\[0\]: expected a 2x2 matrix"),
            ("subsystems", "B", [[[[1.0], [None]]]], r"subsystems.B\[0\]\[0\]: expected a matrix of finite numbers"),
            ("cost", "Q", [[[2.0, 0.0], [0.0]]], r"cost.Q\[0\]"),
            ("cost", "R", [[[1.0], []]], r"cost.R\[0\]"),
            ("cost", "Qblocks", [[[[[2.0, "a"]]]]], r"cost.Qblocks\[0\]"),
            ("lqr", "Q", [[[1.0, 0.0], 1.0]], r"lqr.Q\[0\]"),
        ],
    )
    def test_malformed_entry(self, section, key, value, match):
        doc = minimal_single_agent()
        (doc if section is None else doc[section])[key] = value
        with pytest.raises(ConfigError, match=match):
            config_from_dict(doc)

    def test_whole_float_dims_and_flat_blocks_accepted(self):
        doc = minimal_single_agent()
        doc["subsystems"]["dims"] = [[2.0]]
        doc["subsystems"]["A"] = [[[0.5, 0.1, 0.0, 0.4]]]
        prob = build_problem(config_from_dict(doc))
        assert np.array_equal(prob.tplant.Abar[0], [[0.5, 0.1], [0.0, 0.4]])

    def test_whole_float_horizon_and_nested_bounds_accepted(self):
        doc = minimal_single_agent()
        doc["horizon"] = 3.0
        doc["input_box"] = [[0.0]]
        doc["lqr"]["K"] = [None]
        cfg = config_from_dict(doc)
        assert cfg.horizon == 3 and isinstance(cfg.horizon, int)
        assert build_problem(cfg).u_max[0].tolist() == [0.0]

    def test_input_box_length_must_match_the_inputs(self):
        doc = minimal_single_agent()
        doc["input_box"] = [[1.0, 2.0]]
        with pytest.raises(ConfigError, match=r"input_box\[0\]: expected one bound or one per input \(1\)"):
            build_problem(config_from_dict(doc))

    def test_terminal_weight_count(self):
        doc = flagship_dict()
        doc["cost"]["P"] = [[[1.0]]]
        with pytest.raises(ConfigError, match="one matrix per agent"):
            config_from_dict(doc)


class TestBuild:
    def test_single_agent_auto_scaling(self):
        prob = build_problem(config_from_dict(minimal_single_agent()))
        assert prob.M == 1 and prob.n == 2
        # one group: regrouping is the identity, scaling stays at one
        assert np.array_equal(prob.pmap.T, np.eye(2))
        assert prob.ingredients.alpha == 1.0
        assert prob.ingredients.certified()
        assert np.array_equal(prob.cost.Q[0], 2.0 * np.eye(2))

    def test_scalar_weights_expand(self):
        doc = minimal_single_agent()
        doc["cost"]["Q"] = [[[3.0, 0.0], [0.0, 3.0]]]
        full = build_problem(config_from_dict(doc))
        doc["cost"]["Q"] = [3.0]
        scalar = build_problem(config_from_dict(doc))
        assert np.array_equal(full.tcost.Qbar, scalar.tcost.Qbar)

    def test_block_form_matches_full_form(self):
        base = {
            "subsystems": {
                "dims": [[1, 1], [1, 1]],
                "A": [
                    [[[0.3]], [[0.2]]],
                    [[[0.1]], [[0.4]]],
                ],
                "B": [
                    [[[1.0]], [[0.5]]],
                    [[[0.4]], [[0.8]]],
                ],
            },
            "cost": {
                "Q": [[[2.0, 0.3], [0.3, 1.5]], [[1.2, 0.1], [0.1, 0.9]]],
                "R": [1.0, 1.0],
                "rho": [1.0, 1.2],
            },
            "horizon": 4,
            "input_box": [3.0, 3.0],
            "lqr": {"Q": [1.0, 1.0], "R": [50.0, 50.0]},
        }
        full = build_problem(config_from_dict(base))
        blocked = dict(base)
        blocked["cost"] = {
            "Qblocks": [
                [[[[2.0]], [[0.3]]], [[[0.3]], [[1.5]]]],
                [[[[1.2]], [[0.1]]], [[[0.1]], [[0.9]]]],
            ],
            "R": [1.0, 1.0],
            "rho": [1.0, 1.2],
        }
        alt = build_problem(config_from_dict(blocked))
        assert np.array_equal(full.tcost.Qbar, alt.tcost.Qbar)
        for a, b in zip(full.ingredients.K, alt.ingredients.K):
            assert np.array_equal(a, b)

    def test_block_of_the_wrong_size_rejected(self):
        doc = minimal_single_agent()
        doc["cost"] = {"Qblocks": [[[[2.0, 0.0, 1.0]]]], "R": [1.0], "rho": [1.0]}
        with pytest.raises(ConfigError, match=r"cost.Qblocks\[0\]\[0\]\[0\]: expected a 2x2 block"):
            build_problem(config_from_dict(doc))

    def test_undriven_column_rejected(self):
        doc = minimal_single_agent()
        doc["subsystems"]["dims"] = [[0, 1], [0, 2]]
        doc["subsystems"]["A"] = [[[[0.0]], [[0.5]]], [[[0.0]], [[0.4, 0.0], [0.0, 0.3]]]]
        doc["subsystems"]["B"] = [[[[0.0]], [[1.0]]], [[[0.0]], [[0.5], [1.0]]]]
        doc["cost"]["Q"] = [1.0, 1.0]
        doc["cost"]["R"] = [1.0, 1.0]
        doc["cost"]["rho"] = [1.0, 1.0]
        doc["input_box"] = [2.0, 2.0]
        doc["lqr"] = {"Q": [1.0, 1.0], "R": [50.0, 50.0]}
        with pytest.raises(ConfigError, match="column 0 has no state block"):
            build_problem(config_from_dict(doc))

    @pytest.mark.parametrize(
        "key, value, match",
        [
            ("Q", -1.0, "must be positive definite"),
            ("Q", 0.0, "must be positive definite"),
            ("Q", [[1.0, 1.0], [1.0, 1.0]], "must be positive definite"),
            ("Q", [[1.0, 0.5], [0.0, 1.0]], "must be symmetric"),
            ("R", 0.0, "must be positive definite"),
            ("R", -1.0, "must be positive definite"),
        ],
    )
    def test_design_weights_must_be_positive_definite(self, key, value, match):
        # Q = 0 would leave the Riccati doubling at P = 0 and K = 0
        doc = minimal_single_agent()
        doc["lqr"][key] = [value]
        with pytest.raises(ConfigError, match=r"lqr.%s\[0\]: %s" % (key, match)):
            build_problem(config_from_dict(doc))

    def test_pinned_gain_skips_the_design_but_not_its_weights(self):
        doc = minimal_single_agent()
        doc["lqr"]["K"] = [[[-0.2, -0.1]]]
        prob = build_problem(config_from_dict(doc))
        assert np.array_equal(prob.ingredients.K[0], [[-0.2, -0.1]])
        doc["lqr"]["Q"] = [0.0]
        with pytest.raises(ConfigError, match=r"lqr.Q\[0\]"):
            build_problem(config_from_dict(doc))

    def test_pinned_zero_gains_rejected(self):
        # every regrouped flagship group is open-loop unstable, so an
        # all-zero terminal controller cannot close any of them
        doc = flagship_dict()
        doc["lqr"]["K"] = [[[0.0] * 6], [[0.0] * 6], [[0.0] * 6]]
        with pytest.raises(NotSchur):
            build_problem(config_from_dict(doc))


class TestInitialState:
    def test_configured_state_is_regrouped(self, flagship_cfg, flagship):
        xbar = initial_state(flagship_cfg, flagship)
        assert np.array_equal(xbar, flagship.pmap.to_regrouped(X0_EXP1))

    def test_wrong_length_rejected(self, flagship_cfg, flagship):
        doc = flagship_dict()
        doc["sim"]["x0"] = [1.0, 2.0]
        cfg = config_from_dict(doc)
        with pytest.raises(ConfigError, match="expected 18 entries"):
            initial_state(cfg, flagship)

    def test_random_draws_are_seeded(self, flagship):
        doc = flagship_dict()
        del doc["sim"]["x0"]
        cfg = config_from_dict(doc)
        a = initial_state(cfg, flagship)
        b = initial_state(cfg, flagship)
        c = initial_state(cfg, flagship, seed=cfg.sim.seed + 1)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        lo, hi = cfg.sim.bounds
        orig = flagship.pmap.to_original(a)
        assert np.all(orig >= lo) and np.all(orig <= hi)

    @pytest.mark.parametrize("seed", [2.5, True, "3", -1])
    def test_seed_must_be_an_integer_at_least_0(self, flagship, seed):
        # 2.5, True and "3" used to draw the states of seeds 2, 1 and 3
        doc = flagship_dict()
        del doc["sim"]["x0"]
        cfg = config_from_dict(doc)
        with pytest.raises(DimensionMismatch, match="seed must be an integer >= 0"):
            initial_state(cfg, flagship, seed=seed)
