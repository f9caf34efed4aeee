"""Reference outputs of the shipped configuration and an 8-agent ring.

`collect()` runs the library and returns two flat maps keyed by output
path: `exact`, whose values must match bit for bit (iteration counts,
statuses, excluded draws, alpha), and `columns`, lists of floats that may
move in their last digits.  Running this file writes both to
tests/data/reference_outputs.json, which `test_reference_outputs.py`
checks the library against:

    PYTHONPATH=src:tests python tests/reference_outputs.py
"""

import csv
import io
import json
import os

from coopmpc import (
    StrategyConfig,
    build_problem,
    compare_strategies,
    comparison_to_csv,
    config_from_dict,
    example_config_path,
    initial_state,
    load_config,
    monte_carlo,
    run_closed_loop,
    trace_to_csv,
)

from support import X0_EXP1, X0_EXP2, ring_network_description

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "reference_outputs.json")

STRATEGIES = (
    StrategyConfig(kind="centralized"),
    StrategyConfig(kind="noiter"),
    StrategyConfig(kind="coop", iters=5),
)
FLAGSHIP_STEPS = 60
RING_STEPS = 20
COMPARE_ITERS = 10


def ring_config():
    """The 8-agent ring of `ring_network_description` with sim.bounds [-4, 4] and seed 0."""
    doc = ring_network_description(8)
    doc["sim"] = {"bounds": [-4.0, 4.0], "seed": 0}
    return config_from_dict(doc)


def _csv_columns(text, out, exact, prefix, exact_names):
    """Split a CSV rendering into per-column lists; `exact_names` stay exact."""
    rows = list(csv.DictReader(io.StringIO(text)))
    for name in rows[0]:
        values = [row[name] for row in rows]
        if name in exact_names:
            exact[prefix + name] = [int(v) if v.lstrip("-").isdigit() else v for v in values]
        else:
            out[prefix + name] = [float(v) for v in values]


def _loops(problem, xbar0, steps, tag, columns, exact):
    for cfg in STRATEGIES:
        trace = run_closed_loop(problem, xbar0, cfg, steps)
        assert len(trace.steps) == steps and not trace.meta.get("failures"), (tag, cfg.label())
        text = trace_to_csv(trace, include_timing=False)
        _csv_columns(text, columns, exact, "%s/%s/" % (tag, cfg.label()), ("t", "iters"))


def collect():
    """(exact, columns) of the reference runs, computed by the library."""
    exact, columns = {}, {}
    cfg = load_config(example_config_path())
    problem = build_problem(cfg)

    ing = problem.ingredients
    exact["synthesis/alpha"] = ing.alpha
    for i, (P, K) in enumerate(zip(problem.cost.P, ing.K)):
        columns["synthesis/terminal_weight_%d" % i] = [float(v) for v in P.reshape(-1)]
        columns["synthesis/gain_%d" % i] = [float(v) for v in K.reshape(-1)]

    for name, x0 in (("exp1", X0_EXP1), ("exp2", X0_EXP2)):
        _loops(problem, problem.pmap.to_regrouped(x0), FLAGSHIP_STEPS, "flagship/" + name, columns, exact)

    rows, _ = compare_strategies(
        problem,
        initial_state(cfg, problem),
        iter_counts=tuple(range(1, COMPARE_ITERS + 1)),
        warmup_steps=cfg.sim.warmup_steps,
    )
    _csv_columns(comparison_to_csv(rows), columns, exact, "compare/", ("method",))

    report = monte_carlo(problem, cfg.sim.draws, cfg.sim.bounds, StrategyConfig(kind="noiter"), cfg.sim.seed)
    exact["montecarlo/excluded"] = [rec["index"] for rec in report.excluded_draws]
    exact["montecarlo/status"] = [rec["status"] for rec in report.excluded_draws]
    columns["montecarlo/margin"] = [rec["margin"] for rec in report.excluded_draws]
    columns["montecarlo/per_draw_losses"] = report.per_draw_losses
    columns["montecarlo/loss_mean"] = [report.loss_mean]
    columns["montecarlo/loss_worst"] = [report.loss_worst]

    ring_cfg = ring_config()
    ring = build_problem(ring_cfg)
    _loops(ring, initial_state(ring_cfg, ring), RING_STEPS, "ring8", columns, exact)
    return exact, columns


def main():
    exact, columns = collect()
    parts = []
    for name, section in (("exact", exact), ("columns", columns)):
        items = ",\n".join("    %s: %s" % (json.dumps(k), json.dumps(v)) for k, v in section.items())
        parts.append('  "%s": {\n%s\n  }' % (name, items))
    os.makedirs(os.path.dirname(PATH), exist_ok=True)
    with open(PATH, "w") as fh:
        fh.write("{\n" + ",\n".join(parts) + "\n}\n")
    print("wrote %s (%d exact entries, %d float columns)" % (PATH, len(exact), len(columns)))


if __name__ == "__main__":
    main()
