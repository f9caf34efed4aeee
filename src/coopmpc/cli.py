"""Command line front end.

Exit codes: 0 success, 2 configuration parse or validation error,
3 certification failure, 4 solver failure.
"""

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .config import build_problem, check_count, initial_state, load_config
from .controllers import StrategyConfig
from .errors import (
    ConfigError,
    CoopMpcError,
    NotSchur,
    NotStabilized,
    RiccatiDiverged,
    SelectionFailed,
    SolverFailure,
)
from .harness import (
    compare_strategies,
    comparison_to_csv,
    config_digest,
    monte_carlo,
    run_closed_loop,
    timing_summary,
    timing_summary_csv,
    trace_to_csv,
)

CERT_ERRORS = (SelectionFailed, NotSchur, NotStabilized, RiccatiDiverged)


def _matrix(x):
    return np.asarray(x, dtype=float).tolist()


def _strategy_from_args(args, cfg):
    kind = args.strategy or cfg.sim.strategy
    iters = args.iters if args.iters is not None else cfg.sim.iters
    if kind == "coop":
        return StrategyConfig(kind="coop", iters=iters)
    return StrategyConfig(kind=kind)


def _write(out_dir, name, text):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def synthesis_report(problem):
    ing = problem.ingredients
    from .linalg import spectral_radius

    return {
        "gains": [_matrix(K) for K in ing.K],
        "closed_loop_spectral_radii": [float(spectral_radius(AK)) for AK in ing.AK],
        "Phat": _matrix(ing.Phat),
        "lyapunov_residual": ing.lyapunov_residual,
        "terminal_weights": [_matrix(P) for P in problem.cost.P],
        "alpha": ing.alpha,
        "decrease_global": asdict(ing.prop1),
        "decrease_blocks": [asdict(c) for c in ing.prop2],
        "diagonal_dominance": {"holds": ing.dd_holds, "slack": ing.dd_slack},
        "ball_certificates": [asdict(c) for c in ing.ball_certs],
        "certified": ing.certified(),
    }


def cmd_synthesize(args, cfg):
    problem = build_problem(cfg)
    report = synthesis_report(problem)
    path = _write(args.out_dir, "synthesis_report.json", json.dumps(report, indent=2) + "\n")
    print("wrote %s" % path)
    print(
        "decrease certificate: %s (margin %.3e)"
        % ("holds" if report["decrease_global"]["holds"] else "FAILS", report["decrease_global"]["margin"])
    )
    return 0


def cmd_check(args, cfg):
    problem = build_problem(cfg)
    ing = problem.ingredients
    print(
        "decrease certificate: %s (margin %.3e, alpha %s)"
        % ("holds" if ing.prop1.holds else "FAILS", ing.prop1.margin, ing.alpha)
    )
    for i, cert in enumerate(ing.ball_certs):
        print(
            "agent %d: sigma_max %.4f invariant=%s admissible=%s"
            % (i + 1, cert.sigma_max, cert.ball_invariant, cert.input_admissible)
        )
    if not ing.certified():
        raise SelectionFailed("decrease certificate does not hold")
    return 0


def cmd_transform(args, cfg):
    problem = build_problem(cfg)
    pmap = problem.pmap
    tc = problem.tcost
    T = pmap.T
    round_trip = bool(
        np.array_equal(T @ T.T, np.eye(pmap.n)) and np.array_equal(T.T @ T, np.eye(pmap.n))
    )
    doc = {
        "T": _matrix(T),
        "bar_dims": list(pmap.bar_dims),
        "Abar": [_matrix(A) for A in problem.tplant.Abar],
        "Btilde": [_matrix(B) for B in problem.tplant.Btilde],
        "Qbar": _matrix(tc.Qbar),
        "Pbar": _matrix(tc.Pbar),
        "Qtilde": _matrix(tc.Qtilde),
        "Ptilde": _matrix(tc.Ptilde),
        "orthogonal_round_trip": round_trip,
    }
    path = _write(args.out_dir, "transform.json", json.dumps(doc, indent=2) + "\n")
    print("wrote %s" % path)
    return 0


def _check_certified(problem, args):
    if getattr(args, "no_check", False):
        return
    if not problem.ingredients.certified():
        raise SelectionFailed("terminal ingredients failed certification; rerun with --no-check to force")


def cmd_simulate(args, cfg):
    problem = build_problem(cfg)
    _check_certified(problem, args)
    xbar0 = initial_state(cfg, problem, seed=args.seed)
    strategy = _strategy_from_args(args, cfg)
    steps = args.steps if args.steps is not None else cfg.sim.steps
    seed_used = args.seed if args.seed is not None else cfg.sim.seed
    meta = {"config": config_digest(cfg.to_dict()), "seed": seed_used, "strategy": strategy.label()}
    trace = run_closed_loop(problem, xbar0, strategy, steps, meta=meta)
    if trace.meta.get("aborted"):
        raise SolverFailure(
            "closed loop aborted after repeated solver failures:"
            + "".join(
                "\n  t=%d %s (terminal-ball margin %s)"
                % (f["t"], f["status"], "n/a" if f["margin"] is None else "%.4g" % f["margin"])
                for f in trace.meta["failures"]
            )
        )
    if not trace.steps:
        raise SolverFailure("closed loop solved none of its %d steps" % steps)
    trace_path = _write(args.out_dir, "trace.csv", trace_to_csv(trace))
    timing_path = _write(args.out_dir, "timing_summary.csv", timing_summary_csv(timing_summary(trace)))
    final = trace.steps[-1]
    print("wrote %s" % trace_path)
    print("wrote %s" % timing_path)
    print(
        "%d steps, final state norm %.3e, last GC %.6e"
        % (len(trace.steps), float(np.linalg.norm(problem.step(final.xbar, final.u0))), final.gc)
    )
    return 0


def cmd_compare(args, cfg):
    problem = build_problem(cfg)
    _check_certified(problem, args)
    xbar0 = initial_state(cfg, problem, seed=args.seed)
    sweep_max = args.iters if args.iters is not None else cfg.sim.iters
    counts = tuple(range(1, sweep_max + 1))
    rows, state = compare_strategies(
        problem, xbar0, iter_counts=counts, warmup_steps=cfg.sim.warmup_steps
    )
    path = _write(args.out_dir, "compare.csv", comparison_to_csv(rows))
    print("wrote %s" % path)
    print("common state after %d warm-up steps, norm %.3e" % (cfg.sim.warmup_steps, float(np.linalg.norm(state))))
    for row in rows:
        print(
            "%-12s GC %.6e (%+.2f%%)  CC %.6e (%+.2f%%)"
            % (row.method, row.gc, 100 * row.gc_loss, row.cc, 100 * row.cc_loss)
        )
    return 0


def cmd_montecarlo(args, cfg):
    problem = build_problem(cfg)
    _check_certified(problem, args)
    strategy = _strategy_from_args(args, cfg)
    draws = args.draws if args.draws is not None else cfg.sim.draws
    seed = args.seed if args.seed is not None else cfg.sim.seed
    report = monte_carlo(problem, draws, cfg.sim.bounds, strategy, seed)
    path = _write(args.out_dir, "montecarlo.json", json.dumps(report.to_dict(), indent=2, allow_nan=False) + "\n")
    print("wrote %s" % path)
    if report.excluded == report.draws:
        raise SolverFailure("Monte Carlo excluded all of its %d draws" % report.draws)
    print(
        "%d draws (%d excluded): mean loss %.4f%%, worst %.4f%%"
        % (report.draws, report.excluded, 100 * report.loss_mean, 100 * report.loss_worst)
    )
    return 0


def make_parser():
    parser = argparse.ArgumentParser(
        prog="coopmpc",
        description="Cooperative distributed MPC toolkit for block-structured linear plants",
    )
    parser.add_argument("--version", action="version", version="coopmpc %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("synthesize", cmd_synthesize),
        ("check", cmd_check),
        ("transform", cmd_transform),
        ("simulate", cmd_simulate),
        ("compare", cmd_compare),
        ("montecarlo", cmd_montecarlo),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="problem description file (JSON)")
        p.add_argument("--out-dir", default=".", help="directory for output artifacts")
        p.set_defaults(handler=fn)
        if name in ("simulate", "compare", "montecarlo"):
            p.add_argument("--no-check", action="store_true", help="skip the certification gate")
            p.add_argument("--seed", type=int, default=None)
        if name in ("simulate", "montecarlo"):
            p.add_argument("--strategy", choices=["centralized", "noiter", "coop"], default=None)
        if name in ("simulate", "compare", "montecarlo"):
            p.add_argument("--iters", type=int, default=None)
        if name == "simulate":
            p.add_argument("--steps", type=int, default=None)
        if name == "montecarlo":
            p.add_argument("--draws", type=int, default=None)
    return parser


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        for flag, least in (("steps", 1), ("iters", 1), ("draws", 1), ("seed", 0)):
            if getattr(args, flag, None) is not None:
                check_count("--" + flag, getattr(args, flag), least)
        cfg = load_config(args.config)
    except ConfigError as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("cannot read %s: %s" % (args.config, exc), file=sys.stderr)
        return 2
    try:
        return args.handler(args, cfg)
    except ConfigError as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return 2
    except CERT_ERRORS as exc:
        print("certification failure: %s" % exc, file=sys.stderr)
        return 3
    except SolverFailure as exc:
        print("solver failure: %s" % exc, file=sys.stderr)
        return 4
    except CoopMpcError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
