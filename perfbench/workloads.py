"""The three benchmark workloads and the correctness gate they share.

Each workload splits into a set-up (description -> ``Problem``), timed as
``setup_s``, and a solve phase, timed as ``run_s``.  Both go through the
library's public modules by attribute, so the tracer's patches apply.

flagship_loop
    The shipped ``academic3.cfg`` (M=3, n=18, N=8): the 60-step closed loop
    under centralized, noiter and coop (5 iterations) from both shipped
    initial states, then one ``compare_strategies`` sweep.  Warm-started
    receding-horizon traffic; every solve succeeds and coop coordination
    is visible.  Its inputs are the shipped ones, so the seed does not
    change them.
montecarlo
    ``monte_carlo`` with noiter over the first 50 draws of the CLI's
    Monte Carlo run (the configured seed, 20).  Cold starts, most of the
    time in solves that hit the iteration cap; the window holds every
    verdict class (certified infeasible, infeasible flagged only at the
    cap, feasible yet excluded).  Cold-start cost hinges on how many
    draws hit the cap, which varies several-fold between windows, so the
    window is pinned rather than drawn from the run seed.
network8
    A generated network (see network8.py): M=8, n=48, one input per agent,
    N=8, built through ``config_from_dict`` + ``build_problem``.  Set-up
    and memory are governed by the program here (the n^2 x n^2 Lyapunov
    solve).  The 60-step loop under all three strategies starts from one
    generated initial state.

The run seed changes no workload's inputs.  Solve cost depends strongly on
the initial state: over five x0 seeds, network8's run_s spread by a third
of its median (quartile distance), and cap-hitting draws make Monte Carlo
windows differ several-fold.  Seeded inputs would leave every time metric
unresolvable within its bound, so the inputs are pinned and recorded.
"""

import numpy as np

from coopmpc import StrategyConfig, config, example_config_path, harness
from coopmpc.harness import ClosedLoopTrace, trace_to_csv

import network8

# Second shipped experiment state, original ordering (18 entries).
X0_EXP2 = [10.0, 10, 8, 6, -6, 6, 10, 2, 3, 5, 3, 6, 6, -4, 4, 2, 2, 3]

MC_DRAWS = 50
NETWORK_X0_SEED = 2
NETWORK_X0_BOUND = 4.0

# Cost comparisons use the acceptance tests' slack, 1e-9 * (1 + |cost|).
COST_RTOL = 1e-9
BALL_TOL = 1e-8
BOX_RTOL = 1e-12
# Leading steps of every closed loop rerun for the determinism check.
RERUN_STEPS = 5


def _strategies(iters):
    return (
        StrategyConfig(kind="centralized"),
        StrategyConfig(kind="noiter"),
        StrategyConfig(kind="coop", iters=iters),
    )


class FlagshipLoop:
    name = "flagship_loop"
    failures_allowed = False

    def __init__(self, smoke):
        self.smoke = smoke
        self.cfg = None

    def build(self):
        self.cfg = config.load_config(example_config_path())
        return config.build_problem(self.cfg)

    def record(self, problem):
        return {"M": problem.M, "n": problem.n, "N": problem.N, "alpha": problem.ingredients.alpha}

    def run(self, problem):
        sim = self.cfg.sim
        steps = 3 if self.smoke else sim.steps
        x0_cfg = config.initial_state(self.cfg, problem)
        x0_exp2 = problem.pmap.to_regrouped(np.asarray(X0_EXP2, dtype=float))
        loops = []
        for tag, xbar0 in (("x0", x0_cfg), ("exp2", x0_exp2)):
            for cfg in _strategies(sim.iters):
                trace = harness.run_closed_loop(problem, xbar0, cfg, steps)
                loops.append(("%s/%s" % (tag, cfg.label()), xbar0, cfg, steps, trace))
        rows, _ = harness.compare_strategies(
            problem, x0_cfg, warmup_steps=1 if self.smoke else sim.warmup_steps
        )
        return {"loops": loops, "compare": rows}


class MonteCarlo:
    name = "montecarlo"
    # monte_carlo excludes a draw whose solve fails; that is its output.
    failures_allowed = True

    def __init__(self, smoke, mc_seed=None):
        self.draws = 2 if smoke else MC_DRAWS
        self.mc_seed = mc_seed
        self.cfg = None

    def build(self):
        self.cfg = config.load_config(example_config_path())
        return config.build_problem(self.cfg)

    def _seed(self):
        return self.cfg.sim.seed if self.mc_seed is None else self.mc_seed

    def record(self, problem):
        return {"M": problem.M, "n": problem.n, "draws": self.draws, "mc_seed": self._seed()}

    def _monte_carlo(self, problem, draws):
        return harness.monte_carlo(
            problem, draws, tuple(self.cfg.sim.bounds), StrategyConfig(kind="noiter"), self._seed()
        )

    def run(self, problem):
        return {"montecarlo": self._monte_carlo(problem, self.draws)}


class Network8:
    name = "network8"
    failures_allowed = False

    def __init__(self, smoke):
        self.smoke = smoke
        self.description = network8.network_description()

    def build(self):
        return config.build_problem(config.config_from_dict(self.description))

    def record(self, problem):
        return {
            "M": problem.M,
            "n": problem.n,
            "N": problem.N,
            "network_seed": network8.NETWORK_SEED,
            "x0_seed": NETWORK_X0_SEED,
            "x0_bound": NETWORK_X0_BOUND,
            "alpha": problem.ingredients.alpha,
        }

    def run(self, problem):
        steps = 3 if self.smoke else 60
        x0 = network8.network_x0(problem.n, NETWORK_X0_SEED, NETWORK_X0_BOUND)
        xbar0 = problem.pmap.to_regrouped(x0)
        loops = []
        for cfg in _strategies(5):
            trace = harness.run_closed_loop(problem, xbar0, cfg, steps)
            loops.append((cfg.label(), xbar0, cfg, steps, trace))
        return {"loops": loops}


WORKLOADS = {w.name: w for w in (FlagshipLoop, MonteCarlo, Network8)}


def _slack(v):
    return COST_RTOL * (1.0 + abs(v))


def gate(workload, problem, outputs, log):
    """Properties any correct solver keeps; returns the violations found."""
    errors = []
    slices = problem.group_slices()
    radii = problem.ingredients.ball_radius

    def in_box(i, u):
        return bool(np.all(np.abs(u) <= problem.u_max[i] * (1.0 + BOX_RTOL)))

    for label, _, _, steps, trace in outputs.get("loops", ()):
        if trace.meta.get("aborted") or trace.meta.get("failures") or len(trace.steps) != steps:
            errors.append("closed loop %s did not complete cleanly" % label)
        for rec in trace.steps:
            if not all(in_box(i, u) for i, u in enumerate(rec.u0)):
                errors.append("closed loop %s applied an input outside its box at t=%d" % (label, rec.t))
                break

    by_state = {}
    for kind, xbar, seqs in log.plans:
        traj = problem.simulate(xbar, seqs)
        for i, s in enumerate(slices):
            if not in_box(i, seqs.u[i]):
                errors.append("a %s plan leaves the input box of agent %d" % (kind, i))
            if np.linalg.norm(traj[problem.N, s]) > radii[i] + BALL_TOL:
                errors.append("a %s plan ends outside the terminal ball of agent %d" % (kind, i))
        gc, _ = harness.evaluate_cost(problem, xbar, seqs)
        by_state.setdefault(xbar.tobytes(), []).append((kind, gc))
    for costs in by_state.values():
        for cen_kind, cen in costs:
            if cen_kind != "centralized":
                continue
            for kind, gc in costs:
                if cen > gc + _slack(gc):
                    errors.append("centralized cost %r exceeds %s cost %r at one state" % (cen, kind, gc))

    rows = outputs.get("compare")
    if rows:
        gc = {row.method: row.gc for row in rows}
        p = 1
        while "coop_%d" % (p + 1) in gc:
            if gc["coop_%d" % (p + 1)] > gc["coop_%d" % p] + _slack(gc["coop_%d" % p]):
                errors.append("coop cost increased from iteration %d to %d" % (p, p + 1))
            p += 1

    errors.extend(_rerun_differs(workload, problem, outputs))
    return errors


def _rerun_differs(workload, problem, outputs):
    """Rerun the start of every loop in process and compare its bytes with the pass."""
    errors = []
    for label, xbar0, cfg, steps, trace in outputs.get("loops", ()):
        k = min(RERUN_STEPS, steps)
        again = harness.run_closed_loop(problem, xbar0, cfg, k)
        head = ClosedLoopTrace(steps=trace.steps[:k])
        if trace_to_csv(again, include_timing=False) != trace_to_csv(head, include_timing=False):
            errors.append("rerun of closed loop %s is not byte-identical" % label)
    if "montecarlo" in outputs:
        report = outputs["montecarlo"]
        # Draws come from one up-front generator call, so a shorter run
        # repeats the first draws exactly.  The first draws solve quickly.
        k = min(10, report.draws)
        again = workload._monte_carlo(problem, k)
        if repr(again.per_draw_losses) != repr(report.per_draw_losses[:k]):
            errors.append("rerun of the first %d Monte Carlo draws is not byte-identical" % k)
    return errors
