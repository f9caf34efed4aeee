"""Exact feasibility verdicts for the states at which a solve failed.

The regrouped dynamics are decoupled and the terminal set is a product of
per-agent balls, so a state is feasible exactly when every agent can reach
its own ball.  Agent i's reachable terminal states are ``Tmap u + tvec``
over its input box; the distance from that set to the origin is a
box-constrained least-squares problem, solved exactly by BVLS (Stark and
Parker, 1995).  The maps come from the public ``build_condensed``.
"""

import numpy as np
from scipy.optimize import lsq_linear

from coopmpc import build_condensed


def agent_margins(problem, xbar):
    """Radius minus the least reachable terminal norm, one entry per agent.

    A negative entry proves agent i cannot reach its ball from xbar.
    """
    tc = problem.tcost
    margins = []
    for i, s in enumerate(problem.group_slices()):
        ni = problem.pmap.bar_dims[i]
        radius = problem.ingredients.ball_radius[i]
        qp = build_condensed(
            problem.tplant.Abar[i],
            problem.tplant.Btilde[i],
            tc.Qbar[s, s],
            tc.Pbar[s, s],
            tc.Rlocal[i],
            problem.N,
            xbar[s],
            -problem.u_max[i],
            problem.u_max[i],
            terminal_balls=[(slice(0, ni), radius)],
        )
        ball = qp.terminal[0]
        fit = lsq_linear(ball.Tmap, -ball.tvec, bounds=(qp.box_lo, qp.box_hi), method="bvls")
        margins.append(radius - float(np.linalg.norm(ball.Tmap @ fit.x + ball.tvec)))
    return margins


def false_failures(problem, failed_states):
    """(count, margins): failed solves at states that every agent can steer
    into its ball, and the smallest agent margin of each failed state."""
    worst = [min(agent_margins(problem, x)) for x in failed_states]
    return sum(1 for m in worst if m >= 0.0), worst
