"""Problem description files: parsing, validation, and problem assembly.

A description is a single JSON document (conventionally with a .cfg
extension) holding the block dims table, the pairwise A and B blocks, the
cost weights, the horizon, input bounds, terminal settings, the terminal
controller design weights, solver settings, and simulation defaults.
Matrices are nested arrays, row major.  Floats are parsed by the json
module, so decimals are read exactly as written regardless of locale.
"""

import json
from dataclasses import dataclass, field, asdict, replace
from math import isfinite, prod

import numpy as np

from .controllers import is_count
from .errors import ConfigError, DimensionMismatch, NotPD
from .linalg import check_pd
from .plant import CostSpec, SubsystemBlocks, build_composite, build_permutation, transform_plant
from .problem import Problem
from .qp import SolverOptions
from .synthesis import synthesize


@dataclass
class SubsystemsConfig:
    dims: list
    A: list
    B: list


@dataclass
class CostConfig:
    R: list
    rho: list
    Q: list = None
    Qblocks: list = None
    P: object = "auto"


@dataclass
class LqrConfig:
    Q: list
    R: list
    K: list = None


@dataclass
class SimConfig:
    steps: int = 60
    strategy: str = "noiter"
    iters: int = 5
    x0: list = None
    seed: int = 0
    bounds: list = field(default_factory=lambda: [-8.0, 8.0])
    warmup_steps: int = 3
    draws: int = 200


@dataclass
class ProblemConfig:
    """In-memory model of a description file.

    Values stay as parsed (plain lists and numbers); numerical assembly
    happens in build_problem.  parse -> serialize -> parse is the
    identity on this model.
    """

    subsystems: SubsystemsConfig
    cost: CostConfig
    horizon: int
    input_box: list
    terminal_radius: object
    lqr: LqrConfig
    solver: SolverOptions = field(default_factory=SolverOptions)
    sim: SimConfig = field(default_factory=SimConfig)

    def to_dict(self):
        out = asdict(self)
        # Drop optional fields left at None so the round trip is stable.
        if out["cost"]["Q"] is None:
            del out["cost"]["Q"]
        if out["cost"]["Qblocks"] is None:
            del out["cost"]["Qblocks"]
        if out["lqr"]["K"] is None:
            del out["lqr"]["K"]
        if out["sim"]["x0"] is None:
            del out["sim"]["x0"]
        return out

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2) + "\n"


def _require(mapping, key, where):
    if key not in mapping:
        raise ConfigError("%s: missing required key %r" % (where, key))
    return mapping[key]


def _expect(cond, message):
    if not cond:
        raise ConfigError(message)


def check_count(name, value, least):
    """Raise ConfigError unless the count `name` is at least `least`."""
    _expect(value >= least, "%s: must be an integer >= %d" % (name, least))


def _is_number(value):
    """A finite JSON number: an int (not a bool) or a finite float."""
    if isinstance(value, float):
        return isfinite(value)
    return isinstance(value, int) and not isinstance(value, bool)


def _number(section, key, default, where):
    """section[key], or default when absent, as a float; a finite JSON number."""
    value = section.get(key, default)
    _expect(_is_number(value), "%s.%s: must be a finite number" % (where, key))
    return float(value)


def _is_whole(value):
    """A whole JSON number: an int (not a bool) or a float with no fraction."""
    return _is_number(value) and (isinstance(value, int) or value.is_integer())


def _shape(value):
    """Shape of a finite JSON number or a rectangular nested list of them, else None."""
    if not isinstance(value, list):
        return () if _is_number(value) else None
    if all(map(_is_number, value)):
        return (len(value),)
    shapes = set(map(_shape, value))
    if len(shapes) > 1 or None in shapes:
        return None
    return (len(value),) + (shapes.pop() if shapes else ())


def _is_numeric(value):
    """A finite JSON number or a rectangular list, possibly nested, of them."""
    return _shape(value) is not None


def _is_block_table(value):
    """A table of numeric blocks: a list of lists whose entries pass _is_numeric."""
    return isinstance(value, list) and all(
        isinstance(row, list) and all(_is_numeric(block) for block in row) for row in value
    )


def _integer(section, key, default, where):
    """section[key], or default when absent, as an int; a whole JSON number."""
    value = section.get(key, default)
    _expect(_is_whole(value), "%s.%s: must be an integer" % (where, key))
    return int(value)


def _is_positive(value):
    return _is_number(value) and value > 0


def _is_bound(value):
    """An input bound: a finite number >= 0 or a nonempty flat list of them."""
    values = value if isinstance(value, list) and value else [value]
    return all(_is_number(v) and v >= 0 for v in values)


def _per_agent(values, M, where, entry=_is_numeric, what="a number or a matrix of finite numbers"):
    """Raise ConfigError unless `values` is a list of M entries that pass `entry`."""
    _expect(isinstance(values, list) and len(values) == M, "%s: need one entry per agent" % where)
    for i, v in enumerate(values):
        _expect(entry(v), "%s[%d]: must be %s" % (where, i, what))


def config_from_dict(doc):
    _expect(isinstance(doc, dict), "top level: expected an object")
    sub_doc = _require(doc, "subsystems", "top level")
    dims = _require(sub_doc, "dims", "subsystems")
    _expect(
        isinstance(dims, list) and dims and all(isinstance(r, list) and len(r) == len(dims) for r in dims),
        "subsystems.dims: expected a square table of block sizes",
    )
    _expect(
        all(_is_whole(v) and v >= 0 for row in dims for v in row),
        "subsystems.dims: block sizes must be integers >= 0",
    )
    M = len(dims)
    A = _require(sub_doc, "A", "subsystems")
    B = _require(sub_doc, "B", "subsystems")
    for name, table in (("A", A), ("B", B)):
        _expect(
            isinstance(table, list) and len(table) == M and all(isinstance(r, list) and len(r) == M for r in table),
            "subsystems.%s: expected an %dx%d table of blocks" % (name, M, M),
        )
        for i, row in enumerate(table):
            for j, block in enumerate(row):
                shape = _shape(block)
                n = int(dims[i][j]) if name == "A" else 0
                if shape is None or (n and prod(shape) != n * n):
                    what = "a matrix of finite numbers" if shape is None else "a %dx%d matrix" % (n, n)
                    raise ConfigError("subsystems.%s[%d][%d]: expected %s" % (name, i, j, what))
    sub = SubsystemsConfig(dims=dims, A=A, B=B)

    cost_doc = _require(doc, "cost", "top level")
    cost = CostConfig(
        R=_require(cost_doc, "R", "cost"),
        rho=_require(cost_doc, "rho", "cost"),
        Q=cost_doc.get("Q"),
        Qblocks=cost_doc.get("Qblocks"),
        P=cost_doc.get("P", "auto"),
    )
    _expect(cost.Q is not None or cost.Qblocks is not None, "cost: need Q or Qblocks")
    for key in ("Q", "R"):
        if getattr(cost, key) is not None:
            _per_agent(getattr(cost, key), M, "cost." + key)
    if cost.Qblocks is not None:
        _per_agent(cost.Qblocks, M, "cost.Qblocks", _is_block_table, "a table of matrices of finite numbers")
    _per_agent(cost.rho, M, "cost.rho", _is_positive, "positive and finite")
    if cost.P != "auto":
        _expect(isinstance(cost.P, list) and len(cost.P) == M, "cost.P: 'auto' or one matrix per agent")
        _per_agent(cost.P, M, "cost.P")

    horizon = _require(doc, "horizon", "top level")
    _expect(_is_whole(horizon) and horizon >= 1, "horizon: must be an integer >= 1")
    horizon = int(horizon)

    input_box = _require(doc, "input_box", "top level")
    _per_agent(input_box, M, "input_box", _is_bound, "a finite number >= 0 or a list of them")

    terminal_radius = doc.get("terminal_radius", "auto")
    if terminal_radius != "auto":
        _per_agent(terminal_radius, M, "terminal_radius", _is_positive, "positive and finite")

    lqr_doc = _require(doc, "lqr", "top level")
    lqr = LqrConfig(
        Q=_require(lqr_doc, "Q", "lqr"),
        R=_require(lqr_doc, "R", "lqr"),
        K=lqr_doc.get("K"),
    )
    _per_agent(lqr.Q, M, "lqr.Q")
    _per_agent(lqr.R, M, "lqr.R")
    if lqr.K is not None:
        _per_agent(lqr.K, M, "lqr.K", lambda K: K is None or _is_numeric(K), "null or a matrix of numbers")

    solver_doc = doc.get("solver", {})
    _expect(isinstance(solver_doc, dict), "solver: expected an object")
    solver_default = SolverOptions()
    solver = SolverOptions(
        eps_abs=_number(solver_doc, "eps_abs", solver_default.eps_abs, "solver"),
        max_iters=_integer(solver_doc, "max_iters", solver_default.max_iters, "solver"),
    )
    _expect(solver.max_iters >= 1, "solver.max_iters: must be an integer >= 1")
    _expect(solver.eps_abs > 0, "solver.eps_abs: must be positive")

    sim_doc = doc.get("sim", {})
    _expect(isinstance(sim_doc, dict), "sim: expected an object")
    x0 = sim_doc.get("x0")
    _expect(
        x0 is None or (isinstance(x0, list) and all(_is_number(v) for v in x0)),
        "sim.x0: expected a flat list of finite numbers",
    )
    sim_default = SimConfig()
    bounds = sim_doc.get("bounds", sim_default.bounds)
    _expect(
        isinstance(bounds, list)
        and len(bounds) == 2
        and all(_is_number(b) for b in bounds)
        and bounds[0] <= bounds[1],
        "sim.bounds: expected two finite numbers [lo, hi] with lo <= hi",
    )
    counts = {"steps": 1, "iters": 1, "seed": 0, "warmup_steps": 0, "draws": 1}
    sim = SimConfig(
        strategy=str(sim_doc.get("strategy", sim_default.strategy)),
        x0=x0,
        bounds=list(bounds),
        **{key: _integer(sim_doc, key, getattr(sim_default, key), "sim") for key in counts},
    )
    _expect(sim.strategy in ("centralized", "noiter", "coop"), "sim.strategy: unknown strategy")
    for key, least in counts.items():
        check_count("sim." + key, getattr(sim, key), least)

    return ProblemConfig(
        subsystems=sub,
        cost=cost,
        horizon=horizon,
        input_box=input_box,
        terminal_radius=terminal_radius,
        lqr=lqr,
        solver=solver,
        sim=sim,
    )


def parse_config(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("line %d column %d: %s" % (exc.lineno, exc.colno, exc.msg)) from exc
    return config_from_dict(doc)


def load_config(path):
    with open(path, "r") as fh:
        return parse_config(fh.read())


def _weight_matrix(value, size, where):
    """A weight entry is either a full matrix or a scalar meaning c * I."""
    if isinstance(value, (int, float)):
        return float(value) * np.eye(size)
    arr = np.asarray(value, dtype=float)
    _expect(arr.shape == (size, size), "%s: expected a %dx%d matrix or a scalar" % (where, size, size))
    return arr


def _design_weight(value, size, where):
    """An LQR design weight: a symmetric positive definite matrix, or a scalar > 0."""
    W = _weight_matrix(value, size, where)
    _expect(np.array_equal(W, W.T), "%s: must be symmetric" % where)
    try:
        check_pd(W, where)
    except NotPD as exc:
        raise ConfigError("%s: must be positive definite" % where) from exc
    return W


def _assemble_Q(cfg, row_sizes):
    if cfg.cost.Q is not None:
        return [
            _weight_matrix(Qi, row_sizes[i], "cost.Q[%d]" % i)
            for i, Qi in enumerate(cfg.cost.Q)
        ]
    M = len(row_sizes)
    dims = np.asarray(cfg.subsystems.dims, dtype=int)
    out = []
    for i, blocks_row in enumerate(cfg.cost.Qblocks):
        _expect(
            isinstance(blocks_row, list) and len(blocks_row) == M,
            "cost.Qblocks[%d]: expected %d block rows" % (i, M),
        )
        rows = []
        for j in range(M):
            _expect(len(blocks_row[j]) == M, "cost.Qblocks[%d][%d]: expected %d blocks" % (i, j, M))
            row = []
            for l in range(M):
                block = np.asarray(blocks_row[j][l], dtype=float)
                rows_jl, cols_jl = dims[i, j], dims[i, l]
                _expect(
                    block.size == rows_jl * cols_jl,
                    "cost.Qblocks[%d][%d][%d]: expected a %dx%d block" % (i, j, l, rows_jl, cols_jl),
                )
                row.append(block.reshape(rows_jl, cols_jl))
            rows.append(row)
        out.append(np.block(rows))
    return out


def build_problem(cfg):
    """Assemble, transform and synthesize a Problem from a parsed config.

    Raises the underlying toolkit error (NotPSD, NotSchur, SelectionFailed
    and so on) untouched so callers can map them to exit codes.
    """
    dims_arr = np.asarray(cfg.subsystems.dims, dtype=int)
    M_cfg = dims_arr.shape[0]
    m_list = []
    for j in range(M_cfg):
        rows = np.nonzero(dims_arr[:, j])[0]
        _expect(rows.size > 0, "subsystems.dims: column %d has no state block" % j)
        block = np.atleast_2d(np.asarray(cfg.subsystems.B[int(rows[0])][j], dtype=float))
        if block.shape[0] != dims_arr[int(rows[0]), j]:
            block = block.T
        m_list.append(block.shape[1])
    blocks = SubsystemBlocks(
        dims=cfg.subsystems.dims,
        A=cfg.subsystems.A,
        B=cfg.subsystems.B,
        m=m_list,
    )
    plant = build_composite(blocks)
    pmap = build_permutation(blocks.dims)
    tplant = transform_plant(plant, pmap)
    M = blocks.M
    row_sizes = blocks.dims.sum(axis=1)
    bar_sizes = pmap.bar_dims
    Q = _assemble_Q(cfg, row_sizes)
    R = [_weight_matrix(Ri, blocks.m[i], "cost.R[%d]" % i) for i, Ri in enumerate(cfg.cost.R)]
    if cfg.cost.P == "auto":
        P = None
    else:
        P = [_weight_matrix(Pi, row_sizes[i], "cost.P[%d]" % i) for i, Pi in enumerate(cfg.cost.P)]
    cost = CostSpec(Q=Q, R=R, rho=cfg.cost.rho, N=cfg.horizon, P=P)
    lqr_Q = [_design_weight(v, bar_sizes[i], "lqr.Q[%d]" % i) for i, v in enumerate(cfg.lqr.Q)]
    lqr_R = [_design_weight(v, blocks.m[i], "lqr.R[%d]" % i) for i, v in enumerate(cfg.lqr.R)]
    gains = None
    if cfg.lqr.K is not None:
        gains = [
            None if Ki is None else np.asarray(Ki, dtype=float).reshape(blocks.m[i], bar_sizes[i])
            for i, Ki in enumerate(cfg.lqr.K)
        ]
    radii = (
        [1.0] * M
        if cfg.terminal_radius == "auto"
        else [float(r) for r in cfg.terminal_radius]
    )
    u_max = [np.asarray(b, dtype=float).reshape(-1) for b in cfg.input_box]
    for i, b in enumerate(u_max):
        m_i = blocks.m[i]
        _expect(b.size in (1, m_i), "input_box[%d]: expected one bound or one per input (%d)" % (i, m_i))
    ingredients, final_cost, tcost = synthesize(
        tplant, cost, lqr_Q, lqr_R, radii, u_max, gains=gains
    )
    return Problem(
        pmap=pmap,
        tplant=tplant,
        cost=final_cost,
        tcost=tcost,
        ingredients=ingredients,
        u_max=u_max,
        N=cfg.horizon,
        solver=replace(cfg.solver),
    )


def initial_state(cfg, problem, seed=None):
    """Regrouped initial state from the sim section.

    Uses sim.x0 when present (original ordering), otherwise one uniform
    draw from sim.bounds with the given or configured seed.  A given seed
    must be an integer of at least 0, or DimensionMismatch is raised.
    """
    if seed is not None and not is_count(seed, 0):
        raise DimensionMismatch("seed must be an integer >= 0, got %r" % (seed,))
    if cfg.sim.x0 is not None:
        x0 = np.asarray(cfg.sim.x0, dtype=float).reshape(-1)
        if x0.shape[0] != problem.n:
            raise ConfigError("sim.x0: expected %d entries" % problem.n)
    else:
        use_seed = cfg.sim.seed if seed is None else seed
        rng = np.random.Generator(np.random.PCG64(int(use_seed)))
        lo, hi = cfg.sim.bounds
        x0 = lo + (hi - lo) * rng.random(problem.n)
    return problem.pmap.to_regrouped(x0)
