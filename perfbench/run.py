"""coopmpc benchmark: one workload per process, end-to-end or per-layer metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload {flagship_loop,montecarlo,network8}
                             --seed N --seconds S --trace {0,1} [--smoke]

The library is imported from ``src/`` of the checkout; without it the
command exits with status 2 and prints no result.

A run pins BLAS to one thread, builds the problem repeatedly (the median
is ``setup_s``), then times passes of the workload's solve phase.  Times
are reported in reference seconds: wall seconds corrected for the drifting
speed of a shared host by a kernel sampled every 0.1 s (see hostclock.py);
the raw wall times are printed above them.

--trace 0   passes repeat until S seconds have elapsed (at least one); the
            end-to-end metrics of BENCHMARK.json are reported.
--trace 1   one untraced pass, then one pass with every layer wrapped in
            spans; the per-layer metrics are reported, the spans are
            written to --spans, and the slowdown between the two passes is
            ``trace.overhead_frac``.

Every run checks its outputs (see workloads.gate) and recomputes the exact
feasibility verdict of each failed solve (see oracle.py).  The last line of
standard output is one JSON object: correct, attempted (solves), failed
and metrics.  ``failed`` counts solves that raised SolverFailure where the
workload needs every solve to succeed.  ``monte_carlo`` excludes a draw
whose solve fails by design, so there failures show in ``solved_frac`` and
the printed ``failed_frac`` instead.

--smoke shrinks every workload to a few steps and draws; perfbench/test_smoke.py
runs it to check that every metric is printed with its unit.
"""

import argparse
import os
import sys

BLAS_THREADS = "1"
# Read by the BLAS libraries when they load, so set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("flagship_loop", "montecarlo", "network8"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny steps and draws")
    parser.add_argument(
        "--mc-seed", type=int, default=None,
        help="Monte Carlo seed of the montecarlo workload (default: the configured sim.seed, 20)",
    )
    parser.add_argument(
        "--spans", default=None,
        help="span dump of a traced run (default: perfbench/out/spans-<workload>-<seed>.json)",
    )
    return parser.parse_args(argv)


def import_library():
    """Import coopmpc from the checkout's src/ or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "coopmpc", "__init__.py")):
        sys.stderr.write("perfbench: no library source at %s\n" % SRC)
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import coopmpc

    if os.path.dirname(os.path.dirname(os.path.abspath(coopmpc.__file__))) != SRC:
        sys.stderr.write("perfbench: coopmpc imported from %s, not %s\n" % (coopmpc.__file__, SRC))
        sys.exit(2)


def main(argv=None):
    args = parse_args(argv)
    import_library()
    import measure

    return measure.run(args)


if __name__ == "__main__":
    sys.exit(main())
