"""The library's outputs against the committed reference (tests/data/reference_outputs.json).

Iteration counts, statuses, excluded draws and alpha must match exactly.
Every float must lie within RTOL of the largest magnitude in its column;
no hash is compared, since BLAS kernels differ between CPUs.  A change
whose outputs move on purpose regenerates the file with
`tests/reference_outputs.py` and states the largest move.
"""

import json

import numpy as np

import reference_outputs

RTOL = 1e-12


def largest_moves(got, want):
    """{column: (move, allowed)} for every column present in both, where
    the allowed move is RTOL times the column's largest reference magnitude."""
    moves = {}
    for name, ref in want.items():
        if name not in got or len(got[name]) != len(ref):
            continue
        missing = [v is None for v in ref]
        if missing != [v is None for v in got[name]]:
            moves[name] = (np.inf, 0.0)
            continue
        a = np.array([v for v in got[name] if v is not None], dtype=float)
        b = np.array([v for v in ref if v is not None], dtype=float)
        moves[name] = (float(np.max(np.abs(a - b), initial=0.0)), RTOL * float(np.max(np.abs(b), initial=0.0)))
    return moves


def test_outputs_match_reference():
    with open(reference_outputs.PATH) as fh:
        ref = json.load(fh)
    exact, columns = reference_outputs.collect()
    assert sorted(exact) == sorted(ref["exact"])
    assert sorted(columns) == sorted(ref["columns"])
    wrong = [name for name, value in ref["exact"].items() if exact[name] != value]
    moves = largest_moves(columns, ref["columns"])
    mismatched = [
        name
        for name, value in ref["columns"].items()
        if len(columns[name]) != len(value) or moves[name][0] > moves[name][1]
    ]
    if wrong or mismatched:
        for name, (move, allowed) in sorted(moves.items(), key=lambda kv: -kv[1][0]):
            print("%-48s largest move %.3e (allowed %.3e)" % (name, move, allowed))
    assert not wrong, "exact outputs differ: %s" % wrong
    assert not mismatched, "columns moved beyond %.0e of their largest value: %s" % (RTOL, mismatched)
