"""Long run of the seeded differential sweep test over a range of seeds.

    PYTHONPATH=src python tests/sweep_seeds.py 5001 6000

Each seed's random surface or mapped draw goes through a five-weight L-curve
sweep, whose fit is its chosen weight's solve (``test_solver.check_random_sweep``):
every weight is checked against the LSI -> LDP -> NNLS oracle (scipy) and
``kkt_check``.  Prints each failing seed and a summary line with the total
steps of the solver's loop over the passing seeds and the largest share of
its iteration cap that one solve took, against the cap ``solve`` uses,
10 (n_free + m) + 100 for n_free free parameters and m inequality rows,
and the smallest margin by which a sweep's handed-over working rows clear
the independence test, |T_ii| / (INDEP_TOL ||F_j||) (``hand_over_margins``;
a margin at or below 1 would be a refusal, which ``lcurve`` raises); then,
so that steps stand next to time, the total loop steps and the wall time of
the default Treloar sweeps of the surface and mapped kinds (their 25
weights).  Exits 1 if any seed fails.
"""

import sys
import time
import traceback
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))

from hyperspline import ModelKind, lcurve, solver  # noqa: E402
from hyperspline.cli import RunConfig, bundled_treloar_path, ingest, run_calibration  # noqa: E402
from test_solver import check_random_sweep, hand_over_margins  # noqa: E402


def treloar_sweeps():
    """(kind, loop steps, wall time in s) of the default Treloar sweep of
    each surface kind, its steps counted through ``solver.solve``."""
    data = bundled_treloar_path()
    samples, solve, out = ingest(data), solver.solve, []
    for kind in (ModelKind.SURFACE, ModelKind.MAPPED_SURFACE):
        fit = run_calibration(RunConfig(kind=kind.value, data=str(data)), samples)
        problem, steps = fit.problem, []

        def counted(*args, **kwargs):
            sol = solve(*args, **kwargs)
            steps.append(sol.iterations)
            return sol

        with mock.patch.object(solver, "solve", counted):
            start = time.perf_counter()
            lcurve(problem)
            out.append((kind.value, sum(steps), time.perf_counter() - start))
    return out


def main(argv=None) -> int:
    first, last = (int(a) for a in (sys.argv[1:] if argv is None else argv))
    seeds = range(first, last + 1)
    start, failed, steps, worst = time.perf_counter(), [], 0, (0.0, None)
    margin = (float("inf"), None)
    for seed in seeds:
        try:
            with hand_over_margins() as margins:
                problem, solved = check_random_sweep(seed)
        except Exception as exc:  # noqa: BLE001 - every failure is reported
            failed.append(seed)
            where = traceback.extract_tb(exc.__traceback__)[-1]
            print(f"seed {seed}: {type(exc).__name__} at {Path(where.filename).name}:"
                  f"{where.lineno} ({where.line}): {str(exc)[:200]}")
            continue
        rows = 0 if problem.A_ineq is None else problem.A_ineq.shape[0]
        cap = 10 * (problem.n_params - len(problem.fixed_zero) + rows) + 100
        steps += sum(sol.iterations for _, sol in solved)
        worst = max(worst, (max(sol.iterations for _, sol in solved) / cap, seed))
        if margins:  # an empty working set is handed over with no test
            margin = min(margin, (min(margins), seed))
    print(f"{len(seeds) - len(failed)} of {len(seeds)} seeds passed "
          f"in {time.perf_counter() - start:.1f} s; {steps} loop steps, "
          f"at most {worst[0]:.3f} of the iteration cap (seed {worst[1]}), "
          f"smallest hand-over margin {margin[0]:.2g} (seed {margin[1]})")
    for kind, steps, wall in treloar_sweeps():
        print(f"default Treloar {kind} sweep: {steps} loop steps in {wall:.3f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
