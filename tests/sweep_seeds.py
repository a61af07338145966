"""Long run of the seeded differential sweep test over a range of seeds.

    PYTHONPATH=src python tests/sweep_seeds.py 5001 6000

Each seed's random surface or mapped draw goes through a five-weight L-curve
sweep and its solve at the chosen weight (``test_solver.check_random_sweep``):
every weight is checked against the LSI -> LDP -> NNLS oracle (scipy) and
``kkt_check``.  Prints each failing seed and a summary line with the total
steps of the solver's loop over the passing seeds and the largest share of
its iteration cap (10 n_free + 100, ``solve``'s default) that one solve
took; exits 1 if any seed fails.
"""

import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_solver import check_random_sweep  # noqa: E402


def main(argv=None) -> int:
    first, last = (int(a) for a in (sys.argv[1:] if argv is None else argv))
    seeds = range(first, last + 1)
    start, failed, steps, worst = time.perf_counter(), [], 0, (0.0, None)
    for seed in seeds:
        try:
            problem, solved = check_random_sweep(seed)
        except Exception as exc:  # noqa: BLE001 - every failure is reported
            failed.append(seed)
            where = traceback.extract_tb(exc.__traceback__)[-1]
            print(f"seed {seed}: {type(exc).__name__} at {Path(where.filename).name}:"
                  f"{where.lineno} ({where.line}): {str(exc)[:200]}")
            continue
        cap = 10 * (problem.n_params - len(problem.fixed_zero)) + 100
        steps += sum(sol.iterations for _, sol in solved)
        worst = max(worst, (max(sol.iterations for _, sol in solved) / cap, seed))
    print(f"{len(seeds) - len(failed)} of {len(seeds)} seeds passed "
          f"in {time.perf_counter() - start:.1f} s; {steps} loop steps, "
          f"at most {worst[0]:.3f} of the iteration cap (seed {worst[1]})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
