"""Warm library session: one process, one client, a closed loop.

Usage: python bench/session.py --workload W --seed N --seconds T --trace 0|1
       --work DIR (--setup-only | --result FILE)

Imports qcmap, makes one untimed warm-up solve and prints READY; the parent
times set-up from process start to that line. With --result the session then
runs iterations until T seconds have passed: a library ``solve_principal``
call on the workload's next field, then the remaining pipeline steps as
in-process ``qcmap.cli.main`` calls on the solved map. It writes its ops,
import time, peak RSS and (when traced) spans to FILE.
"""

import time

_t0 = time.perf_counter()
import qcmap.cli as cli  # noqa: E402
IMPORT_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

from qcmap import field, solver  # noqa: E402

import pipeline  # noqa: E402
import tracing  # noqa: E402

# workload -> (grid_n, max_iter, field generator, iterations per disk
# field). The seed's default max_iter=200 does not converge at |c| = 0.95
# (231 sweeps at n=256).
WORKLOADS = {
    "solve-moderate": (512, 200, pipeline.moderate_field, 1),
    "solve-high-dilatation": (256, 1000, pipeline.high_dilatation_field, 2),
}


def run_main(argv):
    """qcmap.cli.main(argv) in this process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue()


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--result")
    args = p.parse_args()

    grid_n, max_iter, make_field, per_disk = WORKLOADS[args.workload]
    cfg = solver.SolverConfig(grid_n=grid_n, max_iter=max_iter)
    solver.solve_principal(field.DiskConstant(0.5), cfg)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = tracing.Tracer()
    inp = pipeline.Inputs(args.seed)
    paths = {k: os.path.join(args.work, name) for k, name in
             (("map", "map.qcmap"), ("locus", "locus.csv"), ("ppm", "out.ppm"))}

    def timed(fn):
        def call(op_id):
            tracer.op = op_id
            try:
                t0 = time.perf_counter()
                fn()
                return time.perf_counter() - t0
            finally:
                tracer.op = None
        return call

    def iteration(i):
        spec = make_field(inp, i)
        mu = field.field_from_json(spec)
        theta0 = inp.locus_theta0(i)
        state = {}

        def solve():
            state["gm"] = solver.solve_principal(mu, cfg)

        def check_solve():
            gm = state.pop("gm")
            acc = pipeline.check_solved(spec, gm.bbox, gm.values, grid_n)
            gm.save(paths["map"])
            return acc

        yield "solve", timed(solve), check_solve
        for kind, argv in pipeline.steps(spec, theta0, paths):
            res = {}

            def step(argv=argv, res=res):
                res["rc"], res["out"] = run_main(argv)

            def check(kind=kind, res=res):
                return pipeline.check_step(kind, res["rc"], res["out"], spec,
                                           theta0, paths, grid_n, state)

            yield kind, timed(step), check

    patches = []

    def set_traced(on):
        if on and not patches:
            patches.extend(tracing.install(tracer))
        elif not on and patches:
            tracing.uninstall(patches)
            patches.clear()

    ops = pipeline.closed_loop(iteration, args.seconds, args.trace, set_traced,
                               min_iters=pipeline.ACCURACY_OPS * per_disk)
    result = {"ops": ops, "import_s": IMPORT_S,
              "peak_rss_mb":
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "trace": tracer.export() if args.trace else None}
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
