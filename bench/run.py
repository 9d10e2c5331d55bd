"""The qcmap benchmark: one command, every metric, every output checked.

Usage (from the repository root):
    python3 bench/run.py --workload W --seed N --seconds T --trace 0|1
    python3 bench/run.py --smoke

Workloads (see bench/README.md for why each exists):
    solve-moderate         warm session, disk fields |c| in [0.3, 0.6], n=512
    solve-high-dilatation  warm session, |c| in [0.8, 0.95] disks and
                           truncated sectors, n=256, max_iter=1000
    cli-pipeline           cold: every op is a fresh ``python -m qcmap.cli``

Prints a report (metadata, every metric with its sample count, fail_frac,
tracing overhead) and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1. Traced runs also write their spans to bench/out/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import pipeline
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SESSIONS = ("solve-moderate", "solve-high-dilatation")
WORKLOADS = SESSIONS + ("cli-pipeline",)
SETUP_REPEATS = 5
CLI_GRID_N = 512
CLI_MAX_ITER = 200
OP_TIMEOUT_S = 100

# end-to-end metric -> unit; the result line carries those in BENCHMARK.json.
# The report adds certify_gap_err and fail_frac (see bench/README.md).
END_TO_END = {
    "setup_s": "s",
    "solve_p50_s": "s",
    "solve_oracle_err": "1",
    "certify_p50_s": "s",
    "locus_p50_s": "s",
    "locus_max_abs_c": "1",
    "render_p50_s": "s",
    "peak_rss_mb": "MB",
}
UNITS = {**END_TO_END, "certify_gap_err": "1"}
TIMED = {"solve_p50_s": ("solve",),
         "certify_p50_s": ("certify_map", "certify_fc", "certify_fangle"),
         "locus_p50_s": ("locus",),
         "render_p50_s": ("render",)}
ACCURACY = {"solve_oracle_err": ("solve", "oracle_err", statistics.median),
            "certify_gap_err": ("certify_fc", "gap_err", statistics.median),
            "locus_max_abs_c": ("locus", "max_abs_c", max)}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def _number(x):
    """JSON has no NaN: a metric without samples is null (and the run then
    has failed ops)."""
    return x if math.isfinite(x) else None


# -- session workloads ---------------------------------------------------------

def run_session(args, work):
    """Set up SETUP_REPEATS session processes; the last one runs the loop."""
    setups, result_path = [], work / "session.json"
    base = [sys.executable, str(BENCH / "session.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work", str(work)]
    for k in range(SETUP_REPEATS):
        last = k == SETUP_REPEATS - 1
        extra = ["--result", str(result_path)] if last else ["--setup-only"]
        probes, start = pipeline.fresh_probe()
        t0 = time.perf_counter()
        proc = subprocess.Popen(base + extra, stdout=subprocess.PIPE,
                                env=child_env(), cwd=ROOT, text=True)
        try:
            line = proc.stdout.readline()
            setups.append(("setup", time.perf_counter() - t0, probes, start))
            proc.communicate(timeout=args.seconds + OP_TIMEOUT_S)
            rc = proc.returncode
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "READY" or rc != 0:
            raise RuntimeError(f"session process failed (exit {rc})")
    res = json.loads(result_path.read_text())
    traces = {None: res["trace"]} if res["trace"] else {}
    return res["ops"], setups, res["peak_rss_mb"], [res["import_s"]], traces


# -- cold CLI workload ---------------------------------------------------------

def run_cli(args, work):
    env = child_env()
    setups = []
    for _ in range(SETUP_REPEATS):
        probes, start = pipeline.fresh_probe()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "qcmap.cli", "--version"],
                              env=env, cwd=ROOT, capture_output=True,
                              timeout=OP_TIMEOUT_S)
        wall = time.perf_counter() - t0
        setups.append(("setup", wall, probes, start))
        if proc.returncode != 0:
            raise RuntimeError("qcmap.cli --version failed")

    inp = pipeline.Inputs(args.seed)
    paths = {k: str(work / name) for k, name in
             (("field", "field.json"), ("map", "map.qcmap"),
              ("locus", "locus.csv"), ("ppm", "out.ppm"))}
    traced = [False]
    traces, import_s = {}, []

    def command(argv, res):
        def call(op_id):
            if traced[0]:
                trace_path = work / f"trace-{op_id}.json"
                cmd = [sys.executable, str(BENCH / "cli_runner.py"),
                       str(trace_path)] + argv
            else:
                cmd = [sys.executable, "-m", "qcmap.cli"] + argv
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=OP_TIMEOUT_S)
            wall = time.perf_counter() - t0
            res["rc"], res["out"] = proc.returncode, proc.stdout
            if traced[0]:
                trace = json.loads(trace_path.read_text())
                import_s.append(trace.pop("import_s"))
                traces[op_id] = trace
            return wall
        return call

    def iteration(i):
        spec = pipeline.cli_field(inp, i)
        Path(paths["field"]).write_text(json.dumps(spec))
        theta0 = inp.locus_theta0(i)
        state = {}
        todo = [("solve", pipeline.solve_argv(paths, CLI_GRID_N, CLI_MAX_ITER))]
        todo += pipeline.steps(spec, theta0, paths)
        for kind, argv in todo:
            res = {}

            def check(kind=kind, res=res):
                return pipeline.check_step(kind, res["rc"], res["out"], spec,
                                           theta0, paths, CLI_GRID_N, state)

            yield kind, command(argv, res), check

    ops = pipeline.closed_loop(iteration, args.seconds, args.trace,
                               lambda on: traced.__setitem__(0, on),
                               spawns=True, min_iters=pipeline.ACCURACY_OPS)
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return ops, setups, rss, import_s, traces


# -- metrics and report ----------------------------------------------------------

def end_to_end(ops, setups, rss):
    """name -> (value, samples) over the given ops.

    Times are rescaled to the probes' reference speed. An in-process op
    uses the probes taken around it, which track it closely. An op or set-up
    that starts a process has its own start-up probe subtracted, and the
    rest rescaled by the median of the run's compute probes (the set-ups'
    and the ops' apart): probes in another fresh process track the op's
    process only on average. Setups are ("setup", wall, compute probes,
    start-up probe) tuples.
    """
    def run_probes(probes):
        return [_median([p[k] for p in probes]) for k in (0, 1)]

    setup_probes = run_probes([s[2] for s in setups])
    out = {"setup_s": (_median([
        pipeline.at_ref_speed(kind, wall, setup_probes, start)
        for kind, wall, _, start in setups]), len(setups))}
    op_probes = run_probes([o["probes"] for o in ops if "probes" in o])
    for name, kinds in TIMED.items():
        times = [pipeline.at_ref_speed(
                     o["kind"], o["wall_s"],
                     op_probes if o["start_s"] else o["probes"], o["start_s"])
                 for o in ops if o["ok"] and o["kind"] in kinds]
        out[name] = (_median(times), len(times))
    for name, (kind, key, reduce) in ACCURACY.items():
        vals = [o["acc"][key] for o in ops
                if o["ok"] and o["kind"] == kind and key in o["acc"]]
        vals = vals[:pipeline.ACCURACY_OPS]
        out[name] = (reduce(vals) if vals else float("nan"), len(vals))
    out["peak_rss_mb"] = (rss, 1)
    return out


def per_layer(ops, traces, import_s, overhead_frac):
    """Per-layer metrics, the solver.sweeps check, and the spans to write.

    ``traces`` maps None to the one trace of a session, whose spans carry op
    ids, or each traced CLI op's id to the trace of its process.
    """
    op_kinds = {o["id"]: o["kind"] for o in ops if o["traced"]}
    per_op, solves = {}, {}
    spans = {"op_kinds": op_kinds,
             "traces": [{"op": key, **trace} for key, trace in traces.items()]}
    for key, trace in traces.items():
        agg, infos = tracing.per_op(trace["spans"], trace["counts"])
        if key is None:  # one session trace, tagged with op ids
            per_op.update(agg)
            solves.update(infos)
        else:  # one CLI process per op
            per_op[key] = agg.get(0, {})
            solves[key] = infos.get(0, [])
    metrics = tracing.layer_metrics(per_op, solves, op_kinds, import_s,
                                    overhead_frac)
    sweeps_ok = all(
        len(solves.get(op, [])) == 1
        and solves[op][0]["iterations"]
        == per_op[op].get("solver.singular_transform.calls")
        for op, kind in op_kinds.items() if kind == "solve")
    return metrics, sweeps_ok, spans


def metadata(args):
    cpu = platform.processor()
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": commit,
            "src_lines": sum(len(p.read_text().splitlines())
                             for p in SRC.rglob("*.py"))}


def run(args):
    compileall.compile_dir(str(SRC), quiet=1)
    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = run_session if args.workload in SESSIONS else run_cli
        ops, setups, rss, import_s, traces = runner(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    (out_dir / f"ops-{tag}.json").write_text(
        json.dumps({"setups": setups, "ops": ops}))
    untraced = [o for o in ops if not o["traced"]]
    failed = [o for o in ops if not o["ok"]]
    e2e = end_to_end(untraced, setups, rss)
    report = {"metadata": metadata(args),
              "fail_frac": len(failed) / len(ops),
              "failures": [f"{o['kind']}: {o['error']}" for o in failed][:20],
              "end_to_end": {k: {"value": v, "unit": UNITS[k],
                                 "samples": n} for k, (v, n) in e2e.items()},
              "unscaled_wall_p50_s": {
                  k: _median([o["wall_s"] for o in untraced
                              if o["ok"] and o["kind"] in kinds])
                  for k, kinds in TIMED.items()},
              "probe_p50_s": {
                  "numpy": _median([o["probes"][0] for o in ops
                                    if "probes" in o]),
                  "python": _median([o["probes"][1] for o in ops
                                     if "probes" in o]),
                  "start": _median([s[3] for s in setups])}}
    if args.trace:
        traced = end_to_end([o for o in ops if o["traced"]], setups, rss)
        overhead = {k: traced[k][0] - e2e[k][0] for k in TIMED}
        base = sum(e2e[k][0] for k in TIMED)
        frac = sum(overhead.values()) / base
        layers, sweeps_ok, spans = per_layer(ops, traces, import_s, frac)
        spans_path = out_dir / f"spans-{tag}.json"
        spans_path.write_text(json.dumps(spans))
        report["tracing_overhead_s"] = overhead
        report["per_layer"] = layers
        report["checks"] = {"sweeps_equal_iterations": sweeps_ok}
        report["spans_file"] = str(spans_path.relative_to(ROOT))
        metrics = {k: {"value": _number(layers[k]), "unit": u}
                   for k, u in tracing.PER_LAYER.items()}
    else:
        metrics = {k: {"value": _number(e2e[k][0]), "unit": u}
                   for k, u in END_TO_END.items()}
    print(json.dumps(report, indent=1))
    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


# -- smoke test ------------------------------------------------------------------

def smoke():
    """Each workload briefly, untraced and traced; assert names, units, counts."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            tag = f"{workload} trace={trace}"
            if proc.returncode != 0 or not lines:
                problems.append(f"{tag}: exit {proc.returncode}\n{proc.stderr}")
                continue
            res = json.loads(lines[-1])
            report = json.loads("\n".join(lines[:-1]))
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{tag}: metrics {got} != {want[trace]}")
            if res["failed"] or not res["correct"] or report["fail_frac"]:
                problems.append(f"{tag}: failures {report['failures']}")
            if trace:
                m = res["metrics"]
                for name, expected in (("modulus.map_calls", 541),
                                       ("modulus.bounding_annuli_calls", 180),
                                       ("modulus.map_points", 368829),
                                       ("field.evaluate_calls", 9)):
                    if m[name]["value"] != expected:
                        problems.append(f"{tag}: {name} = {m[name]['value']},"
                                        f" expected {expected}")
                if not report["checks"]["sweeps_equal_iterations"]:
                    problems.append(f"{tag}: solver.sweeps != GridMap.iterations")
            print(f"{tag}: {res['attempted']} ops checked", flush=True)
    for p in problems:
        print("SMOKE FAIL", p)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run each workload briefly and check the metrics")
    args = p.parse_args(argv)
    if not (SRC / "qcmap" / "cli.py").is_file():
        print(f"error: no qcmap sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        p.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
