"""End-to-end and per-layer benchmark of the ``degswap`` command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a fixed list of ``degswap`` commands over inputs generated
from ``--seed``.  One client runs the list as a closed loop, one CLI process
at a time, for about ``--seconds`` seconds, and checks every output.  The
last line of stdout is the result object; the line before it holds the
details (per command, per subcommand, the machine).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with traced ones, in which every command runs through
``traced_cli.py`` with spans around each measured function, and reports the
per-layer metrics.  The program is imported from ``src`` of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from time import perf_counter

import checks
import spans
from inputs import Instance, build_instances
from workloads import WORKLOADS, Command, chain_labels

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")

SETUP_REPEATS = 7
HARD_LIMIT_S = 150.0  # no command starts after this; the run must end by 180 s
COMMAND_TIMEOUT_S = 60.0
BOOT = (
    "import sys; sys.path.insert(0, sys.argv.pop(1)); "
    "from degswap.cli import main; sys.exit(main(sys.argv[1:]))"
)
SUBCOMMANDS = ("sample", "realize", "recognize", "stats")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Outcome:
    """One command of one pass."""

    cmd: Command
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    problems: list[str] = field(default_factory=list)
    layers: dict = field(default_factory=dict)  # traced passes only


# ---------------------------------------------------------------------------
# machine and set-up


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_model": model,
        "loadavg_at_start": os.getloadavg(),
    }


def instance_names(cmds: list[Command]) -> list[str]:
    return list(dict.fromkeys(c.instance for c in cmds))


def set_up(cmds: list[Command], seed: int, work: str) -> tuple[dict[str, Instance], float]:
    """Generate and write the inputs, then import the CLI once in a fresh process.

    Repeated; returns the last instances and the median set-up time.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        directory = os.path.join(work, "inputs")
        shutil.rmtree(directory, ignore_errors=True)
        instances = build_instances(instance_names(cmds), seed, directory)
        done = subprocess.run(
            [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import degswap.cli", SRC],
            cwd=ROOT, capture_output=True, timeout=COMMAND_TIMEOUT_S,
        )
        times.append(perf_counter() - start)
        if done.returncode != 0:
            raise BenchError("cannot import degswap.cli: " + done.stderr.decode(errors="replace")[-500:])
    return instances, statistics.median(times)


# ---------------------------------------------------------------------------
# one command


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_command(cmd: Command, inst: Instance, seed: int, work: str, timeout: float,
                span_dir: str | None) -> Outcome:
    """Spawn, wait, parse and check one command; time spawn to parsed JSON."""
    argv = cmd.argv(inst.path, not inst.as_sequence, seed)
    if span_dir is None:
        prefix = [sys.executable, "-c", BOOT, SRC]
    else:
        prefix = [sys.executable, os.path.join(HERE, "traced_cli.py"), span_dir]
    out_path = os.path.join(work, "stdout.json")
    err_path = os.path.join(work, "stderr.txt")
    result = Outcome(cmd)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(prefix + argv, stdout=out, stderr=err, cwd=ROOT, start_new_session=True)
        timer = threading.Timer(timeout, _kill_group, (proc.pid,))
        timer.start()
        # wait without reaping, so the group id cannot be reused before
        # stragglers are killed
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        timer.cancel()
        timer.join()
        _kill_group(proc.pid)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            with open(out_path, "rb") as fh:
                payload = json.loads(fh.read())
        except ValueError:
            payload = None
        result.wall = perf_counter() - start
    # rusage of a reaped process includes its reaped children (pool workers)
    result.cpu = usage.ru_utime + usage.ru_stime
    result.rss_mb = usage.ru_maxrss / 1024.0
    if proc.returncode != 0:
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            result.problems.append(f"exit code {proc.returncode}: {fh.read()[-300:]}")
    elif payload is None:
        result.problems.append("stdout is not JSON")
    else:
        result.problems += checks.check(payload, cmd, inst)
    return result


# ---------------------------------------------------------------------------
# layer metrics from spans

# layer metric -> (span name, statistic)
LAYER_SPANS = {
    "cli.import_s": ("cli.import", "s"),
    "cli.main.self_s": ("cli.main", "self_s"),
    "core.parse_edgelist.s": ("core.parse_edgelist", "s"),
    "core.canonical_key.s": ("core.canonical_key", "s"),
    "core.canonical_key.calls": ("core.canonical_key", "calls"),
    "realize.realize_directed.s": ("realize.realize_directed", "s"),
    "realize.realize_undirected.s": ("realize.realize_undirected", "s"),
    "realize.is_digraphical.s": ("realize.is_digraphical", "s"),
    "chain.run_chain.s": ("chain.run_chain", "s"),
    "chain.run_chain.calls": ("chain.run_chain", "calls"),
    "arcswap.recognize.s": ("arcswap.recognize", "s"),
    "arcswap.detect_induced_cycle_sets.s": ("arcswap.detect_induced_cycle_sets", "s"),
    "arcswap.detect_induced_cycle_sets.calls": ("arcswap.detect_induced_cycle_sets", "calls"),
    "arcswap.arc_probability_bias.s": ("arcswap.arc_probability_bias", "s"),
    "stats.ensemble_stats.self_s": ("stats.ensemble_stats", "self_s"),
    "stats.count_directed_3cycles.s": ("stats.count_directed_3cycles", "s"),
    "stats.count_directed_3cycles.calls": ("stats.count_directed_3cycles", "calls"),
}
REALIZE_SPANS = ("realize.realize_directed", "realize.realize_undirected", "realize.is_digraphical")


def span_totals(span_list: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: inclusive seconds, self seconds, calls, summed extras."""
    totals: dict[str, dict[str, float]] = {}
    for s, self_s in zip(span_list, spans.self_times(span_list)):
        t = totals.setdefault(s["name"], {"s": 0.0, "self_s": 0.0, "calls": 0, "steps": 0, "moves": 0})
        t["s"] += s["end"] - s["start"]
        t["self_s"] += self_s
        t["calls"] += 1
        for k, v in s["extra"].items():
            t[k] += v
    return totals


def chain_stats(run_chain: dict) -> dict[str, float]:
    steps = run_chain.get("steps", 0)
    return {
        "s": run_chain.get("s", 0.0),
        "steps": steps,
        "moves": run_chain.get("moves", 0),
        "accept_ratio": run_chain.get("moves", 0) / steps if steps else 0.0,
        "step_us": run_chain.get("s", 0.0) / steps * 1e6 if steps else 0.0,
    }


def layer_metrics(outcomes: list[Outcome]) -> dict[str, float]:
    """Per-layer metrics of one traced pass; labels not in the pass read 0."""
    merged: dict[str, dict[str, float]] = {}
    for o in outcomes:
        for name, t in o.layers.items():
            m = merged.setdefault(name, dict.fromkeys(t, 0))
            for k, v in t.items():
                m[k] += v
    metrics = {key: merged.get(name, {}).get(stat, 0) for key, (name, stat) in LAYER_SPANS.items()}
    metrics["realize.calls"] = sum(merged.get(n, {}).get("calls", 0) for n in REALIZE_SPANS)
    for stat, value in chain_stats(merged.get("chain.run_chain", {})).items():
        if stat != "s":
            metrics[f"chain.{stat}"] = value
    by_label = {o.cmd.label: o.layers.get("chain.run_chain", {}) for o in outcomes}
    for label in chain_labels():
        for stat, value in chain_stats(by_label.get(label, {})).items():
            metrics[f"chain.{label}.{stat}"] = value
    return metrics


def trace_problems(cmd: Command, totals: dict) -> list[str]:
    """Spans lost, for instance from pool workers, make the trace unusable."""
    rc = totals.get("chain.run_chain", {})
    want_calls = cmd.runs if cmd.steps else 0
    if rc.get("calls", 0) != want_calls or rc.get("steps", 0) != cmd.steps:
        return [f"trace saw {rc.get('calls', 0)} chains / {rc.get('steps', 0)} steps, "
                f"want {want_calls} / {cmd.steps}"]
    if totals.get("cli.main", {}).get("calls") != 1:
        return ["trace lacks the cli.main span"]
    return []


# ---------------------------------------------------------------------------
# the closed loop


def run_pass(cmds, instances, seed, work, deadline, traced) -> list[Outcome]:
    outcomes = []
    for i, cmd in enumerate(cmds):
        timeout = min(COMMAND_TIMEOUT_S, max(1.0, deadline - perf_counter()))
        span_dir = None
        if traced:
            span_dir = os.path.join(work, f"spans-{i}")
            shutil.rmtree(span_dir, ignore_errors=True)
            os.makedirs(span_dir)
        o = run_command(cmd, instances[cmd.instance], seed, work, timeout, span_dir)
        if traced:
            o.layers = span_totals(spans.load(span_dir))
            if not o.problems:
                o.problems += trace_problems(cmd, o.layers)
            shutil.rmtree(span_dir, ignore_errors=True)
        outcomes.append(o)
    return outcomes


def per_command(passes: list[list[Outcome]], attr: str) -> list[float]:
    """Median of one field for each command across passes.

    A slow spell of the shared machine that hits one pass moves a
    per-command median less than a median of pass totals.
    """
    return [statistics.median(getattr(p[i], attr) for p in passes) for i in range(len(passes[0]))]


def subcommand_metrics(cmds: list[Command], walls: list[float]) -> dict[str, float]:
    """Per-subcommand wall sums, chain steps/s and ensemble chains/s."""
    out = {f"cmd.{sub}_s": sum(w for c, w in zip(cmds, walls) if c.sub == sub) for sub in SUBCOMMANDS}
    chain_wall = sum(w for c, w in zip(cmds, walls) if c.steps)
    out["cmd.steps_per_s"] = sum(c.steps for c in cmds) / chain_wall if chain_wall else 0.0
    ensemble_wall = sum(w for c, w in zip(cmds, walls) if c.runs > 1)
    runs = sum(c.runs for c in cmds if c.runs > 1)
    out["cmd.chains_per_s"] = runs / ensemble_wall if ensemble_wall else 0.0
    return out


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    if not os.path.isfile(os.path.join(SRC, "degswap", "cli.py")):
        raise BenchError(f"no program to measure: {SRC}/degswap/cli.py is missing")
    cmds = WORKLOADS[workload]
    info = machine()
    need = max(c.workers for c in cmds)
    if need > info["nproc"]:
        raise BenchError(f"workload {workload} needs {need} CPUs, this machine has {info['nproc']}")

    deadline = perf_counter() + HARD_LIMIT_S
    work = os.path.join(WORK, f"{workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        instances, setup_s = set_up(cmds, seed, work)
        plain: list[list[Outcome]] = []
        traced: list[list[Outcome]] = []
        loop_start = perf_counter()
        while True:
            is_traced = trace and len(plain) > len(traced)
            (traced if is_traced else plain).append(
                run_pass(cmds, instances, seed, work, deadline, is_traced)
            )
            done = len(plain) + len(traced)
            per_pass = (perf_counter() - loop_start) / done
            wanted = max(2 if trace else 1, round(seconds / per_pass))
            if done >= wanted or perf_counter() + per_pass > deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    every = [o for p in plain + traced for o in p]
    failed = sum(1 for o in every if o.problems)
    walls = per_command(plain, "wall")
    by_subcommand = subcommand_metrics(cmds, walls)
    if trace:
        metrics = dict(by_subcommand)
        layer_runs = [layer_metrics(p) for p in traced]
        for key in layer_runs[0]:
            metrics[key] = statistics.median(r[key] for r in layer_runs)
        metrics["trace.overhead_s"] = sum(per_command(traced, "wall")) - sum(walls)
    else:
        metrics = {
            "wall_s": sum(walls),
            "peak_rss_mb": max(per_command(plain, "rss_mb")),
            "setup_s": setup_s,
        }
    detail = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "machine": info,
        "setup_s": setup_s,
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "commands": {
            c.label: {"wall_s": w, "cpu_s": cpu, "rss_mb": rss, "pass_walls": [p[i].wall for p in plain]}
            for i, (c, w, cpu, rss) in enumerate(
                zip(cmds, walls, per_command(plain, "cpu"), per_command(plain, "rss_mb"))
            )
        },
        "subcommands": by_subcommand,
        "fail_frac": failed / len(every),
        "problems": sorted({f"{o.cmd.label}: {p}" for o in every for p in o.problems})[:20],
    }
    result = {
        "correct": failed == 0,
        "attempted": len(every),
        "failed": failed,
        "metrics": metrics,
    }
    return detail, result


UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_per_s"):
        return name.rsplit(".", 1)[-1].split("_per_s")[0] + "/s"
    if name.endswith("step_us"):
        return "us"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("accept_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        detail, result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result["metrics"] = {
        k: {"value": v, "unit": unit_of(k)} for k, v in result["metrics"].items()
    }
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
