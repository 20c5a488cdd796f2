"""Tests of the benchmark harness itself.

Run from the repository root: python3 -m pytest -q perfbench/test_harness.py
"""

import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from inputs import Instance, build_instances  # noqa: E402
from workloads import WORKLOADS, Command  # noqa: E402

ALL_INSTANCES = sorted({c.instance for cmds in WORKLOADS.values() for c in cmds})


# ---------------------------------------------------------------------------
# generator


def _files(directory):
    return {f: open(os.path.join(directory, f), "rb").read() for f in sorted(os.listdir(directory))}


def test_generator_is_deterministic_in_the_seed(tmp_path):
    a = build_instances(ALL_INSTANCES, 7, str(tmp_path / "a"))
    build_instances(ALL_INSTANCES, 7, str(tmp_path / "b"))
    c = build_instances(ALL_INSTANCES, 8, str(tmp_path / "c"))
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    changed = {f for f, data in _files(tmp_path / "c").items() if data != _files(tmp_path / "a")[f]}
    assert changed == {f for f in _files(tmp_path / "a") if not f.startswith("tri.")}
    for name in ALL_INSTANCES:
        assert (a[name].kind, a[name].n, a[name].m) == (c[name].kind, c[name].n, c[name].m)


def test_generated_shapes(tmp_path):
    inst = build_instances(["dense-di", "star", "ex1-k8"], 3, str(tmp_path))
    assert set(inst["dense-di"].degrees()) == {(36, 36)}
    assert sorted(inst["star"].degrees())[-2:] == [1, 1000]
    assert len(inst["ex1-k8"].planted) == 8


def test_key_encoder_matches_the_package():
    from degswap.core import Digraph, Graph, canonical_key

    rng = random.Random(5)
    for _ in range(20):
        n = rng.randrange(2, 12)
        pairs = {(rng.randrange(n), rng.randrange(n)) for _ in range(3 * n)}
        arcs = sorted((u, v) for u, v in pairs if u != v)
        edges = sorted({(min(u, v), max(u, v)) for u, v in arcs})
        assert checks.key_hex("directed", n, arcs) == canonical_key(Digraph(n, arcs)).hex()
        assert checks.key_hex("undirected", n, edges) == canonical_key(Graph(n, edges)).hex()


# ---------------------------------------------------------------------------
# output checks reject corrupted outputs


@pytest.fixture
def digraph():
    arcs = [(0, 1), (1, 2), (2, 0), (3, 0), (1, 3)]
    return Instance("g", "directed", 4, arcs)


def _graph_json(inst, pairs=None):
    pairs = inst.pairs if pairs is None else pairs
    return {"kind": inst.kind, "n": inst.n, "edges": [list(p) for p in pairs],
            "canonical_key": checks.key_hex(inst.kind, inst.n, pairs)}


def _sample(inst, tau=100):
    cmd = Command("s", "sample", inst.name, "full", tau=tau)
    return cmd, {"mode": "full", "tau": tau, "seed": 1, "moves": 40, "loops": tau - 40,
                 "final": _graph_json(inst)}


def test_sample_check_accepts_a_correct_output(digraph):
    cmd, out = _sample(digraph)
    assert checks.check(out, cmd, digraph) == []


def test_sample_check_rejects_degree_drift(digraph):
    cmd, out = _sample(digraph)
    drifted = [(0, 1), (1, 2), (2, 0), (3, 0), (1, 0)]  # (1,3) became (1,0)
    out["final"] = _graph_json(digraph, drifted)
    assert any("drifted" in p for p in checks.check(out, cmd, digraph))


def test_sample_check_rejects_wrong_step_count(digraph):
    cmd, out = _sample(digraph)
    out["loops"] += 1
    assert any("moves+loops" in p for p in checks.check(out, cmd, digraph))


def test_sample_check_rejects_a_wrong_key(digraph):
    cmd, out = _sample(digraph)
    out["final"]["canonical_key"] = format(int(out["final"]["canonical_key"], 16) ^ 1, "x")
    assert any("canonical_key" in p for p in checks.check(out, cmd, digraph))


def test_sample_check_rejects_parallel_edges(digraph):
    cmd, out = _sample(digraph)
    out["final"]["edges"][-1] = [0, 1]
    assert checks.check(out, cmd, digraph)


def test_recognize_check_rejects_a_missing_cycle_set():
    inst = Instance("ex", "directed", 6, [], planted=[(0, 1, 2), (3, 4, 5)])
    inst.pairs = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] + [
        (u, v) for u in range(3) for v in range(3, 6)
    ]
    cmd = Command("r", "recognize", "ex")
    good = {"is_arc_swap": False, "cycle_sets": [[0, 1, 2], [3, 4, 5]],
            "component_count_log2": 2, "reduced_sequence": "3/0 3/0 3/0 0/3 0/3 0/3"}
    assert checks.check(good, cmd, inst) == []
    missing = dict(good, cycle_sets=[[0, 1, 2]], component_count_log2=1,
                   reduced_sequence="3/0 3/0 3/0 1/4 1/4 1/4")
    assert any("planted" in p for p in checks.check(missing, cmd, inst))
    inconsistent = dict(good, component_count_log2=1)
    assert checks.check(inconsistent, cmd, inst)


def test_stats_check_rejects_frequencies_off_the_run_grid():
    inst = Instance("tri", "directed", 3, [(0, 1), (1, 2), (2, 0)])
    cmd = Command("t", "stats", "tri", "full", tau=10, runs=4)
    k1 = checks.key_hex("directed", 3, [(0, 1), (1, 2), (2, 0)])
    k2 = checks.key_hex("directed", 3, [(1, 0), (2, 1), (0, 2)])
    arcs = {f"{u} {v}": 0.5 for u in range(3) for v in range(3) if u != v}
    good = {"mode": "full", "tau": 10, "runs": 4, "seed": 1, "arc_frequency": arcs,
            "visit_frequency": {k1: 0.5, k2: 0.5}, "motif_counts": {"1": 4}}
    assert checks.check(good, cmd, inst) == []
    assert checks.check(dict(good, visit_frequency={k1: 0.6, k2: 0.4}), cmd, inst)
    assert checks.check(dict(good, motif_counts={"1": 3}), cmd, inst)
    assert checks.check(dict(good, arc_frequency=dict(arcs, **{"0 1": 0.75})), cmd, inst)


def test_malformed_output_is_a_problem_not_a_crash(digraph):
    cmd, _ = _sample(digraph)
    assert checks.check({"final": {}}, cmd, digraph)


# ---------------------------------------------------------------------------
# spans


def _span(name, sid, parent, start, end, pid=1, **extra):
    return {"name": name, "pid": pid, "id": sid, "parent": parent,
            "start": start, "end": end, "extra": extra}


def test_self_time_on_a_synthetic_tree():
    tree = [
        _span("cli.main", 0, None, 0.0, 10.0),
        _span("stats.ensemble_stats", 1, 0, 1.0, 9.0),
        _span("core.canonical_key", 2, 1, 2.0, 3.0),
        _span("stats.count_directed_3cycles", 3, 1, 4.0, 6.5),
        _span("realize.realize_directed", 4, 0, 9.5, 10.0),
        # same ids in a worker process are not children of the main process
        _span("chain.run_chain", 1, None, 1.5, 8.5, pid=2, steps=10, moves=4),
    ]
    assert spans.self_times(tree) == pytest.approx([1.5, 4.5, 1.0, 2.5, 0.5, 7.0])
    totals = run.span_totals(tree)
    assert totals["chain.run_chain"]["steps"] == 10
    assert totals["stats.ensemble_stats"]["self_s"] == pytest.approx(4.5)


def test_covered_merges_overlapping_and_clips():
    assert spans.covered([(0, 2), (1, 3), (5, 6), (9, 12)], 0.5, 10) == pytest.approx(2.5 + 1 + 1)
    assert spans.covered([], 0, 1) == 0


def test_layer_metrics_sum_over_commands_and_split_by_label():
    cmds = [Command("sparse-full", "sample", "x", "full", tau=10),
            Command("sparse-plain", "sample", "x", "plain", tau=30)]
    outcomes = [
        run.Outcome(cmds[0], layers={"chain.run_chain": {"s": 1.0, "self_s": 1.0, "calls": 1, "steps": 10, "moves": 5}}),
        run.Outcome(cmds[1], layers={"chain.run_chain": {"s": 3.0, "self_s": 3.0, "calls": 1, "steps": 30, "moves": 3}}),
    ]
    m = run.layer_metrics(outcomes)
    assert (m["chain.steps"], m["chain.moves"], m["chain.run_chain.calls"]) == (40, 8, 2)
    assert m["chain.accept_ratio"] == pytest.approx(0.2)
    assert m["chain.sparse-plain.step_us"] == pytest.approx(1e5)
    assert m["chain.dense-full.steps"] == 0


def test_recorder_collects_spans_from_forked_children(tmp_path):
    rec = spans.Recorder(str(tmp_path))
    work = rec.wrap("chain.run_chain", lambda g, cfg: type("R", (), {"moves": 2})())
    cfg = type("C", (), {"tau": 5})()

    def fan_out():
        # like a forked pool worker: the child never returns through the
        # open parent span, and writes each top-level span at once
        child = os.fork()
        if child == 0:
            work(None, cfg)
            os._exit(0)
        os.waitpid(child, 0)
        return child

    pid = rec.wrap("stats.ensemble_stats", fan_out)()
    work(None, cfg)
    rec.flush()
    got = spans.load(str(tmp_path))
    by_pid = {}
    for s in got:
        by_pid.setdefault(s["pid"], []).append(s["name"])
    assert by_pid[pid] == ["chain.run_chain"]
    assert sorted(by_pid[os.getpid()]) == ["chain.run_chain", "stats.ensemble_stats"]
    assert all(s["extra"] == {"steps": 5, "moves": 2} for s in got if s["name"] == "chain.run_chain")


# ---------------------------------------------------------------------------
# refusals


def test_refuses_more_workers_than_cpus(monkeypatch):
    monkeypatch.setattr(run, "machine", lambda: {"nproc": 1})
    with pytest.raises(run.BenchError, match="needs 2 CPUs"):
        run.benchmark("ensemble", 1, 1.0, False)


def test_refuses_to_run_without_the_program(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", str(tmp_path))
    with pytest.raises(run.BenchError, match="no program"):
        run.benchmark("cold-start", 1, 1.0, False)
