import json

import pytest

from degswap.cli import _dumps, main


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_realize_edgelist(capsys):
    code, out, _ = run_cli(
        capsys, "realize", "--degrees", "2 2 2", "--format", "edgelist"
    )
    assert code == 0
    assert out.splitlines()[0] == "undirected n=3"
    assert set(out.splitlines()[1:]) == {"0 1", "0 2", "1 2"}


def test_realize_json_default(capsys):
    code, out, _ = run_cli(capsys, "realize", "--degrees", "1/1 1/1 1/1")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "directed" and payload["n"] == 3
    assert len(payload["edges"]) == 3


# every subcommand that prints JSON, on graphs with and without edges
ORACLE_COMMANDS = {
    "realize": ["realize", "--degrees", "1/1 1/1 1/1"],
    "realize-no-edges": ["realize", "--degrees", "0 0 0"],
    "sample": ["sample", "--degrees", "2 2 2 1 1", "--tau", "50"],
    "sample-runs": ["sample", "--degrees", "1/1 1/1 1/1 1/1", "--tau", "50", "--runs", "5"],
    "sample-runs-no-edges": ["sample", "--degrees", "0/0 0/0", "--tau", "5", "--runs", "3"],
    "recognize": ["recognize", "--degrees", "1/1 1/1 1/1"],
    "recognize-arc-swap": ["recognize", "--degrees", "2/2 2/2 2/2"],
    "enumerate": ["enumerate", "--degrees", "1/1 1/1 1/1 1/1", "--kind", "phibar"],
    "generate": ["generate", "--family", "example1", "--blocks", "2", "--format", "json"],
    "stats-plain-example1": [
        "stats", "--degrees", "4/1 4/1 4/1 1/4 1/4 1/4", "--mode", "plain",
        "--tau", "50", "--runs", "5",
    ],
}


@pytest.mark.parametrize("argv", ORACLE_COMMANDS.values(), ids=ORACLE_COMMANDS.keys())
def test_stdout_is_json_dumps_indent_2(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2) + "\n"
    if argv[0] == "stats":
        assert payload["corrected_frequency"]


def test_dumps_matches_json_indent_2():
    payloads = [
        {},
        [],
        "plain",
        7,
        None,
        {"nested": {"empty dict": {}, "empty list": [], "deeper": {"x": [1, [2, []], {}]}}},
        {"text": 'naïve ☃ "quoted"\n\t', "ключ": "é", "": ""},
        {"floats": [0.1, -2.5e-12, 1e300, 3.0, float("inf"), float("nan")], "f": -0.0},
        {"none": None, "yes": True, "no": False, "mixed": [None, True, False, 0, "s"]},
        {"pairs": [(0, 1), (2, 3)], "lists": [[4, 5], [6, 7]], "triples": [[1, 2, 3]]},
        {"ragged": [[1], [2, 3]], "bools": [[True, False]], "floats": [[1.5, 2]]},
        [[0, 1]],
        [{"a": [[1, 2]]}, [], {}],
        {"int keys": {1: 0.5, 2: [1]}, "flat int keys": {3: None, 4.5: True}},
    ]
    for payload in payloads:
        assert _dumps(payload) == json.dumps(payload, indent=2)


def test_realize_invalid_exit_2(capsys):
    code, _, err = run_cli(capsys, "realize", "--degrees", "3 1")
    assert code == 2
    assert "error" in json.loads(err)


def test_sample_single_run(capsys):
    code, out, _ = run_cli(
        capsys, "sample", "--degrees", "1 1 1 1", "--tau", "100", "--seed", "7"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "undirected"
    assert payload["moves"] + payload["loops"] == 100
    assert payload["final"]["n"] == 4


def test_sample_runs_visit_frequencies(capsys):
    code, out, _ = run_cli(
        capsys,
        "sample",
        "--degrees",
        "1 1 1 1",
        "--tau",
        "500",
        "--runs",
        "30",
        "--seed",
        "3",
    )
    payload = json.loads(out)
    freqs = payload["visit_frequency"]
    assert len(freqs) == 3
    assert abs(sum(freqs.values()) - 1.0) < 1e-9


def test_sample_from_edgelist(tmp_path, capsys):
    path = tmp_path / "g.edges"
    path.write_text("directed n=4\n0 1\n2 3\n")
    code, out, _ = run_cli(
        capsys,
        "sample",
        "--edgelist",
        str(path),
        "--mode",
        "plain",
        "--tau",
        "50",
        "--emit",
        "edgelist",
    )
    assert code == 0
    assert out.splitlines()[0] == "directed n=4"


def test_sample_deterministic(capsys):
    args = ["sample", "--degrees", "1/1 1/1 1/1", "--mode", "full", "--tau", "99"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2  # fixed default seed reproduces


def test_recognize(capsys):
    code, out, _ = run_cli(capsys, "recognize", "--degrees", "1/1 1/1 1/1")
    payload = json.loads(out)
    assert payload == {
        "is_arc_swap": False,
        "cycle_sets": [[0, 1, 2]],
        "component_count_log2": 1,
        "reduced_sequence": "0/0 0/0 0/0",
    }
    code, out, _ = run_cli(capsys, "recognize", "--degrees", "2/2 2/2 2/2")
    payload = json.loads(out)
    assert payload["is_arc_swap"] is True
    assert payload["component_count_log2"] == 0


def test_recognize_rejects_undirected(capsys):
    code, _, err = run_cli(capsys, "recognize", "--degrees", "1 1")
    assert code == 2


def test_enumerate_json(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--degrees", "1 1 1 1", "--kind", "psi"
    )
    payload = json.loads(out)
    assert payload["node_count"] == 3
    assert payload["degree"] == 3
    assert payload["components"] == [3]
    assert payload["bounds_ok"] is True


def test_enumerate_dot(capsys, monkeypatch):
    # the dot text is all --format dot prints, so the checks are not run
    from degswap import statespace

    def unused(*args, **kwargs):
        raise AssertionError("a check ran under --format dot")

    monkeypatch.setattr(statespace, "check_properties", unused)
    monkeypatch.setattr(statespace, "check_diameter_bounds", unused)
    monkeypatch.setattr(statespace, "_reach", unused)
    code, out, _ = run_cli(
        capsys, "enumerate", "--degrees", "1/1 1/1 1/1", "--kind", "phi", "--format", "dot"
    )
    assert code == 0
    assert out.startswith('digraph "phi"')


@pytest.mark.parametrize(
    "degrees, kind",
    [
        ("2 2 2 2 2", "psi"),
        ("1/1 1/1 1/1 1/1", "phi"),
        ("2/2 2/2 2/2 2/2", "phibar"),
        ("1/1 1/1 1/1", "phibar"),  # two components, bounds not applicable
    ],
)
def test_enumerate_iterates_reach_levels_once(capsys, monkeypatch, degrees, kind):
    # both checks read one iteration of the reach levels, and report what the
    # public checks report
    from degswap import arcswap, statespace
    from degswap.core import parse_degree_sequence

    reach, calls = statespace._reach, []

    def counted(sg):
        calls.append(sg)
        return reach(sg)

    monkeypatch.setattr(statespace, "_reach", counted)
    code, out, _ = run_cli(capsys, "enumerate", "--degrees", degrees, "--kind", kind)
    assert code == 0 and len(calls) == 1
    s = parse_degree_sequence(degrees)
    sg = statespace.build_state_graph(s, kind)
    props = statespace.check_properties(sg)
    arc_swap = arcswap.recognize(s).is_arc_swap if kind == "phibar" else None
    bounds = statespace.check_diameter_bounds(sg, arc_swap=arc_swap)
    payload = json.loads(out)
    assert (payload["components"], payload["diameter"]) == (
        props.component_sizes, max(props.diameters)
    )
    assert (payload["non_bipartite"], payload["degree"]) == (props.non_bipartite, props.degree)
    assert (payload["bounds_ok"], payload["bounds_applicable"]) == (bounds.ok, bounds.applicable)


def test_enumerate_resource_exit_3(capsys):
    code, _, err = run_cli(
        capsys, "enumerate", "--degrees", " ".join(["1/1"] * 7), "--kind", "phi"
    )
    assert code == 3


def test_enumerate_state_budget_exit_3(capsys):
    # 3 x 8 is inside the default n bound but has 19 355 states, over the
    # state budget; the enumeration stops as it passes the budget
    import time

    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "enumerate", "--degrees", "3 3 3 3 3 3 3 3", "--kind", "psi"
    )
    elapsed = time.perf_counter() - start
    assert (code, out) == (3, "") and "state budget" in json.loads(err)["error"]
    assert elapsed < 5.0, f"enumerate took {elapsed:.1f} s to exit 3"


@pytest.mark.parametrize("fmt", ["json", "dot"])
@pytest.mark.parametrize(
    "degrees, kind",
    [("3 3 1 1", "psi"), ("1/1", "phi"), ("1/1", "phibar"), (" ".join(["1"] * 13), "psi")],
)
def test_enumerate_unrealizable_exit_2(capsys, degrees, kind, fmt):
    # no state graph is printed, and the message is realize's, also above
    # the enumeration bound
    _, _, realize_err = run_cli(capsys, "realize", "--degrees", degrees)
    code, out, err = run_cli(
        capsys, "enumerate", "--degrees", degrees, "--kind", kind, "--format", fmt
    )
    assert (code, out, err) == (2, "", realize_err)


def test_generate_and_recognize_roundtrip(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "generate",
        "--family",
        "example1",
        "--blocks",
        "2",
        "--format",
        "edgelist",
    )
    assert code == 0
    path = tmp_path / "blocked.edges"
    path.write_text(out)
    code, out, _ = run_cli(capsys, "recognize", "--edgelist", str(path))
    payload = json.loads(out)
    assert payload["component_count_log2"] == 2


def test_generate_json_degrees(capsys):
    code, out, _ = run_cli(capsys, "generate", "--family", "example1", "--blocks", "2")
    payload = json.loads(out)
    assert payload["degree_sequence"] == "4/1 4/1 4/1 1/4 1/4 1/4"


def test_stats_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "stats",
        "--degrees",
        "1/1 1/1 1/1",
        "--mode",
        "plain",
        "--tau",
        "50",
        "--runs",
        "10",
    )
    payload = json.loads(out)
    assert payload["motif_counts"] == {"1": 10}
    assert payload["corrected_frequency"]["0 1"] == 0.5
    assert all(f in (0.0, 1.0) for f in payload["arc_frequency"].values())


def test_degrees_file_and_stdin(tmp_path, capsys, monkeypatch):
    path = tmp_path / "seq.txt"
    path.write_text("1/1 1/1 1/1\n")
    code, out, _ = run_cli(capsys, "recognize", "--degrees-file", str(path))
    assert code == 0 and json.loads(out)["component_count_log2"] == 1

    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("2 2 2\n"))
    code, out, _ = run_cli(
        capsys, "realize", "--degrees-file", "-", "--format", "edgelist"
    )
    assert code == 0 and out.splitlines()[0] == "undirected n=3"


def test_non_utf8_input_exits_2(tmp_path, capsys, monkeypatch):
    import io

    path = tmp_path / "bad.edges"
    path.write_bytes(b"\xff\xfe")
    for flag in ("--edgelist", "--degrees-file"):
        code, out, err = run_cli(capsys, "sample", flag, str(path))
        assert code == 2 and out == ""
        assert "not UTF-8" in json.loads(err)["error"]

        stdin = io.TextIOWrapper(io.BytesIO(b"directed n=3\n0 1\xff\n"), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run_cli(capsys, "recognize", flag, "-")
        assert code == 2 and out == ""
        assert json.loads(err)["error"].startswith("stdin is not UTF-8")


def test_huge_header_vertex_count(tmp_path, capsys):
    """Above sys.maxsize is invalid input; up to it the degree lists cannot be held.

    Each count fails before anything is allocated: a list that long is
    refused at once.
    """
    import sys

    path = tmp_path / "huge.edges"
    for header, want in (
        ("directed n=10000000000000000000", 2),
        (f"undirected n={sys.maxsize + 1}", 2),
        (f"undirected n={sys.maxsize}", 3),
        ("undirected n=4611686018427387904", 3),
        ("directed n=4611686018427387904", 3),
    ):
        path.write_text(header + "\n0 1\n")
        code, out, err = run_cli(capsys, "sample", "--edgelist", str(path))
        assert (code, out) == (want, ""), header
        assert "error" in json.loads(err)


def test_enumerate_max_n_override(capsys):
    code, out, _ = run_cli(
        capsys,
        "enumerate",
        "--degrees",
        " ".join(["0/0"] * 7),
        "--kind",
        "phi",
        "--max-n",
        "7",
    )
    assert code == 0 and json.loads(out)["node_count"] == 1


def test_enumerate_max_n_below_one_exit_2(capsys):
    for bound in ("0", "-1"):
        code, out, err = run_cli(
            capsys, "enumerate", "--degrees", "1 1", "--kind", "psi", "--max-n", bound
        )
        assert code == 2 and out == ""
        assert "at least 1" in json.loads(err)["error"]


def test_sample_workers_match_serial(capsys):
    # stdout does not depend on how the runs are split over pool processes
    for sub, degrees, mode in (
        ("sample", "1/1 1/1 1/1 1/1", "plain"),
        ("stats", "1/1 1/1 1/1 1/1", "full"),
        ("stats", "3/3 3/3 3/3 5/5 5/5 1/1 1/1", "plain"),
        ("stats", "1 1 1 1 2 2", "undirected"),
    ):
        for runs in ("3", "10", "12"):
            args = (sub, "--degrees", degrees, "--mode", mode, "--tau", "200", "--runs", runs)
            code, serial, _ = run_cli(capsys, *args, "--workers", "1")
            assert code == 0
            _, parallel, _ = run_cli(capsys, *args, "--workers", "2")
            assert serial == parallel


def test_stats_starts_from_the_given_edgelist(tmp_path, capsys):
    # 0->2->1->0 is a frozen state of the swap-only chain; a re-realized
    # start would be the other orientation, 0->1->2->0
    path = tmp_path / "cycle.txt"
    path.write_text("directed n=3\n0 2\n2 1\n1 0\n")
    code, out, _ = run_cli(
        capsys, "stats", "--edgelist", str(path), "--mode", "plain", "--runs", "5"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["arc_frequency"] == {"0 2": 1.0, "1 0": 1.0, "2 1": 1.0}
    assert payload["motif_counts"] == {"1": 5}
    assert set(payload["corrected_frequency"].values()) == {0.5}


def test_entropy_seed_runs(capsys):
    code, out, _ = run_cli(
        capsys,
        "sample",
        "--degrees",
        "1 1 1 1",
        "--tau",
        "10",
        "--seed",
        "entropy",
    )
    assert code == 0
    assert json.loads(out)["moves"] >= 0


def test_negative_seed_exits_2(capsys):
    # random.Random(-5) is random.Random(5): a negative seed would silently
    # repeat the walk of its absolute value
    for sub in ("sample", "stats"):
        code, out, err = run_cli(
            capsys, sub, "--degrees", "1 1 1 1", "--tau", "10", "--seed", "-5"
        )
        assert code == 2 and out == ""
        assert "seed" in json.loads(err)["error"]
    code, _, _ = run_cli(capsys, "sample", "--degrees", "1 1 1 1", "--seed", "5")
    assert code == 0


def test_sample_rejects_nonpositive_runs(capsys):
    for runs in ("0", "-3"):
        code, out, err = run_cli(
            capsys, "sample", "--degrees", "1 1 1 1", "--runs", runs
        )
        assert code == 2 and out == ""
        assert "--runs" in json.loads(err)["error"]


def test_stats_checks_runs_and_workers_before_the_input(capsys):
    # "3 1" is not graphical: a flag checked after the input would fail
    # with the realize error instead of its own
    for flag, message in (("--runs", "--runs must be >= 1"), ("--workers", "--workers must be >= 1")):
        code, out, err = run_cli(capsys, "stats", "--degrees", "3 1", flag, "0")
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": message}


def test_sample_bad_tau_fails_before_the_pool(capsys, monkeypatch):
    import os

    def no_fork():
        raise AssertionError("block process forked")

    monkeypatch.setattr(os, "fork", no_fork)
    code, out, err = run_cli(
        capsys, "sample", "--degrees", "1 1 1 1", "--tau", "-1",
        "--runs", "3", "--workers", "2",
    )
    assert code == 2 and out == ""
    assert "tau" in json.loads(err)["error"]


def test_stats_mode_mismatch_fails_before_the_pool(capsys, monkeypatch):
    # the ensemble plans its runs before it forks, and the plan's mode check
    # prints the same message as sample's
    import os

    def no_fork():
        raise AssertionError("block process forked")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code, out, err = run_cli(
        capsys, "stats", "--degrees", "1/1 1/1 1/1", "--mode", "undirected",
        "--workers", "2",
    )
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "undirected mode needs an undirected graph"}


def test_sample_rejects_edgelist_with_many_runs(capsys):
    code, out, err = run_cli(
        capsys, "sample", "--degrees", "1 1 1 1", "--runs", "3", "--emit", "edgelist"
    )
    assert code == 2 and out == ""
    assert "edgelist" in json.loads(err)["error"]
    code, out, _ = run_cli(
        capsys, "sample", "--degrees", "1 1 1 1", "--runs", "1", "--emit", "edgelist"
    )
    assert code == 0 and out.splitlines()[0] == "undirected n=4"


def test_python_dash_m_runs_the_cli(capsys):
    # `PYTHONPATH=src python -m degswap ...` from a checkout: the same output
    # and exit code as calling main() in process
    import os
    import subprocess
    import sys

    import degswap

    src = os.path.dirname(os.path.dirname(os.path.abspath(degswap.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    args = ["sample", "--degrees", "1 1 1 1", "--tau", "50", "--seed", "7"]
    done = subprocess.run(
        [sys.executable, "-m", "degswap", *args],
        capture_output=True, text=True, env=env, timeout=60,
    )
    code, out, _ = run_cli(capsys, *args)
    assert code == done.returncode == 0 and done.stdout == out
    bad = subprocess.run(
        [sys.executable, "-m", "degswap", "realize", "--degrees", "3 1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert bad.returncode == 2 and "error" in json.loads(bad.stderr)


def test_sample_and_stats_reject_nonpositive_workers(capsys):
    for sub, extra in (("sample", ("--runs", "3")), ("stats", ("--runs", "3"))):
        for workers in ("0", "-2"):
            code, out, err = run_cli(
                capsys, sub, "--degrees", "1/1 1/1 1/1", "--tau", "10",
                *extra, "--workers", workers,
            )
            assert code == 2 and out == ""
            assert "workers" in json.loads(err)["error"]


def test_pool_size_is_capped_by_jobs_and_cpus(capsys, monkeypatch):
    # every block after the first forks one process, all before any is
    # reaped, so --workers 5000 must not set the count: at most
    # min(runs, CPUs) - 1 children start
    import os

    real_fork = os.fork
    forks = []

    def counting_fork():
        pid = real_fork()
        if pid:
            forks[-1] += 1
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)

    def run_counting_forks(sub, *argv):
        forks.append(0)
        code, out, _ = run_cli(capsys, sub, *argv)
        assert code == 0
        return out

    args = ("--degrees", "1/1 1/1 1/1", "--mode", "full", "--tau", "20")
    serial = run_counting_forks("sample", *args, "--runs", "2", "--workers", "1")
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    pooled = run_counting_forks("sample", *args, "--runs", "2", "--workers", "5000")
    assert pooled == serial
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    for sub, runs in (("sample", "10"), ("stats", "4")):
        run_counting_forks(sub, *args, "--runs", runs, "--workers", "5000")
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    run_counting_forks("stats", *args, "--runs", "4", "--workers", "5000")
    assert forks == [0, 1, 2, 2, 0]


def test_failing_block_fails_the_command_and_leaves_no_process(capsys, monkeypatch):
    # a block that raises, in the parent's block or in a forked one, fails
    # the command with its own exit code, and every child is reaped
    import os

    from degswap import stats
    from degswap.chain import derive_seed
    from degswap.errors import ResourceLimitError

    real_run_chain = stats.run_chain
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for bad_run in (5, 0):  # in the forked block, in the parent's block
        bad_seed = derive_seed(5, bad_run)

        def failing_run_chain(plan, cfg):
            if cfg.seed == bad_seed:
                raise ResourceLimitError(f"run {bad_run} over its budget")
            return real_run_chain(plan, cfg)

        monkeypatch.setattr(stats, "run_chain", failing_run_chain)
        code, out, err = run_cli(
            capsys, "sample", "--degrees", "1/1 1/1 1/1 1/1", "--tau", "20",
            "--seed", "5", "--runs", "6", "--workers", "2",
        )
        assert code == 3 and out == ""
        assert json.loads(err) == {"error": f"run {bad_run} over its budget"}
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


# a forked block that returned into the caller, or flushed the stdout buffer
# it inherited, would print the marker or the JSON document twice; the probe
# runs with stdout buffered, so the marker is still in the buffer at the fork
ONE_DOCUMENT_PROBE = """
import os, sys
os.cpu_count = lambda: 2
import degswap.cli
sys.stdout.write("marker\\n")
sys.exit(degswap.cli.main(sys.argv[1:]))
"""


def test_stats_with_forked_blocks_prints_one_document():
    import os
    import subprocess
    import sys

    import degswap

    src = os.path.dirname(os.path.dirname(os.path.abspath(degswap.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    args = ["stats", "--degrees", "1/1 1/1 1/1 1/1", "--tau", "50", "--runs", "6"]
    outs = []
    for workers in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", ONE_DOCUMENT_PROBE, *args, "--workers", workers],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        marker, _, document = done.stdout.partition("\n")
        assert marker == "marker"
        assert json.loads(document)["runs"] == 6
        outs.append(done.stdout)
    assert outs[0] == outs[1]


# module -> a name its code defines
DEFERRED = {
    "degswap.realize": "realize_directed",
    "degswap.chain": "run_chain",
    "degswap.arcswap": "recognize",
    "degswap.stats": "ensemble_stats",
    "degswap.statespace": "build_state_graph",
    "degswap.generators": "generate_blocked",
}

# prints the measured layers missing from sys.modules after the import, then
# what has loaded after it and after each command given as JSON in argv[1]
LOADED_PROBE = """
import contextlib, io, json, sys
import degswap.cli

def loaded():
    # object.__getattribute__ reads a registered module's namespace without
    # triggering its load
    names = [name for name, attr in DEFERRED.items() if name in sys.modules
             and attr in object.__getattribute__(sys.modules[name], "__dict__")]
    names += [name for name in ("concurrent.futures.process", "multiprocessing", "secrets",
                                "dataclasses") if name in sys.modules]
    return names

layers = ("core", "realize", "chain", "arcswap", "stats")
print([name for name in layers if "degswap." + name not in sys.modules])
print(loaded())
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert degswap.cli.main(argv) == 0, argv
    print(loaded())
"""


def test_import_loads_only_what_every_subcommand_needs(tmp_path):
    # the measured layers are registered in sys.modules on import (a tracer
    # looks them up there) but their code runs on first use; the rest is not
    # imported at all until a subcommand asks for it.  No subcommand below
    # loads dataclasses, and only enumerate loads statespace, which holds the
    # state-graph oracle and the lemma code.
    import os
    import subprocess
    import sys

    import degswap

    src = os.path.dirname(os.path.dirname(os.path.abspath(degswap.__file__)))
    env = dict(os.environ, PYTHONPATH=src)

    def probe(*commands):
        done = subprocess.run(
            [sys.executable, "-c", f"DEFERRED = {DEFERRED!r}\n" + LOADED_PROBE,
             json.dumps(commands)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout.splitlines()

    realize, chain = "'degswap.realize'", "'degswap.chain'"
    arcswap, stats = "'degswap.arcswap'", "'degswap.stats'"
    statespace, generators = "'degswap.statespace'", "'degswap.generators'"
    assert probe(
        ["sample", "--degrees", "1 1 1 1", "--tau", "5"],
        ["recognize", "--degrees", "1/1 1/1 1/1"],
    ) == ["[]", "[]", f"[{realize}, {chain}]", f"[{realize}, {chain}, {arcswap}]"]
    # realize and recognize never run the chain's code
    assert probe(
        ["realize", "--degrees", "1/1 1/1 1/1"],
        ["recognize", "--degrees", "1/1 1/1 1/1"],
    ) == ["[]", "[]", f"[{realize}]", f"[{realize}, {arcswap}]"]
    # sample --edgelist never runs the realizers' code
    path = tmp_path / "g.edges"
    path.write_text("directed n=4\n0 1\n2 3\n")
    assert probe(
        ["sample", "--edgelist", str(path), "--mode", "plain", "--tau", "5"],
        ["stats", "--degrees", "1/1 1/1 1/1", "--tau", "5", "--runs", "3", "--workers", "1"],
        ["stats", "--degrees", "1/1 1/1 1/1", "--tau", "5", "--runs", "3", "--workers", "2"],
    ) == [
        "[]",
        "[]",
        f"[{chain}]",
        f"[{realize}, {chain}, {arcswap}, {stats}]",
        f"[{realize}, {chain}, {arcswap}, {stats}]",
    ]
    # enumerate and generate load no dataclasses either
    assert probe(
        ["enumerate", "--degrees", "1/1 1/1 1/1", "--kind", "phibar"],
        ["generate", "--blocks", "2"],
    ) == [
        "[]",
        "[]",
        f"[{realize}, {chain}, {arcswap}, {statespace}]",
        f"[{realize}, {chain}, {arcswap}, {statespace}, {generators}]",
    ]


def test_package_names_resolve_on_first_use():
    import importlib

    import degswap

    for name in degswap.__all__:
        home = importlib.import_module(f"degswap.{degswap._EXPORTS[name]}")
        assert getattr(degswap, name) is getattr(home, name)
    assert set(degswap.__all__) <= set(dir(degswap))
    from degswap import arcswap, statespace

    assert arcswap.recognize is degswap.recognize
    assert statespace.KIND_PHI == "phi" and degswap.statespace is statespace


def test_submodule_table_matches_package_files():
    # a module added to or deleted from the package must show in the table
    import os

    import degswap

    here = os.path.dirname(degswap.__file__)
    files = {f[:-3] for f in os.listdir(here) if f.endswith(".py")}
    assert degswap._SUBMODULES == files - {"__init__", "__main__"}


def test_stats_and_sample_runs_share_one_job(capsys):
    # both commands fan out the same per-run job, so equal degrees, mode,
    # tau, seed and run count give equal visit frequencies
    for degrees, mode in (("1/1 1/1 1/1 1/1", "full"), ("1 1 1 1 2 2", "undirected")):
        args = ("--degrees", degrees, "--mode", mode, "--tau", "300", "--seed", "5")
        code, stats_out, _ = run_cli(capsys, "stats", *args, "--runs", "40")
        assert code == 0
        code, sample_out, _ = run_cli(capsys, "sample", *args, "--runs", "40")
        assert code == 0
        visits = json.loads(stats_out)["visit_frequency"]
        assert len(visits) > 1
        assert json.loads(sample_out)["visit_frequency"] == visits
