import pytest

from degswap.chain import ChainConfig, derive_seed, run_chain
from degswap.core import DegreeSequence, DiDegreeSequence, Digraph
from degswap.errors import InvalidInputError
from degswap.realize import realize_directed, realize_undirected
from degswap.stats import count_directed_3cycles, ensemble_stats, run_ensemble
from .conftest import mobile_blocked_instance


def test_count_directed_3cycles():
    assert count_directed_3cycles(Digraph(3, [(0, 1), (1, 2), (2, 0)])) == 1
    assert count_directed_3cycles(Digraph(3, [(0, 1), (1, 2)])) == 0
    bid = Digraph(3, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)])
    assert count_directed_3cycles(bid) == 0
    g = mobile_blocked_instance()
    assert count_directed_3cycles(g) == 1


def test_unique_realization_frequencies():
    s = DiDegreeSequence(((2, 2),) * 3)
    report = ensemble_stats(
        realize_directed(s), ChainConfig(tau=200, mode="full", seed=5), runs=40
    )
    assert all(f == 1.0 for f in report.arc_frequency.values())
    assert len(report.arc_frequency) == 6
    assert report.motif_counts == {0: 40}
    assert len(report.final_keys) == 1


def test_plain_blocked_motif_constant():
    s = DiDegreeSequence([(4, 1)] * 3 + [(1, 4)] * 3)
    report = ensemble_stats(
        realize_directed(s), ChainConfig(tau=300, mode="plain", seed=5), runs=30
    )
    assert report.motif_counts == {2: 30}
    # frozen chain: every arc frequency is 0 or 1
    assert all(f in (0.0, 1.0) for f in report.arc_frequency.values())
    assert report.corrected_frequency is not None
    # cycle-set arcs corrected to 1/2
    for i in range(2):
        base = 3 * i
        for arc in ((base, base + 1), (base + 1, base + 2), (base + 2, base)):
            assert report.corrected_frequency[arc] == 0.5
            assert report.corrected_frequency[(arc[1], arc[0])] == 0.5


def test_corrected_absent_for_arc_swap_sequences():
    s = DiDegreeSequence(((1, 1), (1, 1), (1, 0), (0, 1)))
    report = ensemble_stats(
        realize_directed(s), ChainConfig(tau=200, mode="plain", seed=2), runs=20
    )
    assert report.corrected_frequency is None


def test_undirected_stats():
    s = DegreeSequence((1, 1, 1, 1))
    report = ensemble_stats(
        realize_undirected(s), ChainConfig(tau=500, mode="undirected", seed=9), runs=60
    )
    assert report.motif_counts is None
    assert len(report.final_keys) == 3  # all three matchings show up
    assert abs(sum(report.arc_frequency.values()) - 2.0) < 1e-9


def test_mode_mismatch():
    with pytest.raises(InvalidInputError):
        ensemble_stats(
            realize_undirected(DegreeSequence((1, 1))),
            ChainConfig(tau=1, mode="plain", seed=1),
            runs=1,
        )
    with pytest.raises(InvalidInputError):
        ensemble_stats(
            realize_directed(DiDegreeSequence(((1, 1),) * 3)),
            ChainConfig(tau=1, mode="undirected", seed=1),
            runs=1,
        )


def test_workers_agree_with_serial():
    # 5 and 24 runs split into two blocks, one per pool process; 1 run
    # takes the serial path either way
    cases = [
        (
            realize_directed(DiDegreeSequence(((1, 1),) * 3)),
            ChainConfig(tau=300, mode="full", seed=17),
        ),
        (
            realize_directed(mobile_blocked_instance().degree_sequence()),
            ChainConfig(tau=300, mode="plain", seed=17),
        ),
        (
            realize_undirected(DegreeSequence((1, 1, 1, 1, 2, 2))),
            ChainConfig(tau=300, mode="undirected", seed=17),
        ),
    ]
    for g0, cfg in cases:
        for runs in (1, 5, 24):
            serial = ensemble_stats(g0, cfg, runs=runs, workers=1)
            parallel = ensemble_stats(g0, cfg, runs=runs, workers=2)
            assert serial.arc_frequency == parallel.arc_frequency
            assert serial.final_keys == parallel.final_keys
            assert serial.motif_counts == parallel.motif_counts
            assert serial.corrected_frequency == parallel.corrected_frequency
            assert (serial.motif_counts is None) == (cfg.mode == "undirected")
            assert (serial.corrected_frequency is None) == (cfg.mode != "plain")


def test_one_run_chain_call_per_run_in_index_order(monkeypatch):
    # the benchmark's trace counts chains by wrapping ``degswap.stats.run_chain``
    # and reads tau from its second positional argument
    calls = []

    def counting(*args, **kwargs):
        assert len(args) == 2 and not kwargs
        calls.append(args[1])
        return run_chain(*args)

    monkeypatch.setattr("degswap.stats.run_chain", counting)
    s = DiDegreeSequence(((1, 1),) * 4)
    cfg = ChainConfig(tau=40, mode="full", seed=23)
    g0 = realize_directed(s)
    for call in (
        lambda: ensemble_stats(g0, cfg, runs=7, workers=1),
        lambda: run_ensemble(g0, cfg, runs=7, workers=1),
    ):
        calls.clear()
        call()
        assert calls == [ChainConfig(40, "full", derive_seed(23, i)) for i in range(7)]
