"""Acceptance criteria, one test per criterion.

Each test times itself against the criterion's runtime budget and registers
a PASS/FAIL line that the terminal summary prints at the end of the run.
"""

import os
import time

import pytest

from degswap import arcswap
from degswap.chain import ChainConfig, iter_nonadjacent_pairs, run_chain
from degswap.core import DegreeSequence, DiDegreeSequence
from degswap.generators import (
    FAMILY_CLIQUE_PARTITION,
    FAMILY_ONE_DIRECTION,
    BlockedInstanceSpec,
    generate_blocked,
)
from degswap.realize import is_digraphical, realize_directed
from degswap.statespace import (
    build_state_graph,
    check_diameter_bounds,
    check_properties,
    empirical_transition_check,
    enumerate_realization_keys,
)
from degswap.stats import ensemble_stats
from .conftest import (
    all_digraphical_sequences,
    all_graphical_sequences,
    chi2_sf,
    mobile_blocked_instance,
    oracle_cycle_sets,
    record_acceptance,
)

ACCEPT_SEED = 20260810

CURATED_DIRECTED = [
    ((1, 1),) * 5,
    ((2, 2),) * 5,
    tuple([(4, 1)] * 3 + [(1, 4)] * 3),  # two stacked blocked triangles
    ((2, 2), (2, 1), (1, 2), (1, 1), (0, 0)),
    ((1, 1), (1, 1), (1, 1), (1, 0), (0, 1)),
    ((3, 1), (3, 1), (3, 1), (1, 4), (1, 4)),  # one-direction family, s=2
    ((1, 1),) * 6,
]

CURATED_UNDIRECTED = [
    (2, 2, 2, 1, 1),
    (1, 1, 1, 1, 1, 1),
    (2, 2, 2, 2, 2, 2),
    (3, 2, 2, 2, 1),
    (2, 2, 1, 1, 1, 1),
]


# ---------------------------------------------------------------------------
# shared expensive computations


_WORKERS = min(4, os.cpu_count() or 1)


@pytest.fixture(scope="session")
def full_mode_ensemble():
    """3000 independent swap+reorient chains on ((1,1)x3) at tau=10^4."""
    s = DiDegreeSequence(((1, 1),) * 3)
    t0 = time.perf_counter()
    report = ensemble_stats(
        s,
        ChainConfig(tau=10_000, mode="full", seed=ACCEPT_SEED),
        runs=3000,
        workers=_WORKERS,
    )
    return report, time.perf_counter() - t0


@pytest.fixture(scope="session")
def structural_sweep():
    """Property and bound reports for every corpus sequence, by kind."""
    t0 = time.perf_counter()
    entries = []
    directed = [
        s for n in range(1, 5) for s, _ in all_digraphical_sequences(n, 2)
    ]
    directed += [DiDegreeSequence(p) for p in CURATED_DIRECTED]
    for s in directed:
        rep = arcswap.recognize(s)
        phi = build_state_graph(s, "phi")
        phibar = build_state_graph(s, "phibar")
        entries.append(
            {
                "sequence": s,
                "recognize": rep,
                "phi": check_properties(phi),
                "phi_bounds": check_diameter_bounds(phi),
                "phibar": check_properties(phibar),
                "phibar_bounds": check_diameter_bounds(
                    phibar, arc_swap=rep.is_arc_swap
                ),
            }
        )
    undirected = [
        s for n in range(1, 5) for s, _ in all_graphical_sequences(n, 3)
    ]
    undirected += [DegreeSequence(d) for d in CURATED_UNDIRECTED]
    psi_entries = []
    for s in undirected:
        psi = build_state_graph(s, "psi")
        psi_entries.append(
            {
                "sequence": s,
                "psi": check_properties(psi),
                "psi_bounds": check_diameter_bounds(psi),
                "expected_degree": 2 * psi.universe.n_pairs + 1,
            }
        )
    return entries, psi_entries, time.perf_counter() - t0


@pytest.fixture(scope="session")
def recognition_sweep():
    """Detector vs oracle over every digraphical sequence with n<=5, deg<=3.

    Also collects the non-arc-swap sequences for the reduction criterion.
    """
    t0 = time.perf_counter()
    mismatches = []
    non_arc_swap = []
    checked = 0
    for n in range(1, 6):
        for s, witness in all_digraphical_sequences(n, 3):
            checked += 1
            got = [
                cs.vertices for cs in arcswap.detect_induced_cycle_sets(witness)
            ]
            keys = list(enumerate_realization_keys(s))
            want = oracle_cycle_sets(s, keys)
            if got != want:
                mismatches.append((s.pairs, got, want))
            if want:
                non_arc_swap.append(s)
    return checked, mismatches, non_arc_swap, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_blocked_instance_stall():
    t0 = time.perf_counter()
    ok = False
    try:
        for k in (1, 2):
            g = generate_blocked(BlockedInstanceSpec(blocks=k))
            for (a, b), (c, d) in iter_nonadjacent_pairs(g):
                assert g.has(a, d) or g.has(c, b)
            res = run_chain(
                g, ChainConfig(tau=100_000, mode="plain", seed=ACCEPT_SEED)
            )
            assert res.moves == 0
            assert res.graph == g
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"
        ok = True
    finally:
        record_acceptance(1, "blocked-instance stall", ok, time.perf_counter() - t0)


def test_criterion_2_component_counts():
    t0 = time.perf_counter()
    ok = False
    try:
        expectations = [
            (DiDegreeSequence(((1, 1),) * 3), 2),
            (DiDegreeSequence([(4, 1)] * 3 + [(1, 4)] * 3), 4),
        ]
        for s, expected in expectations:
            sg = build_state_graph(s, "phibar")
            props = check_properties(sg)
            assert len(props.component_sizes) == expected
            assert len(set(props.component_sizes)) == 1
            assert arcswap.recognize(s).component_count == expected
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
        ok = True
    finally:
        record_acceptance(2, "component counts", ok, time.perf_counter() - t0)


def test_criterion_3_structural_theorems(structural_sweep):
    entries, psi_entries, sweep_elapsed = structural_sweep
    t0 = time.perf_counter()
    ok = False
    try:
        assert len(entries) > 900
        for e in entries:
            phi = e["phi"]
            assert phi.symmetric, e["sequence"]
            assert phi.regular, e["sequence"]
            assert phi.non_bipartite, e["sequence"]
            assert phi.strongly_connected, e["sequence"]
            phibar = e["phibar"]
            assert phibar.symmetric and phibar.regular and phibar.non_bipartite
            assert phibar.strongly_connected == e["recognize"].is_arc_swap
            sizes = phibar.component_sizes
            assert len(sizes) == e["recognize"].component_count
            assert len(set(sizes)) == 1
        for e in psi_entries:
            psi = e["psi"]
            assert psi.symmetric and psi.regular and psi.non_bipartite
            assert psi.strongly_connected
            assert psi.degree == e["expected_degree"]
        elapsed = sweep_elapsed + time.perf_counter() - t0
        assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds 60s"
        ok = True
    finally:
        record_acceptance(
            3,
            "structural theorem suite",
            ok,
            sweep_elapsed + time.perf_counter() - t0,
        )


def test_complement_map_preserves_move_arcs(structural_sweep):
    # G -> complement(G) maps the state graph of the complement sequence
    # onto the sequence's own, move arc for move arc, each arc once: the
    # premise of run_chain's padded complement walk on dense input
    entries, psi_entries, _ = structural_sweep
    t0 = time.perf_counter()
    cases = [(e["sequence"], kind) for e in entries for kind in ("phi", "phibar")]
    cases += [(e["sequence"], "psi") for e in psi_entries]
    with_moves = 0
    for s, kind in cases:
        sg = build_state_graph(s, kind)
        bar = build_state_graph(s.complement(), kind)
        assert {k.complement() for k in bar.keys} == set(sg.keys), (kind, s)
        arcs = {(x, y) for x, row in sg.arcs.items() for y in row}
        mapped = {
            (x.complement(), y.complement()) for x, row in bar.arcs.items() for y in row
        }
        assert mapped == arcs, (kind, s)
        for h in (sg, bar):
            assert all(m == 1 for row in h.arcs.values() for m in row.values()), (kind, s)
        with_moves += bool(arcs)
    assert len(cases) > 1900 and with_moves > 700
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds 10s"


def test_criterion_4_diameter_bounds(structural_sweep):
    entries, psi_entries, sweep_elapsed = structural_sweep
    t0 = time.perf_counter()
    ok = False
    try:
        for e in entries:
            assert e["phi_bounds"].ok, (e["sequence"], e["phi_bounds"].violations[:3])
            bb = e["phibar_bounds"]
            assert bb.applicable == e["recognize"].is_arc_swap
            assert bb.ok, (e["sequence"], bb.violations[:3])
        for e in psi_entries:
            assert e["psi_bounds"].ok, e["sequence"]
        elapsed = sweep_elapsed + time.perf_counter() - t0
        assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds 60s"
        ok = True
    finally:
        record_acceptance(
            4, "diameter bounds", ok, sweep_elapsed + time.perf_counter() - t0
        )


def test_criterion_5_uniform_sampling(full_mode_ensemble):
    full_report, full_elapsed = full_mode_ensemble
    t0 = time.perf_counter()
    ok = False
    try:
        und_report = ensemble_stats(
            DegreeSequence((1, 1, 1, 1)),
            ChainConfig(tau=10_000, mode="undirected", seed=ACCEPT_SEED + 1),
            runs=3000,
            workers=_WORKERS,
        )
        counts = und_report.final_keys
        assert len(counts) == 3
        expected = 3000 / 3
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        p_undirected = chi2_sf(chi2, df=2)
        assert p_undirected > 0.01, (dict(counts), chi2)

        full_counts = full_report.final_keys
        assert len(full_counts) == 2
        expected = 3000 / 2
        chi2 = sum((c - expected) ** 2 / expected for c in full_counts.values())
        p_full = chi2_sf(chi2, df=1)
        assert p_full > 0.01, (dict(full_counts), chi2)

        elapsed = full_elapsed + time.perf_counter() - t0
        assert elapsed < 120.0, f"runtime {elapsed:.2f}s exceeds 120s"
        ok = True
    finally:
        record_acceptance(
            5, "uniform sampling", ok, full_elapsed + time.perf_counter() - t0
        )


def test_criterion_6_one_step_fidelity():
    t0 = time.perf_counter()
    ok = False
    try:
        rep = empirical_transition_check(
            DegreeSequence((1, 1, 1, 1)), "psi", steps_per_state=1_000_000,
            seed=ACCEPT_SEED,
        )
        assert rep.ok, rep.failures
        rep = empirical_transition_check(
            DiDegreeSequence(((1, 1),) * 3), "phi", steps_per_state=1_000_000,
            seed=ACCEPT_SEED + 1,
        )
        assert rep.ok, rep.failures
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0, f"runtime {elapsed:.2f}s exceeds 120s"
        ok = True
    finally:
        record_acceptance(
            6, "one-step transition fidelity", ok, time.perf_counter() - t0
        )


def test_criterion_7_recognition_oracle_equivalence(recognition_sweep):
    checked, mismatches, _, sweep_elapsed = recognition_sweep
    t0 = time.perf_counter()
    ok = False
    try:
        assert checked > 80_000
        assert not mismatches, mismatches[:5]
        elapsed = sweep_elapsed + time.perf_counter() - t0
        assert elapsed < 300.0, f"runtime {elapsed:.2f}s exceeds 300s"
        ok = True
    finally:
        record_acceptance(
            7,
            "recognition oracle equivalence",
            ok,
            sweep_elapsed + time.perf_counter() - t0,
        )


def test_criterion_8_reduction_correctness(recognition_sweep):
    _, _, non_arc_swap, _ = recognition_sweep
    t0 = time.perf_counter()
    ok = False
    try:
        extra = [
            generate_blocked(BlockedInstanceSpec(blocks=1)).degree_sequence(),
            generate_blocked(BlockedInstanceSpec(blocks=2)).degree_sequence(),
            generate_blocked(
                BlockedInstanceSpec(family=FAMILY_ONE_DIRECTION, attachment_size=2)
            ).degree_sequence(),
            generate_blocked(
                BlockedInstanceSpec(
                    family=FAMILY_CLIQUE_PARTITION,
                    attachment_size=2,
                    independent_size=1,
                )
            ).degree_sequence(),
            mobile_blocked_instance().degree_sequence(),
        ]
        corpus = list(non_arc_swap) + extra
        assert len(corpus) > 100
        for s in corpus:
            rep = arcswap.recognize(s)
            assert not rep.is_arc_swap, s.pairs
            reduced = rep.reduced_sequence
            assert is_digraphical(reduced).graphical, s.pairs
            assert arcswap.recognize(reduced).is_arc_swap, s.pairs
        ok = True
    finally:
        record_acceptance(
            8, "reduction correctness", ok, time.perf_counter() - t0
        )


def test_criterion_9_bias_report(full_mode_ensemble):
    full_report, _ = full_mode_ensemble
    t0 = time.perf_counter()
    ok = False
    try:
        s = DiDegreeSequence(((1, 1),) * 3)
        g0 = realize_directed(s)
        cycle_arcs = [
            arc
            for cs in arcswap.detect_induced_cycle_sets(g0)
            for arc in arcswap._cycle_orientation(g0, cs.vertices)
        ]
        assert len(cycle_arcs) == 3

        # swap-only sampling: frequencies freeze at 0/1; the correction is 1/2
        report = ensemble_stats(
            s, ChainConfig(tau=1000, mode="plain", seed=ACCEPT_SEED), runs=50
        )
        for arc in cycle_arcs:
            rev = (arc[1], arc[0])
            assert report.arc_frequency.get(arc, 0.0) in (0.0, 1.0)
            assert report.arc_frequency.get(rev, 0.0) in (0.0, 1.0)
            assert report.corrected_frequency[arc] == 0.5
            assert report.corrected_frequency[rev] == 0.5

        # the full walk samples the same arcs at 1/2 +- 0.05
        for arc in cycle_arcs:
            freq = full_report.arc_frequency.get(arc, 0.0)
            assert abs(freq - 0.5) < 0.05, (arc, freq)
            freq_rev = full_report.arc_frequency.get((arc[1], arc[0]), 0.0)
            assert abs(freq_rev - 0.5) < 0.05, (arc, freq_rev)
        ok = True
    finally:
        record_acceptance(9, "sampling bias report", ok, time.perf_counter() - t0)
