"""Tests for the analytical Erlang fixed-point surrogate.

Covers the vectorized Erlang-B array path (bit-agreement with the scalar
recurrence, edge conventions, the deprecation alias), the surrogate's
model guarantees (monotonicity in arrival rate, pooled/partitioned
bracketing, exact full-replication and single-copy limits), the
holder-list kernel against a dense ``(B, M, N)`` einsum oracle, fixed-point
convergence on every DES scenario in the fuzz corpus, and the pipeline's
``--surrogate`` screening mode end to end.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro import ClusterSpec, VideoCollection, ZipfPopularity
from repro.analysis import erlang as erlang_module
from repro.analysis.erlang import (
    cluster_blocking_bound,
    erlang_b,
    partitioned_blocking,
)
from repro.analysis.surrogate import (
    BatchSurrogateResult,
    FixedPointDiagnostics,
    FixedPointSpec,
    SurrogateWorkload,
    _complete_components,
    _run_starts,
    evaluate_layout,
    evaluate_layouts,
    server_stream_slots,
)
from repro.model.cluster import ServerSpec
from repro.model.layout import ReplicaLayout
from repro.pipeline import PipelineConfig, solve
from repro.placement import smallest_load_first_placement
from repro.replication import zipf_interval_replication
from repro.verify import surrogate_audit
from repro.verify.surrogate_audit import (
    SurrogateAuditCase,
    audit_case,
    audit_surrogate,
    bracket_bounds,
    sample_audit_cases,
)

CORPUS_DIR = Path(__file__).parent / "corpus"

DISPATCHERS = ("static_rr", "least_loaded", "first_fit")


# ----------------------------------------------------------------------
# Vectorized Erlang-B
# ----------------------------------------------------------------------
class TestErlangBArray:
    LOADS = np.array([0.0, 1e-9, 0.5, 1.0, 7.3, 20.0, 119.7, 450.0])
    SERVERS = np.array([0, 1, 2, 10, 64, 120, 451])

    def test_matches_scalar_recurrence(self):
        loads, servers = np.meshgrid(self.LOADS, self.SERVERS)
        vectorized = erlang_b(loads, servers)
        for i in np.ndindex(loads.shape):
            scalar = erlang_b(float(loads[i]), int(servers[i]))
            assert vectorized[i] == pytest.approx(scalar, rel=1e-9, abs=1e-300)

    def test_closed_form_agrees_with_numpy_fallback(self):
        if erlang_module._gammaincc is None:
            pytest.skip("scipy not available; only the fallback path exists")
        loads, servers = np.broadcast_arrays(
            *np.meshgrid(self.LOADS, self.SERVERS)
        )
        loads = np.ascontiguousarray(loads)
        servers = np.ascontiguousarray(servers)
        closed = erlang_module._erlang_b_closed_form(loads, servers)
        recurrence = erlang_module._erlang_b_recurrence(loads, servers)
        positive = loads > 0
        np.testing.assert_allclose(
            closed[positive], recurrence[positive], rtol=1e-9
        )

    def test_deep_overload_series_fallback(self):
        # a >> c underflows the Poisson cdf; the falling-factorial series
        # must still agree with the scalar recurrence (B ~ 1 - c/a).
        for load, servers in [(5000.0, 100), (2.0e4, 50), (1.0e6, 400)]:
            vectorized = erlang_b(np.array([load]), np.array([servers])).item()
            scalar = erlang_b(load, servers)
            assert vectorized == pytest.approx(scalar, rel=1e-9)
            assert vectorized == pytest.approx(1.0 - servers / load, rel=1e-3)

    def test_edge_conventions(self):
        out = erlang_b(np.array([0.0, 0.0, 5.0]), np.array([0, 4, 0]))
        np.testing.assert_array_equal(out, [0.0, 0.0, 1.0])

    def test_broadcasting(self):
        out = erlang_b(np.array([[1.0], [10.0]]), np.array([2, 8]))
        assert out.shape == (2, 2)
        assert out[0, 0] == pytest.approx(erlang_b(1.0, 2), rel=1e-9)
        assert out[1, 1] == pytest.approx(erlang_b(10.0, 8), rel=1e-9)

    def test_rejects_bad_arrays(self):
        with pytest.raises(ValueError, match="integral"):
            erlang_b(np.array([1.0]), np.array([2.5]))
        with pytest.raises(ValueError, match=">= 0"):
            erlang_b(np.array([1.0]), np.array([-1]))
        with pytest.raises(ValueError, match="finite"):
            erlang_b(np.array([-1.0]), np.array([2]))
        with pytest.raises(ValueError, match="finite"):
            erlang_b(np.array([np.inf]), np.array([2]))

    def test_removed_keyword_alias(self):
        # The transitional offered_load_erlangs= keyword finished its
        # deprecation window (DESIGN.md "Deprecation windows").
        with pytest.raises(TypeError):
            erlang_b(offered_load_erlangs=10.0, num_servers=5)

    def test_monotone_in_load_vectorized(self):
        loads = np.linspace(0.1, 120.0, 64)
        blocking = erlang_b(loads, np.full(64, 40))
        assert np.all(np.diff(blocking) >= -1e-15)


# ----------------------------------------------------------------------
# Surrogate model guarantees
# ----------------------------------------------------------------------
def _small_scenario(num_videos=24, num_servers=4, theta=0.75, degree=1.3):
    popularity = ZipfPopularity(num_videos, theta)
    cluster = ClusterSpec.homogeneous(
        num_servers, storage_gb=1.0e6, bandwidth_mbps=160.0
    )
    budget = min(int(round(degree * num_videos)), num_videos * num_servers)
    replication = zipf_interval_replication(
        popularity.probabilities, num_servers, budget
    )
    layout = smallest_load_first_placement(
        replication, math.ceil(budget / num_servers) + 1
    )
    return cluster, layout, popularity


def _workload(popularity, rate, duration=10.0):
    return SurrogateWorkload(
        popularity=popularity.probabilities,
        arrival_rate_per_min=rate,
        holding_time_min=duration,
    )


class TestSurrogateModel:
    @pytest.mark.parametrize("dispatcher", DISPATCHERS)
    def test_monotone_in_arrival_rate(self, dispatcher):
        cluster, layout, popularity = _small_scenario()
        rejections = [
            evaluate_layout(
                layout,
                _workload(popularity, rate),
                cluster,
                dispatcher=dispatcher,
            ).rejection_rate
            for rate in np.linspace(4.0, 24.0, 9)
        ]
        assert all(0.0 <= r <= 1.0 for r in rejections)
        assert np.all(np.diff(rejections) >= -1e-9)

    @pytest.mark.parametrize("dispatcher", DISPATCHERS)
    def test_batch_matches_single(self, dispatcher):
        cluster, layout_a, popularity = _small_scenario()
        _, layout_b, _ = _small_scenario(degree=1.6)
        workload = _workload(popularity, 15.0)
        batch = evaluate_layouts(
            [layout_a, layout_b], workload, cluster, dispatcher=dispatcher
        )
        for index, layout in enumerate([layout_a, layout_b]):
            single = evaluate_layout(
                layout, workload, cluster, dispatcher=dispatcher
            )
            assert batch.rejection_rates[index] == pytest.approx(
                single.rejection_rate, rel=1e-9, abs=1e-12
            )
            np.testing.assert_allclose(
                batch.per_server_blocking[index],
                single.per_server_blocking,
                rtol=1e-9,
                atol=1e-12,
            )

    @pytest.mark.parametrize("dispatcher", ("least_loaded", "first_fit"))
    def test_full_replication_is_exactly_pooled(self, dispatcher):
        # Every video on every server = one complete pooled component =
        # one M/G/C/C system: the surrogate must reproduce the pooled
        # cluster bound bit-exactly, not approximately.
        num_videos, num_servers = 12, 3
        popularity = ZipfPopularity(num_videos, 0.7)
        cluster = ClusterSpec.homogeneous(
            num_servers, storage_gb=1.0e6, bandwidth_mbps=120.0
        )
        layout = ReplicaLayout(np.full((num_videos, num_servers), 4.0))
        workload = _workload(popularity, 10.0, duration=9.0)
        result = evaluate_layout(
            layout, workload, cluster, dispatcher=dispatcher
        )
        slots = server_stream_slots(cluster, layout)
        pooled = cluster_blocking_bound(10.0, 9.0, int(slots.sum()))
        assert result.rejection_rate == pytest.approx(pooled, rel=1e-14)
        assert result.diagnostics.converged

    def test_single_copy_partition_is_exactly_partitioned(self):
        # One replica per video under static splitting = isolated Erlang
        # servers: the surrogate equals partitioned_blocking exactly.
        num_videos, num_servers = 12, 3
        popularity = ZipfPopularity(num_videos, 0.7)
        cluster = ClusterSpec.homogeneous(
            num_servers, storage_gb=1.0e6, bandwidth_mbps=120.0
        )
        matrix = np.zeros((num_videos, num_servers))
        matrix[np.arange(num_videos), np.arange(num_videos) % num_servers] = 4.0
        layout = ReplicaLayout(matrix)
        workload = _workload(popularity, 10.0, duration=9.0)
        result = evaluate_layout(
            layout, workload, cluster, dispatcher="static_rr"
        )
        shares = layout.presence.T @ popularity.probabilities
        expected = partitioned_blocking(
            10.0, 9.0, int(server_stream_slots(cluster, layout)[0]), shares
        )
        assert result.rejection_rate == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "case",
        sample_audit_cases(6, seed=11),
        ids=lambda c: f"{c.name}-{c.dispatcher}",
    )
    def test_prediction_bracketed_by_erlang_bounds(self, case):
        # The audit's bracketing contract, checked surrogate-side (no DES):
        # pooled bound <= prediction <= dispatcher-aware partitioned bound.
        cluster, _, layout, popularity = case.build()
        workload = _workload(
            popularity, case.arrival_rate_per_min, case.video_duration_min
        )
        result = evaluate_layout(
            layout, workload, cluster, dispatcher=case.dispatcher
        )
        pooled, partitioned = bracket_bounds(case, cluster, layout, popularity)
        assert result.diagnostics.converged
        assert pooled - 1e-9 <= result.rejection_rate <= partitioned + 1e-9

    def test_rejects_unknown_dispatcher(self):
        cluster, layout, popularity = _small_scenario()
        with pytest.raises(ValueError, match="dispatcher"):
            evaluate_layout(
                layout, _workload(popularity, 10.0), cluster, dispatcher="lru"
            )

    def test_rejects_scalable_rate_layout(self):
        cluster, layout, popularity = _small_scenario()
        matrix = layout.rate_matrix.copy()
        matrix[matrix > 0] = 4.0
        matrix[np.flatnonzero(matrix[:, 0] > 0)[0], 0] = 2.0
        with pytest.raises(ValueError, match="fixed-rate"):
            evaluate_layout(
                ReplicaLayout(matrix), _workload(popularity, 10.0), cluster
            )

    def test_fixed_point_spec_validation(self):
        with pytest.raises(ValueError, match="damping"):
            FixedPointSpec(damping=0.0)
        with pytest.raises(ValueError, match="damping"):
            FixedPointSpec(damping=1.5)
        with pytest.raises(ValueError, match="max_iterations"):
            FixedPointSpec(max_iterations=0)


# ----------------------------------------------------------------------
# Holder-list kernel vs the dense (B, M, N) formulation
# ----------------------------------------------------------------------
def _dense_pooled_components(presence):
    """Complete pooled components of one ``(M, N)`` presence matrix, by
    breadth-first growth over the server co-hosting adjacency."""
    num_videos, num_servers = presence.shape
    adjacency = presence.T @ presence
    unvisited = presence.any(axis=0)
    complete = []
    while unvisited.any():
        seed = int(np.flatnonzero(unvisited)[0])
        members = np.zeros(num_servers, dtype=bool)
        members[seed] = True
        while True:
            grown = members | (adjacency[members].any(axis=0) & unvisited)
            if np.array_equal(grown, members):
                break
            members = grown
        unvisited &= ~members
        videos = presence[:, members].any(axis=1)
        if np.all(presence[np.ix_(videos, members)]):
            complete.append((videos, members))
    return complete


def _dense_oracle(presence, slots, workload, dispatcher, spec):
    """The surrogate as einsums over a stacked ``(B, M, N)`` tensor.

    Independent of the holder-list kernel: same model, dense algebra.
    """
    presence = presence.astype(np.float64)
    num_layouts, num_videos, num_servers = presence.shape
    offered = workload.per_video_offered_erlangs
    replicas = presence.sum(axis=2)
    placed = replicas > 0
    safe_replicas = np.maximum(replicas, 1.0)
    if dispatcher == "static_rr":
        per_server_offered = np.einsum(
            "bmn,bm->bn", presence, offered / safe_replicas
        )
        per_server_blocking = erlang_b(per_server_offered, slots)
        per_video_blocking = (
            np.einsum("bmn,bn->bm", presence, per_server_blocking)
            / safe_replicas
        )
        iterations, residual, converged = 1, 0.0, True
    else:
        per_server_blocking = np.zeros((num_layouts, num_servers))
        per_server_blocking[:, slots == 0] = 1.0
        residual, converged = np.inf, False
        for iterations in range(1, spec.max_iterations + 1):
            log_blocking = np.log(np.maximum(per_server_blocking, 1e-300))
            if dispatcher == "first_fit":
                masked_log = presence * log_blocking[:, None, :]
                overflow = np.exp(np.cumsum(masked_log, axis=2) - masked_log)
                per_server_offered = np.einsum(
                    "bmn,m->bn", presence * overflow, offered
                )
            else:
                loss = np.exp(np.einsum("bmn,bn->bm", presence, log_blocking))
                loss = np.where(placed, loss, 1.0)
                free = np.einsum(
                    "bmn,bn->bm", presence, 1.0 - per_server_blocking
                )
                demand = np.divide(
                    offered * (1.0 - loss),
                    free,
                    out=np.zeros_like(free),
                    where=free > 0,
                )
                per_server_offered = np.einsum("bmn,bm->bn", presence, demand)
            fresh = np.where(
                slots == 0, 1.0, erlang_b(per_server_offered, slots)
            )
            step = spec.damping * (fresh - per_server_blocking)
            per_server_blocking = per_server_blocking + step
            residual = float(np.abs(step).max())
            if residual < spec.tolerance:
                converged = True
                break
        log_blocking = np.log(np.maximum(per_server_blocking, 1e-300))
        per_video_blocking = np.exp(
            np.einsum("bmn,bn->bm", presence, log_blocking)
        )
    per_video_blocking = np.where(placed, per_video_blocking, 1.0)
    if dispatcher != "static_rr":
        for b in range(num_layouts):
            for videos, servers in _dense_pooled_components(presence[b] > 0):
                pool_offered = float(offered[videos].sum())
                pool_slots = int(slots[servers].sum())
                pooled = erlang_b(pool_offered, pool_slots)
                per_video_blocking[b, videos] = pooled
                per_server_blocking[b, servers] = pooled
                share = (
                    slots[servers] / pool_slots
                    if pool_slots > 0
                    else np.full(int(servers.sum()), 1.0 / servers.sum())
                )
                per_server_offered[b, servers] = pool_offered * share
    utilization = np.clip(
        per_server_offered
        * (1.0 - per_server_blocking)
        / np.maximum(slots, 1),
        0.0,
        1.0,
    )
    return BatchSurrogateResult(
        rejection_rates=per_video_blocking @ workload.popularity,
        per_video_blocking=per_video_blocking,
        per_server_offered_erlangs=per_server_offered,
        per_server_blocking=per_server_blocking,
        per_server_utilization=np.where(slots > 0, utilization, 0.0),
        diagnostics=FixedPointDiagnostics(
            dispatcher, iterations, residual, converged, spec.damping
        ),
    )


def _random_presence(rng, kind, num_videos, num_servers):
    """One ``(M, N)`` presence matrix of the named structure."""
    if kind == "full":
        return np.ones((num_videos, num_servers), dtype=bool)
    presence = np.zeros((num_videos, num_servers), dtype=bool)
    if kind == "single_copy":
        hosts = rng.integers(num_servers, size=num_videos)
        presence[np.arange(num_videos), hosts] = True
    elif kind == "sparse":
        presence = rng.random((num_videos, num_servers)) < 0.3
    elif kind == "mixed":
        # Split servers and videos into groups: some groups fully
        # replicated (complete components), the rest sparse.
        server_group = rng.integers(3, size=num_servers)
        video_group = rng.integers(3, size=num_videos)
        for group in range(3):
            block = np.ix_(video_group == group, server_group == group)
            if rng.random() < 0.5:
                presence[block] = True
            else:
                presence[block] = rng.random(presence[block].shape) < 0.5
    elif kind == "cache":
        # The large-cache regime: one replica for most videos, two or
        # three for a few.
        hosts = rng.integers(num_servers, size=num_videos)
        presence[np.arange(num_videos), hosts] = True
        multi = rng.choice(num_videos, size=num_videos // 8, replace=False)
        for video in multi:
            extra = rng.choice(num_servers, size=2, replace=False)
            presence[video, extra] = True
    # Leave some videos unplaced, but never the whole layout.
    presence[rng.random(num_videos) < 0.15] = False
    if kind == "cache":
        # Server 0 (zero slots in a cache batch) always hosts a
        # single-replica video, and at least one video is multi-replica.
        presence[0] = False
        presence[0, 0] = True
        presence[-1, rng.choice(num_servers, size=2, replace=False)] = True
    if not presence.any():
        presence[0, 0] = True
    return presence


def _random_batch(seed, kinds=("full", "single_copy", "sparse", "mixed")):
    rng = np.random.default_rng(seed)
    num_videos = int(rng.integers(4, 30))
    num_servers = int(rng.integers(2, 8))
    presences = [
        _random_presence(rng, str(kind), num_videos, num_servers)
        for kind in rng.choice(kinds, size=int(rng.integers(1, 6)))
    ]
    # Some servers below one stream slot (bandwidth < bit rate).
    bandwidth = rng.choice([2.0, 40.0, 80.0, 120.0], size=num_servers)
    if "cache" in kinds:
        bandwidth[0] = 2.0
    cluster = ClusterSpec(
        ServerSpec(storage_gb=1.0e6, bandwidth_mbps=float(mbps))
        for mbps in bandwidth
    )
    popularity = rng.dirichlet(np.ones(num_videos))
    workload = SurrogateWorkload(
        popularity=popularity,
        arrival_rate_per_min=float(rng.uniform(0.5, 8.0)),
        holding_time_min=rng.uniform(2.0, 12.0, size=num_videos),
    )
    layouts = [ReplicaLayout(np.where(p, 4.0, 0.0)) for p in presences]
    return layouts, workload, cluster


def _assert_matches_dense_oracle(
    layouts, workload, cluster, dispatcher, spec=FixedPointSpec()
):
    got = evaluate_layouts(
        layouts, workload, cluster, dispatcher=dispatcher, fixed_point=spec
    )
    presence = np.stack([layout.presence for layout in layouts])
    slots = server_stream_slots(cluster, layouts[0])
    want = _dense_oracle(presence, slots, workload, dispatcher, spec)
    np.testing.assert_allclose(
        got.rejection_rates, want.rejection_rates, rtol=0, atol=1e-9
    )
    np.testing.assert_allclose(
        got.per_video_blocking, want.per_video_blocking, rtol=0, atol=1e-9
    )
    np.testing.assert_allclose(
        got.per_server_blocking,
        want.per_server_blocking,
        rtol=0,
        atol=1e-9,
    )
    assert got.diagnostics.converged == want.diagnostics.converged
    assert abs(got.diagnostics.iterations - want.diagnostics.iterations) <= 1


def _assert_components_match_breadth_first(layouts):
    num_videos, num_servers = layouts[0].num_videos, layouts[0].num_servers
    videos, servers = [], []
    for index, layout in enumerate(layouts):
        rows, cols = np.nonzero(layout.rate_matrix)
        videos.append(rows + index * num_videos)
        servers.append(cols + index * num_servers)
    video, server = np.concatenate(videos), np.concatenate(servers)
    found = {
        (tuple(v.tolist()), tuple(s.tolist()))
        for v, s in _complete_components(
            video, server, _run_starts(video), len(layouts) * num_servers
        )
    }
    expected = {
        (
            tuple((np.flatnonzero(v) + b * num_videos).tolist()),
            tuple((np.flatnonzero(s) + b * num_servers).tolist()),
        )
        for b, layout in enumerate(layouts)
        for v, s in _dense_pooled_components(layout.presence)
    }
    assert found == expected


def _fixed_batch(presences, bandwidth):
    """Layouts of *presences* on servers of *bandwidth* (4 Mb/s replicas)."""
    num_videos = presences[0].shape[0]
    cluster = ClusterSpec(
        ServerSpec(storage_gb=1.0e6, bandwidth_mbps=float(mbps))
        for mbps in bandwidth
    )
    weights = np.arange(num_videos, 0, -1, dtype=np.float64)
    workload = SurrogateWorkload(
        popularity=weights / weights.sum(),
        arrival_rate_per_min=6.0,
        holding_time_min=10.0,
    )
    layouts = [ReplicaLayout(np.where(p, 4.0, 0.0)) for p in presences]
    return layouts, workload, cluster


class TestHolderListMatchesDenseOracle:
    @pytest.mark.parametrize("dispatcher", DISPATCHERS)
    @pytest.mark.parametrize("seed", range(40))
    def test_random_batches(self, dispatcher, seed):
        _assert_matches_dense_oracle(*_random_batch(seed), dispatcher)

    @pytest.mark.parametrize("dispatcher", DISPATCHERS)
    @pytest.mark.parametrize("seed", range(20))
    def test_cache_batches(self, dispatcher, seed):
        # Mostly single-replica videos (the constant per-server load of
        # the overflow fixed point), a few multi-replica ones, and a
        # zero-slot server hosting single-replica videos.
        _assert_matches_dense_oracle(
            *_random_batch(seed, kinds=("cache",)), dispatcher
        )

    @pytest.mark.parametrize("dispatcher", DISPATCHERS)
    def test_batch_without_multi_replica_videos(self, dispatcher):
        # Every placed video has one replica; server 0 has zero slots.
        layouts, workload, cluster = self._single_replica_batch()
        _assert_matches_dense_oracle(layouts, workload, cluster, dispatcher)
        _assert_components_match_breadth_first(layouts)

    @staticmethod
    def _single_replica_batch():
        one = np.zeros((6, 3), dtype=bool)
        one[np.arange(6), [0, 1, 2, 0, 1, 1]] = True
        other = np.zeros((6, 3), dtype=bool)
        other[np.arange(5), [2, 2, 0, 1, 0]] = True
        return _fixed_batch([one, other], [2.0, 40.0, 80.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_undamped_zero_slot_server(self, seed):
        # A zero-slot server is pinned at blocking 1, so its free
        # probability is 0 and the single-replica demand takes the
        # ``free > 0`` guard (0 / 0 otherwise) on every step; Erlang-B's
        # B(0, 0) = 0 no longer sends it back to 0, so plain Picard
        # iteration converges instead of oscillating.
        spec = FixedPointSpec(damping=1.0, max_iterations=40)
        batches = [self._single_replica_batch()]
        batches.append(_random_batch(seed, kinds=("cache",)))
        for layouts, workload, cluster in batches:
            for dispatcher in ("least_loaded", "first_fit"):
                _assert_matches_dense_oracle(
                    layouts, workload, cluster, dispatcher, spec
                )
                result = evaluate_layouts(
                    layouts,
                    workload,
                    cluster,
                    dispatcher=dispatcher,
                    fixed_point=spec,
                )
                assert result.diagnostics.converged

    @pytest.mark.parametrize("dispatcher", ["least_loaded", "first_fit"])
    def test_zero_slot_component_keeps_its_offered_load(self, dispatcher):
        # Single copies make every server its own complete component;
        # server 0's bandwidth is below the bit rate, so its component
        # has no slots, blocks everything and still reports the load its
        # videos offer.
        layouts, workload, cluster = self._single_replica_batch()
        result = evaluate_layouts(
            layouts, workload, cluster, dispatcher=dispatcher
        )
        offered = workload.per_video_offered_erlangs
        for b, layout in enumerate(layouts):
            on_zero = layout.presence[:, 0]
            assert on_zero.any()
            assert result.per_server_offered_erlangs[b, 0] == pytest.approx(
                offered[on_zero].sum(), rel=1e-12
            )
            assert result.per_server_blocking[b, 0] == 1.0
            np.testing.assert_array_equal(
                result.per_video_blocking[b, on_zero], 1.0
            )
            assert result.per_server_utilization[b, 0] == 0.0

    @pytest.mark.parametrize("dispatcher", DISPATCHERS)
    def test_batch_without_single_replica_videos(self, dispatcher):
        # Every placed video has at least two replicas: a complete pair
        # of servers (one with zero slots), an incomplete chain of three,
        # an unplaced video, and a fully replicated layout.
        pair = np.zeros((6, 5), dtype=bool)
        pair[:3, :2] = True
        pair[3, [2, 3]] = True
        pair[4, [3, 4]] = True
        layouts, workload, cluster = _fixed_batch(
            [pair, np.ones((6, 5), dtype=bool)],
            [2.0, 40.0, 80.0, 120.0, 40.0],
        )
        _assert_matches_dense_oracle(layouts, workload, cluster, dispatcher)
        _assert_components_match_breadth_first(layouts)

    def test_cache_scale_batch(self):
        # One theta of the E17 grid: four N=100 x 10k layouts, every
        # dispatcher, including first_fit's long ordered-hunt segments.
        from repro.experiments.cache_scale_sweep import (
            build_strategy_layouts,
            cache_scale_setup,
        )

        setup = cache_scale_setup()
        _, layouts, _ = build_strategy_layouts(setup, 0.9, 1.2)
        cluster = setup.cluster(1.2)
        workload = SurrogateWorkload.from_setup(
            setup, 0.9, 0.95 * setup.saturation_rate_per_min
        )
        presence = np.stack([layout.presence for layout in layouts])
        slots = server_stream_slots(cluster, layouts[0])
        for dispatcher in DISPATCHERS:
            got = evaluate_layouts(
                layouts, workload, cluster, dispatcher=dispatcher
            )
            want = _dense_oracle(
                presence, slots, workload, dispatcher, FixedPointSpec()
            )
            np.testing.assert_allclose(
                got.rejection_rates, want.rejection_rates, rtol=0, atol=1e-9
            )
            np.testing.assert_allclose(
                got.per_video_blocking,
                want.per_video_blocking,
                rtol=0,
                atol=1e-9,
            )
            assert got.diagnostics.converged == want.diagnostics.converged
            assert (
                abs(got.diagnostics.iterations - want.diagnostics.iterations)
                <= 1
            )

    @pytest.mark.parametrize("seed", range(40))
    def test_complete_components_match_breadth_first(self, seed):
        layouts, _, _ = _random_batch(seed)
        _assert_components_match_breadth_first(layouts)

    @pytest.mark.parametrize("seed", range(20))
    def test_cache_complete_components_match_breadth_first(self, seed):
        layouts, _, _ = _random_batch(seed, kinds=("cache",))
        _assert_components_match_breadth_first(layouts)

    def test_batches_cover_every_structure(self):
        # The random batches above must exercise what they claim to:
        # unplaced videos, zero-slot servers, single-copy and full layouts,
        # and layouts mixing complete with incomplete components.
        seen = set()
        for seed in range(40):
            layouts, _, cluster = _random_batch(seed)
            slots = server_stream_slots(cluster, layouts[0])
            seen.add(("batch", len(layouts)))
            if (slots == 0).any():
                seen.add("zero_slots")
            for layout in layouts:
                presence = layout.presence
                counts = presence.sum(axis=1)
                if (counts == 0).any():
                    seen.add("unplaced")
                if presence.all():
                    seen.add("full")
                if counts.max() == 1:
                    seen.add("single_copy")
                connected = presence[:, presence.any(axis=0)]
                complete = _dense_pooled_components(presence)
                covered = sum(int(servers.sum()) for _, servers in complete)
                if complete and covered < connected.shape[1]:
                    seen.add("mixed_components")
        assert {"zero_slots", "unplaced", "full", "single_copy"} <= seen
        assert "mixed_components" in seen
        assert {("batch", size) for size in range(1, 6)} <= seen

    def test_cache_batches_cover_their_structure(self):
        # Every cache batch is mostly single-replica videos with a few
        # multi-replica ones, and its zero-slot server 0 hosts
        # single-replica videos; some layouts have an unplaced video.
        unplaced = False
        single = multi = 0
        for seed in range(20):
            layouts, _, cluster = _random_batch(seed, kinds=("cache",))
            assert server_stream_slots(cluster, layouts[0])[0] == 0
            for layout in layouts:
                counts = layout.presence.sum(axis=1)
                assert (counts > 1).any()
                assert layout.presence[counts == 1, 0].any()
                single += int((counts == 1).sum())
                multi += int((counts > 1).sum())
                unplaced |= bool((counts == 0).any())
        assert single > 4 * multi
        assert unplaced


# ----------------------------------------------------------------------
# Fixed-point convergence on the fuzz corpus
# ----------------------------------------------------------------------
def _corpus_des_cases():
    cases = []
    for path in sorted(CORPUS_DIR.glob("*.json")):
        payload = json.loads(path.read_text())
        if payload.get("kind") == "des":
            cases.append(pytest.param(payload["params"], id=path.stem))
    return cases


@pytest.mark.parametrize("params", _corpus_des_cases())
def test_fixed_point_converges_on_corpus_scenarios(params):
    """Every corpus DES scenario's (cluster, layout, workload) must give a
    converged fixed point with a sane prediction — the surrogate may not
    silently diverge anywhere the fuzzer has ever explored."""
    num_videos = int(params["num_videos"])
    num_servers = int(params["num_servers"])
    capacity = max(
        int(params["capacity"]), math.ceil(num_videos / num_servers) + 1
    )
    popularity = ZipfPopularity(num_videos, float(params["theta"]))
    cluster = ClusterSpec.homogeneous(
        num_servers,
        storage_gb=1.0e6,
        bandwidth_mbps=float(params["bandwidth_mbps"]),
    )
    replication = zipf_interval_replication(
        popularity.probabilities,
        num_servers,
        min(num_videos + num_servers * 2, capacity * num_servers),
    )
    layout = smallest_load_first_placement(replication, capacity)
    workload = SurrogateWorkload(
        popularity=popularity.probabilities,
        arrival_rate_per_min=float(params["rate_per_min"]),
        holding_time_min=float(params["video_duration_min"]),
    )
    result = evaluate_layout(
        layout, workload, cluster, dispatcher=str(params["dispatcher"])
    )
    assert result.diagnostics.converged, str(result.diagnostics)
    assert 0.0 <= result.rejection_rate <= 1.0
    assert np.all(result.per_server_utilization >= 0.0)
    assert np.all(result.per_server_utilization <= 1.0)


# ----------------------------------------------------------------------
# Audit machinery (fast DES case + report plumbing)
# ----------------------------------------------------------------------
class TestAuditMachinery:
    SMALL_CASE = SurrogateAuditCase(
        name="tiny",
        num_videos=12,
        num_servers=3,
        theta=0.7,
        bandwidth_mbps=60.0,
        replication_degree=1.3,
        load_factor=0.9,
        dispatcher="least_loaded",
        video_duration_min=5.0,
        horizon_min=60.0,
        num_runs=1,
        trace_seed=5,
    )

    def test_sampled_cases_are_deterministic(self):
        a = sample_audit_cases(4, seed=3)
        b = sample_audit_cases(4, seed=3)
        assert a == b
        assert {c.dispatcher for c in a} == {
            "static_rr", "least_loaded", "first_fit"
        }

    def test_audit_case_runs_the_des(self):
        result = audit_case(self.SMALL_CASE)
        assert 0.0 <= result.des_rejection <= 1.0
        assert result.converged
        assert result.bracketed
        assert result.error == pytest.approx(
            result.surrogate_rejection - result.des_rejection
        )
        assert "tiny" in result.format()

    def test_audit_report_aggregates(self):
        report = audit_surrogate(cases=[self.SMALL_CASE], tolerance=1.0)
        assert len(report.results) == 1
        assert report.max_abs_error == abs(report.results[0].error)
        assert report.all_converged
        assert report.ok  # tolerance=1.0 cannot fail on accuracy
        assert "1 configs" in report.format()

    def test_cli_exit_codes(self, monkeypatch, capsys):
        ok_report = audit_surrogate(cases=[self.SMALL_CASE], tolerance=1.0)
        monkeypatch.setattr(
            surrogate_audit, "audit_surrogate", lambda **kw: ok_report
        )
        assert surrogate_audit.main([]) == 0
        bad_report = audit_surrogate(cases=[self.SMALL_CASE], tolerance=0.0)
        monkeypatch.setattr(
            surrogate_audit, "audit_surrogate", lambda **kw: bad_report
        )
        assert surrogate_audit.main(["--configs", "1"]) == (
            0 if bad_report.ok else 1
        )
        capsys.readouterr()


# ----------------------------------------------------------------------
# E15 experiment
# ----------------------------------------------------------------------
def test_surrogate_sweep_experiment_small():
    from repro.experiments.config import PaperSetup
    from repro.experiments.surrogate_sweep import format_sweep, run_sweep

    setup = PaperSetup().scaled_down(num_videos=30, num_servers=3, num_runs=2)
    rows = run_sweep(
        setup, rates=(8.0,), candidates=6, top_k=2, num_runs=2
    )
    assert len(rows) == 1
    assert rows[0]["num_candidates"] == 6
    assert 0.0 <= rows[0]["chosen_des"] <= 1.0
    report = format_sweep(rows)
    assert "E15" in report
    assert rows[0]["chosen_label"] in report


# ----------------------------------------------------------------------
# Pipeline --surrogate screening mode
# ----------------------------------------------------------------------
class TestPipelineScreen:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="anneal"):
            PipelineConfig(surrogate=True, anneal=True)
        with pytest.raises(ValueError, match="shards"):
            PipelineConfig(surrogate=True, shards=2)
        with pytest.raises(ValueError, match="screen_top_k"):
            PipelineConfig(surrogate=True, screen_top_k=0)
        with pytest.raises(ValueError, match="screen_candidates"):
            PipelineConfig(surrogate=True, screen_candidates=2, screen_top_k=3)

    def test_screen_and_confirm_end_to_end(self):
        from repro.experiments.config import PaperSetup

        setup = PaperSetup().scaled_down(
            num_videos=40, num_servers=3, num_runs=2
        )
        config = PipelineConfig(
            theta=0.75,
            replication_degree=1.2,
            arrival_rate_per_min=10.0,
            num_runs=2,
            surrogate=True,
            screen_candidates=8,
            screen_top_k=2,
            setup=setup,
        )
        result = solve(config)
        screen = result.screen
        assert screen is not None
        assert screen.num_candidates == 8
        assert len(set(screen.labels)) == 8
        assert len(screen.survivors) == 2
        assert screen.chosen in screen.survivors
        assert screen.predicted_rejections.shape == (8,)
        assert len(result.results) == 2  # the winner's DES runs
        # The survivors are the analytically best-predicted candidates.
        predicted_order = screen.predicted_rejections.argsort(kind="stable")
        assert set(screen.survivors) == set(int(i) for i in predicted_order[:2])
        # The chosen candidate won the DES confirmation.
        confirmed = dict(zip(screen.survivors, screen.confirmed))
        assert confirmed[screen.chosen].mean == min(
            summary.mean for summary in confirmed.values()
        )
        assert "screen" in result.format()
        assert screen.chosen_label in result.format()
