"""Analytical blocking models (Erlang loss) for the VoD cluster.

The paper observes that "there would be no rejection before the arrival
rate reaches the outgoing bandwidth capacity of the cluster, if
communication traffic is perfectly balanced ... it is the variance of
arrival distributions that induces considerable dynamic load imbalance and
hence rejections" (Sec. 5.3).  Queueing theory makes that precise: a
perfectly balanced cluster of ``c`` stream slots fed by Poisson arrivals
with mean holding time ``D`` is an ``M/G/c/c`` loss system, whose blocking
probability is Erlang-B — *insensitive* to the holding-time distribution.

These functions give:

* :func:`erlang_b` — the classic blocking formula (stable recurrence);
* :func:`cluster_blocking_bound` — the lower bound on any dispatch policy's
  rejection rate (the whole cluster pooled);
* :func:`partitioned_blocking` — the upper-bound contrast: every server an
  independent Erlang system fed its popularity share (what static
  round-robin converges to as replicas shrink).

The simulator-validation tests check the measured rejection of a
least-loaded, fully-replicated cluster against Erlang-B within Monte-Carlo
noise.  Note the paper's *transient* 90-minute peak (holding time equal to
the peak) rejects less than the steady-state formula predicts; the bound
comparisons therefore use long horizons.
"""

from __future__ import annotations

import numpy as np

from .._validation import check_int_in_range, check_non_negative, check_probability_vector

__all__ = [
    "erlang_b",
    "offered_load_erlangs",
    "cluster_blocking_bound",
    "partitioned_blocking",
]

try:  # scipy is optional: the array path falls back to a pure-numpy loop
    from scipy.special import gammaincc as _gammaincc, gammaln as _gammaln
except ImportError:  # pragma: no cover - scipy present in the dev image
    _gammaincc = _gammaln = None


def _erlang_b_scalar(offered_load: float, num_servers: int) -> float:
    """The original scalar recurrence, kept bit-compatible."""
    check_non_negative("offered_load", offered_load)
    check_int_in_range("num_servers", num_servers, 0)
    if offered_load == 0.0:
        return 0.0
    blocking = 1.0
    for c in range(1, num_servers + 1):
        blocking = offered_load * blocking / (c + offered_load * blocking)
    return float(blocking)


def _erlang_b_recurrence(
    loads: np.ndarray, servers: np.ndarray
) -> np.ndarray:
    """Pure-numpy fallback: the log-domain inverse recurrence.

    The inverse blocking ``I(a, c) = 1 / B(a, c)`` satisfies
    ``I(a, 0) = 1;  I(a, c) = 1 + (c / a) I(a, c-1)`` and grows without
    bound for light loads, so the recurrence runs on ``log I`` via
    ``logaddexp`` — stable for any ``c`` (the plain recurrence's products
    stay representable too, but the log form also survives the extreme
    ``a << c`` corner where ``I`` overflows a float at a few hundred
    servers).  O(max c) numpy passes — correct everywhere, but the slow
    path; the closed form below is preferred when scipy is present.
    """
    with np.errstate(divide="ignore"):  # log(0) for zero-load entries
        log_load = np.log(loads)
    log_inverse = np.zeros(loads.shape, dtype=np.float64)
    max_servers = int(servers.max()) if servers.size else 0
    for c in range(1, max_servers + 1):
        active = servers >= c
        if not np.any(active):  # pragma: no cover - loop bound prevents this
            break
        step = np.logaddexp(0.0, np.log(c) - log_load + log_inverse)
        log_inverse = np.where(active, step, log_inverse)
    return np.exp(-log_inverse)


def _erlang_b_closed_form(
    loads: np.ndarray, servers: np.ndarray, log_factorial=None
) -> np.ndarray:
    """Loop-free Erlang-B: ``B(a, c) = Poisson pmf(c; a) / cdf(c; a)``.

    The cdf is the regularized upper incomplete gamma ``Q(c+1, a)``; no
    per-``c`` recurrence, so a whole ``(B, N)`` fixed-point sweep costs a
    handful of vectorized special-function calls — the surrogate's
    >=100x-vs-DES speed budget lives here.

    Deep overload (``a >> c``) underflows the cdf; those elements switch
    to the falling-factorial series for the inverse blocking
    ``I = sum_j (c)_j / a^j``, whose terms decay geometrically with ratio
    ``c / a`` exactly when the closed form is unsafe.

    *log_factorial* is ``gammaln(servers + 1)`` when the caller already
    holds it (a fixed point iterating against the same slots).
    """
    if log_factorial is None:
        log_factorial = _gammaln(servers + 1.0)
    # log(0) and 0 * -inf for zero-load entries; both are overwritten by
    # the zero-load convention in the caller.
    with np.errstate(divide="ignore", invalid="ignore"):
        log_load = np.log(loads)
        log_pmf = servers * log_load - loads - log_factorial
        cdf = _gammaincc(servers + 1.0, loads)
        unsafe = (cdf < 1e-290) & (loads > 0)
        blocking = np.where(
            unsafe, 1.0, np.exp(log_pmf) / np.maximum(cdf, 1e-300)
        )
    if np.any(unsafe):
        # cdf underflow requires a > ~3c, so the series converges with
        # ratio < 1/3 and a few hundred terms reach full precision.
        a = loads[unsafe]
        c = servers[unsafe].astype(np.float64)
        term = np.ones_like(a)
        inverse = np.ones_like(a)
        for j in range(1, 400):
            term = term * np.maximum(c - (j - 1), 0.0) / a
            inverse += term
            if float(term.max()) < 1e-18:
                break
        blocking[unsafe] = 1.0 / inverse
    return blocking


def _check_slots(num_servers) -> np.ndarray:
    """``num_servers`` as a validated integer array (rounded if float)."""
    servers = np.asarray(num_servers)
    if not np.issubdtype(servers.dtype, np.integer):
        rounded = np.rint(servers)
        if not np.all(np.isclose(servers, rounded)):
            raise ValueError("num_servers must be integral")
        servers = rounded.astype(np.int64)
    if np.any(servers < 0):
        raise ValueError("num_servers must be >= 0")
    return servers


def _erlang_b_checked(
    offered_load, servers: np.ndarray, log_factorial=None
) -> np.ndarray:
    """Vectorized Erlang-B against slot counts already through
    :func:`_check_slots`; the offered loads are validated here."""
    loads = np.asarray(offered_load, dtype=np.float64)
    if np.any(loads < 0) or not np.all(np.isfinite(loads)):
        raise ValueError("offered_load must be finite and >= 0")
    loads, servers = np.broadcast_arrays(loads, servers)
    loads = np.ascontiguousarray(loads)
    servers = np.ascontiguousarray(servers)
    if _gammaincc is not None:
        blocking = _erlang_b_closed_form(loads, servers, log_factorial)
    else:  # pragma: no cover - scipy present in the dev image
        blocking = _erlang_b_recurrence(loads, servers)
    # Zero offered load never blocks (on >= 1 servers); zero servers
    # always block — the same conventions as the scalar path.
    blocking = np.where(loads == 0.0, 0.0, blocking)
    return np.where(servers == 0, np.where(loads > 0.0, 1.0, 0.0), blocking)


def _erlang_b_array(offered_load: np.ndarray, num_servers) -> np.ndarray:
    """Vectorized Erlang-B over broadcast ``(offered_load, num_servers)``.

    Dispatches to the scipy closed form (loop-free) when available, else
    the pure-numpy log-domain recurrence; both agree with the scalar
    recurrence to ~1e-12 relative.
    """
    return _erlang_b_checked(offered_load, _check_slots(num_servers))


def _fixed_slots_erlang_b(num_servers):
    """``offered_load -> B(offered_load, num_servers)`` for fixed slots.

    The slot validation and the closed form's ``gammaln(c + 1)`` run once
    here instead of on every call, so a fixed point that re-evaluates
    Erlang-B against the same slots each iteration pays only for the
    load-dependent terms.  Results are bit-identical to :func:`erlang_b`.
    """
    servers = _check_slots(num_servers)
    log_factorial = None if _gammaln is None else _gammaln(servers + 1.0)

    def blocking(offered_load) -> np.ndarray:
        return _erlang_b_checked(offered_load, servers, log_factorial)

    return blocking


def erlang_b(offered_load, num_servers):
    """Erlang-B blocking probability ``B(a, c)``.

    Parameters
    ----------
    offered_load:
        Offered traffic ``a = lambda * holding_time`` — a scalar or an
        array (any shape, broadcast against ``num_servers``).  (The
        parameter was once named ``offered_load_erlangs``, which shadowed
        the module-level :func:`offered_load_erlangs` helper; the
        transitional keyword alias served its deprecation window and has
        been removed — see DESIGN.md "Deprecation windows".)
    num_servers:
        Number of circuits ``c`` (stream slots here) — a scalar or an
        integer array broadcastable against ``offered_load``.

    Scalars use the numerically stable recurrence ``B(a, 0) = 1;
    B(a, c) = a B(a, c-1) / (c + a B(a, c-1))`` (bit-compatible with the
    historical implementation); arrays use a log-domain inverse
    recurrence vectorized over all elements.
    """
    if np.ndim(offered_load) == 0 and np.ndim(num_servers) == 0:
        return _erlang_b_scalar(offered_load, num_servers)
    return _erlang_b_array(offered_load, num_servers)


def offered_load_erlangs(
    arrival_rate_per_min: float, holding_time_min: float
) -> float:
    """Offered traffic ``a = lambda * D`` in Erlangs."""
    check_non_negative("arrival_rate_per_min", arrival_rate_per_min)
    check_non_negative("holding_time_min", holding_time_min)
    return arrival_rate_per_min * holding_time_min


def cluster_blocking_bound(
    arrival_rate_per_min: float,
    holding_time_min: float,
    total_stream_slots: int,
) -> float:
    """Steady-state rejection lower bound: the cluster as one pooled link.

    No replication/placement/dispatch combination can reject less in
    steady state than an ``M/G/c/c`` system with all slots pooled.
    """
    load = offered_load_erlangs(arrival_rate_per_min, holding_time_min)
    return erlang_b(load, total_stream_slots)


def partitioned_blocking(
    arrival_rate_per_min: float,
    holding_time_min: float,
    slots_per_server: int,
    popularity_share_per_server: np.ndarray,
) -> float:
    """Mean blocking when each server is an isolated Erlang system.

    ``popularity_share_per_server[k]`` is the fraction of all requests
    statically routed to server ``k`` (for single-copy layouts this is the
    popularity mass stored there).  The overall rejection rate is the
    share-weighted mean of the per-server Erlang-B blockings — the
    fully-partitioned upper-bound contrast to the pooled bound.
    """
    shares = check_probability_vector(
        "popularity_share_per_server", popularity_share_per_server
    )
    check_int_in_range("slots_per_server", slots_per_server, 0)
    blocked = 0.0
    for share in shares:
        load = offered_load_erlangs(
            arrival_rate_per_min * float(share), holding_time_min
        )
        blocked += float(share) * erlang_b(load, slots_per_server)
    return blocked
