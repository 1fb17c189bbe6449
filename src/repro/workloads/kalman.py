"""Scalar Kalman filtering: the subtraction-heavy workload.

A 1-D constant-dynamics Kalman filter per track, written in the
*convex-combination* form so it stays inside the execution plane's
probability domain (every quantity is positive)::

    x⁻ = a·x            p⁻ = a²·p + q
    k  = p⁻ / (p⁻ + r)  (the Kalman gain, in (0, 1))
    x  = (1-k)·x⁻ + k·z  p  = (1-k)·p⁻

The one subtraction is ``1 - k`` — and that is the point: as the
predicted variance ``p⁻`` dwarfs the measurement noise ``r``, ``k``
approaches 1 and ``1 - k`` is a catastrophic cancellation, the
scenario that motivated the native batch ``sub`` kernels and the LNS
``db`` tables (PR 5) and that no sum/product-only kernel ever hits.
Posit's tapered precision and LNS's flat precision behave very
differently here, which is what
:mod:`repro.experiments.fig_kalman_accuracy` measures against the
BigFloat oracle.

The recurrence is a straight-line nd expression over ``(B,)`` state
vectors — one op sequence regardless of plan, so batch and serial
representations agree to the registry's certification per format.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

import numpy as np

from .. import nd
from .. import telemetry as _tele
from ..engine.plan import ExecPlan, resolve_plan
from ..nd.context import _resolve_format


@dataclass(frozen=True)
class KalmanParams:
    """Shared filter constants (all strictly positive; ``a`` in
    (0, 1] keeps the prediction inside the probability domain)."""

    a: float = 0.9      # state transition
    q: float = 1e-4     # process noise variance
    r: float = 1e-2     # measurement noise variance
    x0: float = 0.5     # initial state estimate
    p0: float = 0.25    # initial estimate variance


@dataclass(frozen=True)
class KalmanEstimate:
    """One track's final filtered state and variance (backend
    values)."""

    x: Any
    p: Any


def _kalman_nd(zs, params: KalmanParams, backend, plan):
    """The filter over an encoded measurement array ``zs (B, T)``;
    returns ``(x (B,), p (B,))`` FArrays."""
    def const(v):
        return nd.asarray(v, backend, plan=plan)

    a = const(params.a)
    aa = a * a
    q, r, one = const(params.q), const(params.r), const(1.0)
    n_batch, n_steps = zs.shape
    with _tele.span("workload.kalman"):
        x = nd.broadcast_to(const([params.x0]), (n_batch,))
        p = nd.broadcast_to(const([params.p0]), (n_batch,))
        for t in range(n_steps):
            xp = a * x
            pp = aa * p + q
            k = pp / (pp + r)
            omk = one - k  # the cancellation: k -> 1 as pp >> r
            x = omk * xp + k * zs[:, t]
            p = omk * pp
        return x, p


def kalman_batch(measurements, backend=None,
                 params: Optional[KalmanParams] = None,
                 plan: Optional[ExecPlan] = None
                 ) -> List[KalmanEstimate]:
    """Filter a batch of measurement tracks.

    ``measurements`` is a ``(B, T)`` array of strictly positive
    values.  Returns one :class:`KalmanEstimate` per track.  Requires
    a format with ``sub`` and ``div`` (binary64, log-space, posit,
    LNS, the oracle — every registered format); the batch runs as one
    vectorized pass.
    """
    backend = _resolve_format(backend)
    plan = resolve_plan(plan, where="kalman_batch")
    params = params or KalmanParams()
    zs_f64 = np.asarray(measurements, dtype=np.float64)
    if zs_f64.ndim != 2:
        raise ValueError("measurements must have shape (batch, T)")
    zs = nd.asarray(zs_f64, backend, plan=plan)
    x, p = _kalman_nd(zs, params, backend, plan)
    return [KalmanEstimate(x.item(i), p.item(i))
            for i in range(x.shape[0])]


def sample_tracks(n_tracks: int, length: int, seed: int = 0,
                  params: Optional[KalmanParams] = None
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Synthetic measurement tracks: a latent AR(1) state observed
    through positive multiplicative noise.  Returns ``(measurements
    (B, T), latent (B, T))`` float64 — inputs stay exactly
    representable on format entry via the usual one-rounding path."""
    params = params or KalmanParams()
    rng = np.random.default_rng(seed)
    latent = np.empty((n_tracks, length))
    state = np.full(n_tracks, params.x0)
    for t in range(length):
        state = params.a * state + rng.normal(
            0.0, np.sqrt(params.q), n_tracks)
        state = np.abs(state) + 1e-12
        latent[:, t] = state
    noise = rng.lognormal(0.0, np.sqrt(params.r), (n_tracks, length))
    return latent * noise, latent


__all__ = ["KalmanEstimate", "KalmanParams", "kalman_batch",
           "sample_tracks"]
