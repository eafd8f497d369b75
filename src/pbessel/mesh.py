"""Uniform meshes and the cumulative quadrature engine.

Every grid function in the library lives on a uniform mesh over [0, b]
whose point count satisfies m = 1 (mod 5), so that the mesh tiles exactly
into panels of six points (five intervals).  The indefinite integral of a
sampled function is computed panel by panel: the six samples of a panel
are interpolated by a quintic and the exact antiderivative of that
quintic supplies the five interior increments.  Polynomials of degree
up to five therefore integrate exactly up to rounding, and the rule is
globally of sixth order for smooth integrands.

Integrands that contain a 1/u0^2 factor are corrupted near the origin
(small absolute errors are amplified by the division).  Those are
integrated through the guarded path: a fifth-difference screen locates
the first six-tuple of consecutive values that looks like a smooth
sample set, and everything before it is replaced by zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import DomainError, InvalidMeshError

__all__ = [
    "UniformMesh",
    "GridFunction",
    "next_valid_size",
    "cumulative_integral",
    "cutoff_start_index",
    "cumulative_integral_guarded",
    "DEFAULT_CUTOFF_SLACK",
]

# Cumulative weights of the 6-point Newton-Cotes rule: row k-1 holds the
# exact weights of integral_0^k p(t) dt for the quintic p interpolating
# (j, y_j), j = 0..5, in units of the step h.  Derived from the exact
# antiderivatives of the Lagrange basis; row 5 is the classical closed
# rule (5/288)(19, 75, 50, 50, 75, 19).  Numerators over the common
# denominator 1440 are kept so each dtype rounds the exact ratios once.
_CUM_W_NUM = (
    (475, 1427, -798, 482, -173, 27),
    (448, 2064, 224, 224, -96, 16),
    (459, 1971, 1026, 1026, -189, 27),
    (448, 2048, 768, 2048, 448, 0),
    (475, 1875, 1250, 1250, 1875, 475),
)
_CUM_W_DEN = 1440


@cache
def _cum_weights(dtype: np.dtype) -> np.ndarray:
    """The weight matrix in ``dtype``: each exact ratio rounded once."""
    w = np.array(_CUM_W_NUM, dtype=dtype) / dtype.type(_CUM_W_DEN)
    w.flags.writeable = False
    return w


# Fifth finite difference y0 - 5 y1 + 10 y2 - 10 y3 + 5 y4 - y5.
_DELTA5 = np.array([1.0, -5.0, 10.0, -10.0, 5.0, -1.0])

#: Default slack factor T of the cut-off criterion: a six-tuple passes when
#: |Delta_5| <= T * (second smallest absolute value in the tuple).
DEFAULT_CUTOFF_SLACK = 100.0


def next_valid_size(m: int) -> int:
    """Round a requested point count up to the next value with m = 1 (mod 5)."""
    m = max(int(m), 6)
    r = (m - 1) % 5
    return m if r == 0 else m + (5 - r)


@dataclass(frozen=True)
class UniformMesh:
    """Uniform sample grid x_i = i*h on [0, b] with h = b/(m-1).

    Parameters
    ----------
    b : float
        Right endpoint, b > 0.
    m : int
        Number of points; m >= 6 and m = 1 (mod 5) so 6-point panels
        tile the mesh exactly.
    """

    b: float
    m: int

    def __post_init__(self):
        if not np.isfinite(self.b) or self.b <= 0.0:
            raise DomainError(f"mesh endpoint must be finite and positive, got b={self.b}")
        if self.m < 6:
            raise InvalidMeshError(f"mesh needs at least 6 points, got m={self.m}")
        if (self.m - 1) % 5 != 0:
            raise InvalidMeshError(
                f"m = 1 (mod 5) required for 6-point panels, got m={self.m}; "
                f"next valid size is {next_valid_size(self.m)}"
            )

    @property
    def h(self) -> float:
        return self.b / (self.m - 1)

    @cached_property
    def x(self) -> np.ndarray:
        """Mesh points as a read-only array; x[0] = 0, x[-1] = b exactly."""
        pts = np.linspace(0.0, self.b, self.m)
        pts.flags.writeable = False
        return pts

    def index_of(self, x: float, tol: float = 1e-9) -> int:
        """Index of the mesh point closest to ``x``; raises if none is within tol*b."""
        r = float(x) / self.h
        if not math.isfinite(r):
            raise DomainError(f"x={x} is not a mesh point")
        i = int(round(r))
        i = min(max(i, 0), self.m - 1)
        if abs(self.x[i] - x) > tol * self.b:
            raise DomainError(f"x={x} is not a mesh point (nearest is {self.x[i]})")
        return i


@dataclass(frozen=True)
class GridFunction:
    """Real-valued samples on a :class:`UniformMesh`.

    Construction copies the data, checks it for non-finite entries and
    freezes it; instances are safe to share between threads.
    """

    mesh: UniformMesh
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float, copy=True)
        if v.shape != (self.mesh.m,):
            raise DomainError(
                f"expected {self.mesh.m} samples on the mesh, got shape {v.shape}"
            )
        if not np.isfinite(v).all():
            bad = int(np.flatnonzero(~np.isfinite(v))[0])
            raise DomainError(f"non-finite sample at index {bad} (x={self.mesh.x[bad]})")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def at_end(self) -> float:
        """Sample at x = b."""
        return float(self.values[-1])


def _cumulative_values(y: np.ndarray, h: float) -> np.ndarray:
    """Cumulative integral of samples ``y`` with step ``h`` (panel quintics).

    Works in the dtype of ``y`` (at least float64): the weights are the
    exact ratios rounded in that dtype, so longdouble samples keep their
    extra digits.
    """
    m = y.shape[0]
    if m < 6 or (m - 1) % 5 != 0:
        raise InvalidMeshError(f"cannot tile {m} points into 6-point panels")
    W = _cum_weights(np.result_type(y.dtype, np.float64))
    panels = np.lib.stride_tricks.sliding_window_view(y, 6)[::5]  # (P, 6)
    inc = h * (panels @ W.T)  # (P, 5) increments relative to panel start
    starts = np.concatenate((np.zeros(1, dtype=inc.dtype), np.cumsum(inc[:, 4])[:-1]))
    out = np.empty(m, dtype=inc.dtype)
    out[0] = 0.0
    out[1:] = (starts[:, None] + inc).ravel()
    return out


def cumulative_integral(f: GridFunction) -> GridFunction:
    """Indefinite integral F(x_i) ~ integral_0^{x_i} f with F(0) = 0.

    Within each 6-point panel the interpolating quintic is integrated
    exactly, so polynomial inputs of degree <= 5 are reproduced up to
    rounding; panels chain cumulatively.
    """
    return GridFunction(f.mesh, _cumulative_values(f.values, f.mesh.h))


def _cutoff_index(y: np.ndarray, slack: float) -> int:
    # The test is per window, so chunks of 32, 128, 512, ... windows are
    # screened in turn: the cut-off usually lies within the first few.
    m = y.shape[0]
    windows = np.lib.stride_tricks.sliding_window_view(y, 6)
    start, chunk = 0, 32
    while start < windows.shape[0]:
        w = windows[start : start + chunk]
        d5 = np.abs(w @ _DELTA5)
        second_smallest = np.partition(np.abs(w), 1, axis=1)[:, 1]
        hits = np.flatnonzero(d5 <= slack * second_smallest)
        if hits.size:
            return start + int(hits[0])
        start, chunk = start + chunk, 4 * chunk
    return m - 6


def cutoff_start_index(f: GridFunction | np.ndarray, slack: float = DEFAULT_CUTOFF_SLACK) -> int:
    """First index whose 6-tuple passes the fifth-difference screen.

    Scanning from index 0, a tuple (y_0..y_5) passes when
    |y_0 - 5 y_1 + 10 y_2 - 10 y_3 + 5 y_4 - y_5| <= slack * s, where s is
    the second-smallest of |y_0|..|y_5|.  All-zero tuples pass (0 <= 0).
    Returns m-6 when no tuple passes.
    """
    y = f.values if isinstance(f, GridFunction) else np.asarray(f, dtype=float)
    if y.shape[0] < 6:
        raise InvalidMeshError("cut-off scan needs at least 6 samples")
    return _cutoff_index(y, slack)


def _guarded_cumulative_values(y: np.ndarray, h: float, slack: float) -> tuple[np.ndarray, int]:
    cut = _cutoff_index(y, slack)
    if cut > 0:
        y = y.copy()
        y[:cut] = 0.0
    return _cumulative_values(y, h), cut


def cumulative_integral_guarded(
    f: GridFunction, slack: float = DEFAULT_CUTOFF_SLACK
) -> GridFunction:
    """Cumulative integral with corrupted leading samples zeroed first.

    This is the integration path for integrands containing a 1/u0^2
    factor, whose first few samples can be dominated by amplified
    rounding noise.  For smooth inputs the cut-off lands at index 0 and
    the result is identical to :func:`cumulative_integral`.
    """
    vals, _ = _guarded_cumulative_values(f.values, f.mesh.h, slack)
    return GridFunction(f.mesh, vals)
