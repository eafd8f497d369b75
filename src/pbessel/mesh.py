"""Uniform meshes and the cumulative quadrature engine.

Every grid function in the library lives on a uniform mesh over [0, b]
whose point count satisfies m = 1 (mod 5), so that the mesh tiles exactly
into panels of six points (five intervals).  The indefinite integral of a
sampled function is computed panel by panel: the six samples of a panel
are interpolated by a quintic and the exact antiderivative of that
quintic supplies the five interior increments.  Polynomials of degree
up to five therefore integrate exactly up to rounding, and the rule is
globally of sixth order for smooth integrands.  All panels go through
one matrix product, a strided (P, 6) view of the samples times the
(6, 5) weights, written straight into the result row (the caller's own
row when it passes one, else a fresh one) and then chained in that row:
one left-to-right running sum turns the panel-end column into the panel
ends, and one add per other increment column shifts it by the preceding
panel end.  Every sum keeps that order, so the chained values are the
bits of a plain running sum.

Integrands that contain a 1/u0^2 factor are corrupted near the origin
(small absolute errors are amplified by the division).  Those are
integrated through the guarded path: a fifth-difference screen locates
the first six-tuple of consecutive values that looks like a smooth
sample set, and everything before it is replaced by zero, in place: the
private kernel takes a scratch row, and the public function hands it a
copy.
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
# The cached matrix is stored transposed, (6, 5) and C-contiguous, so a
# block of panels (P, 6) maps onto its five increments (P, 5) by one
# matmul.  With two or more panels that matrix product gives the same
# bits as with the F-ordered view ``W.T`` (OpenBLAS dgemm, measured) in
# about half the time; a single panel (m = 6) is a vector product, whose
# summation order follows the layout, and may differ in the last bit.
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
    """The transposed (6, 5) weight matrix in ``dtype``: each exact ratio rounded once."""
    w = np.ascontiguousarray((np.array(_CUM_W_NUM, dtype=dtype) / dtype.type(_CUM_W_DEN)).T)
    w.flags.writeable = False
    return w


# Fifth finite difference y0 - 5 y1 + 10 y2 - 10 y3 + 5 y4 - y5.
_DELTA5 = np.array([1.0, -5.0, 10.0, -10.0, 5.0, -1.0])

#: Slack factor T of the cut-off criterion: a six-tuple passes when
#: |Delta_5| <= T * (second smallest absolute value in the tuple).
DEFAULT_CUTOFF_SLACK = 100.0

#: :meth:`UniformMesh.index_of` accepts a point within this fraction of b.
_INDEX_TOL = 1e-9


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

    def grid(self, dtype=np.float64) -> tuple[np.ndarray, np.floating]:
        """(x, h) in ``dtype``: the points of :attr:`x` cast exactly, h = b/(m-1) rounded in it."""
        return self.x.astype(dtype, copy=False), np.dtype(dtype).type(self.b) / (self.m - 1)

    @cached_property
    def x(self) -> np.ndarray:
        """Mesh points as a read-only array; x[0] = 0, x[-1] = b exactly."""
        pts = np.linspace(0.0, self.b, self.m)
        pts.flags.writeable = False
        return pts

    def index_of(self, x: float) -> int:
        """Index of the mesh point closest to ``x``; raises if none is within ``_INDEX_TOL`` * b."""
        r = float(x) / self.h
        if not math.isfinite(r):
            raise DomainError(f"x={x} is not a mesh point")
        i = int(round(r))
        i = min(max(i, 0), self.m - 1)
        if abs(self.x[i] - x) > _INDEX_TOL * self.b:
            raise DomainError(f"x={x} is not a mesh point (nearest is {self.x[i]})")
        return i


@dataclass(frozen=True)
class GridFunction:
    """Real-valued samples on a :class:`UniformMesh`.

    Construction copies the data into float64 (longdouble stays longdouble),
    checks it for non-finite entries and freezes it; safe to share between threads.
    """

    mesh: UniformMesh
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=_sample_dtype(self.values), copy=True)
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


def _sample_dtype(values) -> type:
    """The dtype samples are kept in: longdouble for a longdouble input, else float64."""
    return np.longdouble if getattr(values, "dtype", None) == np.longdouble else np.float64


def _windows(y: np.ndarray, step: int) -> np.ndarray:
    """Read-only (k, 6) view of the six-point windows of ``y`` starting every ``step`` samples.

    A non-contiguous ``y`` is copied once; the view is then an ``np.ndarray``
    over its buffer, a few microseconds cheaper per call than ``as_strided``.
    """
    y = np.ascontiguousarray(y)
    s = y.itemsize
    w = np.ndarray(((y.shape[0] - 6) // step + 1, 6), y.dtype, y, 0, (step * s, s))
    w.flags.writeable = False
    return w


def _cumulative_values(y: np.ndarray, h: float, out: np.ndarray | None = None) -> np.ndarray:
    """Cumulative integral of samples ``y`` with step ``h`` (panel quintics).

    Works in the dtype of ``y`` (at least float64): the weights are the
    exact ratios rounded in that dtype, so longdouble samples keep their
    extra digits.  The five increments of every panel are written
    straight into the output and scaled by ``h``.  One sequential
    left-to-right sum, in place, makes the panel-end column the running
    panel ends; each of the other four columns then adds the preceding
    panel's end in one call (a broadcast add over the (P, 5) block runs an
    inner loop five elements long, and is slower).  The first panel adds
    its start, +0.0, last, so a -0.0 increment there reads +0.0 while the
    second panel is shifted by the unshifted first end, as in a running sum.
    ``out``, if given, is a contiguous row of that dtype and length that
    does not overlap ``y``; it is filled and returned, with the same bits
    as a fresh result.
    """
    m = y.shape[0]
    if m < 6 or (m - 1) % 5 != 0:
        raise InvalidMeshError(f"cannot tile {m} points into 6-point panels")
    Wt = _cum_weights(np.result_type(y.dtype, np.float64))
    if out is None:  # zeroed unless float64: nothing writes longdouble's padding bytes
        dtype = np.result_type(Wt.dtype, h)
        out = (np.empty if dtype == np.float64 else np.zeros)(m, dtype=dtype)
    out[0] = 0.0
    inc = out[1:].reshape(-1, 5)  # (P, 5) increments relative to panel start
    np.matmul(_windows(y, 5), Wt, out=inc)
    inc *= h
    ends = inc[:, 4]
    np.add.accumulate(ends, out=ends)  # np.cumsum's own loop, in place: the panel ends
    for k in range(4):
        col = inc[1:, k]
        np.add(col, ends[:-1], out=col)
    inc[0] += 0.0  # the first panel's start, after the second panel read its end
    return out


def cumulative_integral(f: GridFunction) -> GridFunction:
    """Indefinite integral F(x_i) ~ integral_0^{x_i} f with F(0) = 0.

    Within each 6-point panel the interpolating quintic is integrated
    exactly, so polynomial inputs of degree <= 5 are reproduced up to
    rounding; panels chain cumulatively.
    """
    return GridFunction(f.mesh, _cumulative_values(f.values, f.mesh.grid(f.values.dtype)[1]))


def _cutoff_index(y: np.ndarray, slack: float) -> int:
    # The test is per window, so chunks of 32, 128, 512, ... windows are
    # screened in turn: the cut-off usually lies within the first few.
    m = y.shape[0]
    windows = _windows(y, 1)
    start, chunk = 0, 32
    while start < windows.shape[0]:
        w = windows[start : start + chunk]
        ok = np.abs(w @ _DELTA5) <= slack * np.sort(np.abs(w))[:, 1]  # |y| second smallest
        i = int(ok.argmax())  # the first passing window, if any passes
        if ok[i]:
            return start + i
        start, chunk = start + chunk, 4 * chunk
    return m - 6


def cutoff_start_index(f: GridFunction | np.ndarray) -> int:
    """First index whose 6-tuple passes the fifth-difference screen.

    Scanning from index 0, a tuple (y_0..y_5) passes when
    |y_0 - 5 y_1 + 10 y_2 - 10 y_3 + 5 y_4 - y_5| <= T * s, where
    T = ``DEFAULT_CUTOFF_SLACK`` and s is the second-smallest of
    |y_0|..|y_5|.  All-zero tuples pass (0 <= 0).  Returns m-6 when no
    tuple passes.
    """
    y = f.values if isinstance(f, GridFunction) else np.asarray(f, dtype=float)
    if y.shape[0] < 6:
        raise InvalidMeshError("cut-off scan needs at least 6 samples")
    return _cutoff_index(y, DEFAULT_CUTOFF_SLACK)


def _guarded_cumulative_values(
    y: np.ndarray, h: float, out: np.ndarray | None = None
) -> tuple[np.ndarray, int]:
    """Cumulative integral of ``y`` after zeroing its cut-off prefix, and the cut-off index.

    The prefix is zeroed in place, so ``y`` must be a writeable scratch row;
    ``out`` is as in :func:`_cumulative_values`.
    """
    cut = _cutoff_index(y, DEFAULT_CUTOFF_SLACK)
    if cut > 0:
        y[:cut] = 0.0
    return _cumulative_values(y, h, out), cut


def cumulative_integral_guarded(f: GridFunction) -> GridFunction:
    """Cumulative integral with corrupted leading samples zeroed first.

    This is the integration path for integrands containing a 1/u0^2
    factor, whose first few samples can be dominated by amplified
    rounding noise.  For smooth inputs the cut-off lands at index 0 and
    the result is identical to :func:`cumulative_integral`.
    """
    vals, _ = _guarded_cumulative_values(f.values.copy(), f.mesh.grid(f.values.dtype)[1])
    return GridFunction(f.mesh, vals)
