"""Parallel-beam tomography test problem on a square pixel grid.

Geometry conventions (all lengths in pixel units):

* the image occupies [-m/2, m/2]^2; pixel (r, c) of the row-major image has
  its center at x = c + 0.5 - m/2, y = m/2 - r - 0.5 (row 0 on top);
* projection angles are equally spaced over [0, 180) degrees;
* the ray at angle theta with detector offset s passes through
  s * (cos t, sin t) with direction (-sin t, cos t), so offsets are measured
  perpendicular to the beam and the bundle is centered on the image;
* matrix entry (ray, pixel) is the exact chord length of the ray inside the
  pixel, from the sorted grid-line crossings of all rays of an angle at once
  (Siddon, Med. Phys. 1985); cells are half-open (bottom/left edges
  inclusive), so a ray running exactly along an interior grid line is charged
  to the cell above/right of it.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .linalg import SparseMatrix, as_vector

_MIN_CHORD = 1e-12


@dataclass(frozen=True)
class TomoGeometry:
    """Parallel-beam layout: m x m pixels, n_angles views, n_beams per view."""

    m: int
    n_angles: int
    n_beams: int
    detector_spacing: Optional[float] = None  # None: m / n_beams

    def __post_init__(self):
        for name in ("m", "n_angles", "n_beams"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if self.detector_spacing is not None and not 0.0 < self.detector_spacing < np.inf:
            raise ValueError(f"spacing must be finite and > 0, got {self.detector_spacing}")

    @property
    def spacing(self) -> float:
        return self.m / self.n_beams if self.detector_spacing is None else self.detector_spacing

    @property
    def n_rows(self) -> int:
        return self.n_angles * self.n_beams

    @property
    def n_cols(self) -> int:
        return self.m * self.m

    @property
    def angles_deg(self) -> np.ndarray:
        return np.arange(self.n_angles) * (180.0 / self.n_angles)

    @property
    def beam_offsets(self) -> np.ndarray:
        return (np.arange(self.n_beams) - 0.5 * (self.n_beams - 1)) * self.spacing


@dataclass(frozen=True)
class NoiseModel:
    """Relative Gaussian-direction noise: y_delta = y + rel_level ||y|| r, ||r|| = 1."""

    rel_level: float
    seed: int = 0

    def __post_init__(self):
        if not np.isfinite(self.rel_level) or self.rel_level < 0.0:
            raise ValueError("rel_level must be finite and >= 0")


@dataclass
class ProblemInstance:
    geometry: TomoGeometry
    A: SparseMatrix
    x_true: np.ndarray
    y: np.ndarray
    y_delta: np.ndarray
    delta: float


@lru_cache(maxsize=1)
def _ellipse_table() -> np.ndarray:
    ref = importlib.resources.files("sparsenewton").joinpath("data/shepp_logan.csv")
    with ref.open("rb") as fh:
        table = np.loadtxt(fh, delimiter=",", comments="#")
    if table.shape != (10, 6):
        raise RuntimeError(f"phantom table has shape {table.shape}, expected (10, 6)")
    return table


def shepp_logan(m: int) -> np.ndarray:
    """Rasterize the phantom at the m x m pixel centers; returns a flat image.

    Densities are summed over the ellipses containing each center, with the
    table's unit square mapped onto the image extent.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    centers = (np.arange(m) + 0.5) * (2.0 / m) - 1.0
    xg, yg = np.meshgrid(centers, -centers)  # row 0 on top
    img = np.zeros((m, m))
    for density, a, b, x0, y0, phi_deg in _ellipse_table():
        phi = np.deg2rad(phi_deg)
        dx, dy = xg - x0, yg - y0
        xr = dx * np.cos(phi) + dy * np.sin(phi)
        yr = -dx * np.sin(phi) + dy * np.cos(phi)
        img += density * ((xr / a) ** 2 + (yr / b) ** 2 <= 1.0)
    return img.ravel()


def ray_cell_chords(m: int, points, direction):
    """Chord lengths of parallel rays through the m x m grid.

    points is a (k, 2) array with one point on each ray, image coordinates
    (origin at the center); direction is the rays' shared direction, not
    necessarily normalized, with components below 1e-12 in magnitude snapped
    to zero so axis-aligned rays stay exact under rotation round-off.  Returns
    (rays, cols, lengths): for each chord the index of its ray in points, its
    flat row-major pixel index and its length, ray by ray and in order along
    direction.  Row k of the one array pass holds ray k's entry and exit
    parameters t_lo, t_hi and its grid-line crossings; crossings outside
    (t_lo, t_hi), and t_lo of a ray that misses, become t_hi, so sorted rows
    end in zero-length segments, which the chord-length floor drops.  A ray
    parallel to an axis crosses no lines of it: if it runs outside the grid,
    its cells fall outside the grid and the cell range check drops them.
    """
    h = 0.5 * m
    dx, dy = (float(c) for c in direction)
    if abs(dx) < 1e-12:
        dx = 0.0
    if abs(dy) < 1e-12:
        dy = 0.0
    norm = np.hypot(dx, dy)
    if norm == 0.0:
        raise ValueError("ray direction must be nonzero")
    dx, dy = dx / norm, dy / norm
    px, py = np.asarray(points, dtype=np.float64).T

    t_lo = np.full(px.shape, -np.inf)
    t_hi = np.full(px.shape, np.inf)
    levels = np.arange(m + 1) - h
    crossings = []
    for coord, slope in ((px, dx), (py, dy)):
        if slope != 0.0:
            t1 = (-h - coord) / slope
            t2 = (h - coord) / slope
            t_lo = np.maximum(t_lo, np.minimum(t1, t2))
            t_hi = np.minimum(t_hi, np.maximum(t1, t2))
            crossings.append((levels - coord[:, None]) / slope)
    t_lo = np.where(t_hi > t_lo, t_lo, t_hi)
    tc = np.concatenate(crossings, axis=1)
    tc = np.where((tc > t_lo[:, None]) & (tc < t_hi[:, None]), tc, t_hi[:, None])
    ts = np.sort(np.column_stack((t_lo, t_hi, tc)), axis=1)
    lengths = np.diff(ts, axis=1)
    mids = 0.5 * (ts[:, :-1] + ts[:, 1:])
    ix = np.floor(px[:, None] + mids * dx + h).astype(np.int64)
    iy = np.floor(py[:, None] + mids * dy + h).astype(np.int64)
    keep = (lengths > _MIN_CHORD) & (ix >= 0) & (ix < m) & (iy >= 0) & (iy < m)
    return np.nonzero(keep)[0], (m - 1 - iy[keep]) * m + ix[keep], lengths[keep]


def build_parallel_tomo(geom: TomoGeometry) -> SparseMatrix:
    """Assemble the projection matrix; ray (i, k) maps to row i * n_beams + k."""
    offsets = geom.beam_offsets
    counts, cols, vals = [], [], []
    for theta in np.deg2rad(geom.angles_deg):
        w = (np.cos(theta), np.sin(theta))
        points = np.column_stack((offsets * w[0], offsets * w[1]))
        rays, angle_cols, angle_vals = ray_cell_chords(geom.m, points, (-w[1], w[0]))
        counts.append(np.bincount(rays, minlength=geom.n_beams))  # holds no ray indices
        cols.append(angle_cols)
        vals.append(angle_vals)
    row_offsets = np.concatenate(([0], np.cumsum(np.concatenate(counts))))
    return SparseMatrix(geom.n_rows, geom.n_cols, row_offsets, np.concatenate(cols),
                        np.concatenate(vals))


def add_noise(y, model: NoiseModel):
    """Returns (y_delta, delta) with delta = rel_level * ||y||_2 exactly."""
    y = as_vector(y)
    if model.rel_level == 0.0:
        return y.copy(), 0.0
    rng = np.random.default_rng(model.seed)
    r = rng.standard_normal(y.size)
    r /= np.linalg.norm(r)
    delta = model.rel_level * float(np.linalg.norm(y))
    return y + delta * r, delta


def make_instance(geom: TomoGeometry, noise: NoiseModel) -> ProblemInstance:
    """Phantom, projection matrix and noisy sinogram for one experiment cell."""
    A = build_parallel_tomo(geom)
    x_true = shepp_logan(geom.m)
    y = A.matvec(x_true)
    y_delta, delta = add_noise(y, noise)
    return ProblemInstance(geom, A, x_true, y, y_delta, delta)


def write_pgm(path, image, m: int):
    """Plain PGM (P2, maxval 255), row-major, linear min-max scaling."""
    img = np.asarray(image, dtype=np.float64).reshape(m, m)
    lo, hi = float(img.min()), float(img.max())
    if hi > lo:
        pixels = np.rint((img - lo) / (hi - lo) * 255.0).astype(np.int64)
    else:
        pixels = np.zeros((m, m), dtype=np.int64)
    flat = pixels.ravel()
    lines = ["P2", f"{m} {m}", "255"]
    for start in range(0, flat.size, 17):  # <= 70 chars per line
        lines.append(" ".join(str(v) for v in flat[start:start + 17]))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
