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
  to the cell above/right of it;
* with an even number of angles, the rows of [90, 180) degrees are those of
  [0, 90) turned by 90 degrees, which takes pixel (r, c) to (m - 1 - c, r)
  and a vertical ray on a grid line, charged to the cell right of it, to a
  horizontal one charged to the cell above; so only [0, 90) is traced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import SparseMatrix, as_vector, check_number

_MIN_CHORD = 1e-12
# A ray crosses at most 2m + 1 cells, so n_angles * n_beams * (2m + 1) bounds
# nnz.  The build peaks near 13 bytes per unit of that bound (12.9 at m=64 and
# 12.6 at m=128, where nnz is 0.59 of it, under tracemalloc), so this limit
# caps the build near 650 MB.  shepp_logan refuses more than MAX_NNZ_BOUND
# pixels: with one angle and one beam the bound above passes at m = 50,000,
# where each of the phantom's m x m arrays would take 18.6 GiB.  The phantom
# peaks near 40 bytes a pixel under tracemalloc (at m = 256 and 512), so
# 2.0 GB at this limit.
MAX_NNZ_BOUND = 50_000_000


@dataclass(frozen=True)
class TomoGeometry:
    """Parallel-beam layout: m x m pixels, n_angles views, n_beams per view,
    spacing between neighboring beams (None: m / n_beams, so the beams span
    the image width)."""

    m: int
    n_angles: int
    n_beams: int
    # None is resolved in beam_offsets, not stored: dataclasses.replace would
    # carry a stored default over to a geometry with another m or n_beams
    spacing: Optional[float] = None

    def __post_init__(self):
        for name in ("m", "n_angles", "n_beams"):
            check_number(name, getattr(self, name), 1, integer=True)
        if self.spacing is not None:
            check_number("spacing", self.spacing, 0, False)

    @property
    def n_rows(self) -> int:
        return int(self.n_angles) * int(self.n_beams)  # numpy integer fields would wrap

    @property
    def n_cols(self) -> int:
        return int(self.m) * int(self.m)

    @property
    def angles_deg(self) -> np.ndarray:
        return np.arange(self.n_angles) * (180.0 / self.n_angles)

    @property
    def beam_offsets(self) -> np.ndarray:
        spacing = self.m / self.n_beams if self.spacing is None else self.spacing
        return (np.arange(self.n_beams) - 0.5 * (self.n_beams - 1)) * spacing


@dataclass
class ProblemInstance:
    A: SparseMatrix
    x_true: np.ndarray
    y_delta: np.ndarray
    delta: float


# Shepp-Logan head phantom, the standard (not contrast-enhanced) 10 ellipses:
# density, semi-axes a and b, center x and y in the square [-1, 1]^2, and
# rotation in degrees.
SHEPP_LOGAN_ELLIPSES = (
    (2.0, 0.69, 0.92, 0.0, 0.0, 0.0),
    (-0.98, 0.6624, 0.8740, 0.0, -0.0184, 0.0),
    (-0.02, 0.1100, 0.3100, 0.22, 0.0, -18.0),
    (-0.02, 0.1600, 0.4100, -0.22, 0.0, 18.0),
    (0.01, 0.2100, 0.2500, 0.0, 0.35, 0.0),
    (0.01, 0.0460, 0.0460, 0.0, 0.1, 0.0),
    (0.02, 0.0460, 0.0460, 0.0, -0.1, 0.0),
    (0.01, 0.0460, 0.0230, -0.08, -0.605, 0.0),
    (0.01, 0.0230, 0.0230, 0.0, -0.606, 0.0),
    (0.01, 0.0230, 0.0460, 0.06, -0.605, 0.0),
)


def shepp_logan(m: int) -> np.ndarray:
    """Rasterize the phantom at the m x m pixel centers; returns a flat image.

    Densities are summed over the ellipses containing each center, with the
    table's unit square mapped onto the image extent.  An m with more than
    MAX_NNZ_BOUND pixels is refused before anything is allocated.
    """
    check_number("m", m, 1, integer=True)
    if int(m) ** 2 > MAX_NNZ_BOUND:  # a Python int: no numpy wrap
        raise ValueError(f"m = {m} gives {int(m) ** 2} pixels, over the limit of {MAX_NNZ_BOUND}")
    centers = (np.arange(m) + 0.5) * (2.0 / m) - 1.0
    xg, yg = centers[None, :], -centers[:, None]  # broadcast to m x m; row 0 on top
    img = np.zeros((m, m))
    for density, a, b, x0, y0, phi_deg in SHEPP_LOGAN_ELLIPSES:
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
    """Assemble the projection matrix; ray (i, k) maps to row i * n_beams + k.

    With an even n_angles, the rows of angle i + n_angles / 2 (in [90, 180)
    degrees) are the rows of angle i turned by 90 degrees: the same entries
    in the same order, each pixel (r, c) moved to (m - 1 - c, r).  They agree
    with a direct trace up to round-off in the chord lengths.

    A geometry whose nonzero bound n_angles * n_beams * (2m + 1) exceeds
    MAX_NNZ_BOUND is refused before anything is allocated.
    """
    bound = geom.n_rows * (2 * int(geom.m) + 1)  # Python ints: no numpy wrap
    if bound > MAX_NNZ_BOUND:
        raise ValueError(f"m = {geom.m} with {geom.n_angles} angles and {geom.n_beams} beams "
                         f"may need {bound} nonzeros, over the limit of {MAX_NNZ_BOUND}")
    m, n_beams = int(geom.m), int(geom.n_beams)
    # scipy keeps int32 indices, uncopied, while the shape and nnz fit them
    index_type = np.int32 if max(geom.n_cols, bound) <= np.iinfo(np.int32).max else np.int64
    # Filled at a running offset, angle by angle, then shrunk in place to nnz:
    # no per-angle lists to concatenate and no second copy of the entries.
    row_offsets = np.zeros(geom.n_rows + 1, dtype=index_type)
    cols = np.empty(bound, dtype=index_type)
    vals = np.empty(bound)
    nnz = 0
    offsets = geom.beam_offsets
    # angle i + half, if there is one, is angle i turned by 90 degrees
    half = int(geom.n_angles) // 2 if geom.n_angles % 2 == 0 else 0
    traced = int(geom.n_angles) - half
    for i, theta in enumerate(np.deg2rad(geom.angles_deg[:traced])):
        w = (np.cos(theta), np.sin(theta))
        points = np.column_stack((offsets * w[0], offsets * w[1]))
        rays, angle_cols, angle_vals = ray_cell_chords(m, points, (-w[1], w[0]))
        row_offsets[1 + i * n_beams:1 + (i + 1) * n_beams] = np.bincount(rays, minlength=n_beams)
        cols[nnz:nnz + angle_cols.size] = angle_cols
        vals[nnz:nnz + angle_vals.size] = angle_vals
        nnz += angle_vals.size
    row_offsets[1 + traced * n_beams:] = row_offsets[1:1 + half * n_beams]
    np.cumsum(row_offsets, out=row_offsets)
    # one angle at a time, so the temporaries stay one angle's size
    for i in range(half):
        lo, hi = row_offsets[i * n_beams], row_offsets[(i + 1) * n_beams]
        r, c = np.divmod(cols[lo:hi], m)
        cols[nnz + lo:nnz + hi] = (m - 1 - c) * m + r
        vals[nnz + lo:nnz + hi] = vals[lo:hi]
    nnz = int(row_offsets[-1])
    # refcheck=False: no view of cols or vals outlives its slice assignment,
    # and an active profiler or tracer holds references that fail the check
    cols.resize(nnz, refcheck=False)
    vals.resize(nnz, refcheck=False)
    return SparseMatrix(geom.n_rows, geom.n_cols, row_offsets, cols, vals)


def add_noise(y, rel_level: float, seed: int = 0):
    """Relative Gaussian-direction noise: returns (y_delta, delta) with
    y_delta = y + delta r, r a unit vector drawn from seed, and
    delta = rel_level * ||y||_2 exactly."""
    check_number("rel_level", rel_level, 0)
    y = as_vector(y)
    if rel_level == 0.0:
        return y.copy(), 0.0
    rng = np.random.default_rng(seed)
    r = rng.standard_normal(y.size)
    r /= np.linalg.norm(r)
    delta = rel_level * float(np.linalg.norm(y))
    return y + delta * r, delta


# The text of each gray level: pixels are formatted by lookup, not one str()
# per numpy scalar.
_PGM_LEVELS = tuple(str(v) for v in range(256))


def write_pgm(path, image, m: int):
    """Plain PGM (P2, maxval 255), row-major, linear min-max scaling."""
    img = np.asarray(image, dtype=np.float64).reshape(m, m)
    lo, hi = float(img.min()), float(img.max())
    if hi > lo:
        pixels = np.rint((img - lo) / (hi - lo) * 255.0).astype(np.int64)
    else:
        pixels = np.zeros((m, m), dtype=np.int64)
    words = [_PGM_LEVELS[v] for v in pixels.ravel().tolist()]
    lines = ["P2", f"{m} {m}", "255"]
    for start in range(0, len(words), 17):  # <= 70 chars per line
        lines.append(" ".join(words[start:start + 17]))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
