"""Geometry, ray tracing, phantom, noise and file formats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsenewton import (
    NoiseModel,
    TomoGeometry,
    add_noise,
    build_parallel_tomo,
    make_instance,
    ray_cell_chords,
    shepp_logan,
    write_pgm,
)

ROOT2 = np.sqrt(2.0)


def test_geometry_validation():
    with pytest.raises(ValueError, match=">= 1"):
        TomoGeometry(0, 4, 4)
    with pytest.raises(ValueError, match=">= 1"):
        TomoGeometry(4, 0, 4)
    with pytest.raises(ValueError, match="m must be an integer >= 1, got 12.5"):
        TomoGeometry(12.5, 6, 14)
    with pytest.raises(ValueError, match="spacing"):
        TomoGeometry(4, 4, 4, detector_spacing=-1.0)


def test_geometry_properties():
    g = TomoGeometry(10, 4, 5)
    assert g.spacing == 2.0  # m / n_beams
    assert TomoGeometry(10, 4, 5, detector_spacing=0.7).spacing == 0.7
    assert g.n_rows == 20
    assert g.n_cols == 100
    np.testing.assert_allclose(g.angles_deg, [0.0, 45.0, 90.0, 135.0])
    offs = g.beam_offsets
    np.testing.assert_allclose(offs, [-4.0, -2.0, 0.0, 2.0, 4.0])
    assert abs(offs.mean()) < 1e-15


def test_noise_model_validation():
    with pytest.raises(ValueError, match="rel_level"):
        NoiseModel(-0.1)
    with pytest.raises(ValueError, match="rel_level"):
        NoiseModel(float("nan"))


def test_horizontal_ray_unit_chords():
    _, cols, vals = ray_cell_chords(6, [(0.0, 1.5)], (1.0, 0.0))
    np.testing.assert_array_equal(np.sort(cols), [6, 7, 8, 9, 10, 11])
    np.testing.assert_array_equal(vals, np.ones(6))


def test_diagonal_ray_chords():
    _, cols, vals = ray_cell_chords(4, [(0.0, 0.0)], (1.0, 1.0))
    np.testing.assert_array_equal(cols, [12, 9, 6, 3])
    np.testing.assert_allclose(vals, ROOT2, rtol=1e-14)


def test_ray_missing_the_grid():
    _, cols, vals = ray_cell_chords(6, [(0.0, 100.0)], (1.0, 0.0))
    assert cols.size == 0 and vals.size == 0


def test_tiny_direction_component_is_snapped():
    _, cols, vals = ray_cell_chords(4, [(0.0, 1.5)], (1.0, 1e-15))
    np.testing.assert_array_equal(np.sort(cols), [0, 1, 2, 3])
    np.testing.assert_array_equal(vals, np.ones(4))


def test_edge_rays_follow_half_open_convention():
    # top edge y = +h excluded, bottom edge y = -h included
    _, cols, _ = ray_cell_chords(4, [(0.0, 2.0)], (1.0, 0.0))
    assert cols.size == 0
    _, cols, vals = ray_cell_chords(4, [(0.0, -2.0)], (1.0, 0.0))
    np.testing.assert_array_equal(np.sort(cols), [12, 13, 14, 15])
    np.testing.assert_array_equal(vals, np.ones(4))


def test_zero_direction_rejected():
    with pytest.raises(ValueError, match="nonzero"):
        ray_cell_chords(4, [(0.0, 0.0)], (0.0, 0.0))


def test_projection_rows_match_single_rays():
    g = TomoGeometry(6, 3, 5)
    A = build_parallel_tomo(g)
    for i, theta in enumerate(np.deg2rad(g.angles_deg)):
        w = (np.cos(theta), np.sin(theta))
        for k, s in enumerate(g.beam_offsets):
            _, cols, vals = ray_cell_chords(g.m, [(s * w[0], s * w[1])], (-w[1], w[0]))
            row = i * g.n_beams + k
            lo, hi = A.row_offsets[row], A.row_offsets[row + 1]
            np.testing.assert_array_equal(A.col_indices[lo:hi], cols)
            np.testing.assert_array_equal(A.values[lo:hi], vals)


def reference_chords(m, point, direction):
    """One ray walked on its own, as the projector was first built; the
    bundled ray_cell_chords must give each ray exactly these arrays."""
    h = 0.5 * m
    dx, dy = (float(c) for c in direction)
    if abs(dx) < 1e-12:
        dx = 0.0
    if abs(dy) < 1e-12:
        dy = 0.0
    norm = np.hypot(dx, dy)
    dx, dy = dx / norm, dy / norm
    px, py = float(point[0]), float(point[1])
    empty = np.zeros(0, dtype=np.int64), np.zeros(0)

    t_lo, t_hi = -np.inf, np.inf
    for coord, slope in ((px, dx), (py, dy)):
        if slope == 0.0:
            if not (-h <= coord < h):
                return empty
        else:
            t1 = (-h - coord) / slope
            t2 = (h - coord) / slope
            t_lo = max(t_lo, min(t1, t2))
            t_hi = min(t_hi, max(t1, t2))
    if not t_hi > t_lo:
        return empty

    levels = np.arange(m + 1) - h
    crossings = [np.array([t_lo, t_hi])]
    for coord, slope in ((px, dx), (py, dy)):
        if slope != 0.0:
            tc = (levels - coord) / slope
            crossings.append(tc[(tc > t_lo) & (tc < t_hi)])
    ts = np.sort(np.concatenate(crossings))
    lengths = np.diff(ts)
    mids = 0.5 * (ts[:-1] + ts[1:])
    ix = np.floor(px + mids * dx + h).astype(np.int64)
    iy = np.floor(py + mids * dy + h).astype(np.int64)
    keep = (lengths > 1e-12) & (ix >= 0) & (ix < m) & (iy >= 0) & (iy < m)
    return (m - 1 - iy[keep]) * m + ix[keep], lengths[keep]


# direction components: unit-scale, exactly zero, or below the 1e-12 snap
components = st.one_of(st.floats(-2.0, 2.0, allow_nan=False), st.just(0.0),
                       st.floats(-1e-12, 1e-12, allow_nan=False))


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 9), direction=st.tuples(components, components),
       points=st.lists(st.tuples(st.floats(-8.0, 8.0), st.floats(-8.0, 8.0)),
                       min_size=1, max_size=6),
       on_grid_lines=st.booleans())
def test_bundled_rays_match_the_one_ray_reference(m, direction, points, on_grid_lines):
    if max(abs(c) for c in direction) < 1e-12:
        direction = (1.0, direction[1])  # a zero direction is rejected
    if on_grid_lines:  # points on grid lines and the image edges
        points = [(round(x) + (0.5 * m) % 1, round(y) + (0.5 * m) % 1) for x, y in points]
    rays, cols, vals = ray_cell_chords(m, points, direction)
    assert np.all(np.diff(rays) >= 0)
    for k, point in enumerate(points):
        want_cols, want_vals = reference_chords(m, point, direction)
        np.testing.assert_array_equal(cols[rays == k], want_cols)
        np.testing.assert_array_equal(vals[rays == k], want_vals)


def test_projection_entry_and_row_sum_bounds():
    A = build_parallel_tomo(TomoGeometry(16, 12, 20))
    assert A.values.max() <= ROOT2 * (1 + 1e-12)
    row_sums = A.matvec(np.ones(A.n_cols))
    assert row_sums.max() <= 16.0 * ROOT2


def test_projection_mass_consistency():
    # beams at spacing 0.5 tile each view, so sum_k spacing * (A 1)_row
    # approximates the total area m^2 independently for every angle
    g = TomoGeometry(20, 8, 80, detector_spacing=0.5)
    sums = build_parallel_tomo(g).matvec(np.ones(g.n_cols))
    per_angle = sums.reshape(g.n_angles, g.n_beams).sum(axis=1) * g.spacing
    np.testing.assert_allclose(per_angle, 400.0, rtol=2e-3)


def test_phantom_values():
    img = shepp_logan(51)
    assert img[25 * 51 + 25] == pytest.approx(1.02, abs=1e-12)
    for corner in (0, 50, 51 * 50, 51 * 51 - 1):
        assert img[corner] == 0.0
    assert img.min() >= 0.0 and img.max() <= 2.0


def test_phantom_is_mostly_zero():
    img = shepp_logan(50)
    assert np.count_nonzero(img) == 1244  # under half of 2500


def test_phantom_rejects_empty_grid():
    with pytest.raises(ValueError, match=">= 1"):
        shepp_logan(0)


def test_add_noise_magnitude_is_exact():
    rng = np.random.default_rng(0)
    y = rng.standard_normal(40)
    y_delta, delta = add_noise(y, NoiseModel(0.1, seed=5))
    assert delta == pytest.approx(0.1 * np.linalg.norm(y), rel=1e-15)
    assert np.linalg.norm(y_delta - y) == pytest.approx(delta, rel=1e-12)


def test_add_noise_seed_determinism():
    y = np.linspace(1.0, 2.0, 30)
    a, _ = add_noise(y, NoiseModel(0.2, seed=7))
    b, _ = add_noise(y, NoiseModel(0.2, seed=7))
    c, _ = add_noise(y, NoiseModel(0.2, seed=8))
    np.testing.assert_array_equal(a, b)
    assert np.linalg.norm(a - c) > 0.0


def test_add_noise_zero_level_copies():
    y = np.ones(5)
    y_delta, delta = add_noise(y, NoiseModel(0.0))
    assert delta == 0.0
    np.testing.assert_array_equal(y_delta, y)
    assert y_delta is not y


def test_write_pgm_format(tmp_path):
    path = tmp_path / "img.pgm"
    write_pgm(path, np.arange(9, dtype=float), 3)
    lines = path.read_text().splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "3 3"
    assert lines[2] == "255"
    pixels = [int(v) for line in lines[3:] for v in line.split()]
    assert len(pixels) == 9
    assert pixels[0] == 0 and pixels[-1] == 255
    assert all(0 <= v <= 255 for v in pixels)
    assert max(len(line) for line in lines) <= 70


def test_write_pgm_constant_image(tmp_path):
    path = tmp_path / "flat.pgm"
    write_pgm(path, np.full(16, 3.7), 4)
    pixels = [int(v) for line in path.read_text().splitlines()[3:] for v in line.split()]
    assert pixels == [0] * 16


def test_instance_roundtrip():
    inst = make_instance(TomoGeometry(8, 4, 10), NoiseModel(0.1, seed=3))
    np.testing.assert_array_equal(inst.y, inst.A.matvec(inst.x_true))
    assert inst.delta == pytest.approx(0.1 * np.linalg.norm(inst.y), rel=1e-15)
