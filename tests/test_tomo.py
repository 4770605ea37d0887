"""Geometry, ray tracing, phantom, noise and file formats."""

import dataclasses
import hashlib
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsenewton import (
    ExperimentConfig,
    TomoGeometry,
    add_noise,
    build_parallel_tomo,
    ray_cell_chords,
    shepp_logan,
    write_pgm,
)
from sparsenewton import tomo
from sparsenewton.experiment import build_instances

ROOT2 = np.sqrt(2.0)


def test_geometry_validation():
    with pytest.raises(ValueError, match=">= 1"):
        TomoGeometry(0, 4, 4)
    with pytest.raises(ValueError, match=">= 1"):
        TomoGeometry(4, 0, 4)
    with pytest.raises(ValueError, match="m must be an integer, got 12.5"):
        TomoGeometry(12.5, 6, 14)
    with pytest.raises(ValueError, match="spacing"):
        TomoGeometry(4, 4, 4, spacing=-1.0)
    with pytest.raises(ValueError, match="spacing must be a number, got 'a'"):
        TomoGeometry(4, 4, 4, spacing="a")


def test_geometry_and_noise_take_no_bool_for_a_number():
    for args, message in (((True, 2, 2), "m must be an integer, got True"),
                          ((2, 2, False), "n_beams must be an integer, got False"),
                          ((2, 2, 2, True), "spacing must be a number, got True")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            TomoGeometry(*args)
    with pytest.raises(ValueError, match="^rel_level must be a number, got True$"):
        add_noise(np.ones(3), True)


def test_geometry_properties():
    g = TomoGeometry(10, 4, 5)
    assert g.spacing is None  # m / n_beams = 2, resolved in beam_offsets
    np.testing.assert_allclose(dataclasses.replace(g, n_beams=2).beam_offsets, [-2.5, 2.5])
    np.testing.assert_allclose(TomoGeometry(10, 4, 5, spacing=0.7).beam_offsets,
                               [-1.4, -0.7, 0.0, 0.7, 1.4])
    assert g.n_rows == 20
    assert g.n_cols == 100
    np.testing.assert_allclose(g.angles_deg, [0.0, 45.0, 90.0, 135.0])
    offs = g.beam_offsets
    np.testing.assert_allclose(offs, [-4.0, -2.0, 0.0, 2.0, 4.0])
    assert abs(offs.mean()) < 1e-15


def test_noise_model_validation():
    with pytest.raises(ValueError, match="rel_level"):
        add_noise(np.ones(3), -0.1)
    with pytest.raises(ValueError, match="rel_level"):
        add_noise(np.ones(3), float("nan"))


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


# spacings 1, 0.5 and 0.25 put beams on grid lines and image edges
@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 9), half=st.integers(1, 6), n_beams=st.integers(1, 9),
       spacing=st.one_of(st.sampled_from([None, 1.0, 0.5, 0.25]), st.floats(0.05, 3.0)))
@example(m=128, half=90, n_beams=180, spacing=None)  # the 180-angle build at m = 128
def test_turned_angles_match_a_direct_trace(m, half, n_beams, spacing):
    # angle i + half is angle i turned by 90 degrees, and its rows are filled
    # from angle i's, not traced
    g = TomoGeometry(m, 2 * half, n_beams, spacing)
    A = build_parallel_tomo(g)
    for i in range(half, 2 * half):
        theta = np.deg2rad(g.angles_deg[i])
        w = (np.cos(theta), np.sin(theta))
        points = np.column_stack((g.beam_offsets * w[0], g.beam_offsets * w[1]))
        rays, cols, vals = ray_cell_chords(m, points, (-w[1], w[0]))
        rows = A.row_offsets[i * n_beams:(i + 1) * n_beams + 1]
        np.testing.assert_array_equal(np.diff(rows), np.bincount(rays, minlength=n_beams))
        np.testing.assert_array_equal(A.col_indices[rows[0]:rows[-1]], cols)
        np.testing.assert_allclose(A.values[rows[0]:rows[-1]], vals, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n_angles,traced", [(8, 4), (2, 1), (7, 7), (1, 1)])
def test_only_angles_below_90_degrees_are_traced(call_log, n_angles, traced):
    # with an odd number of angles none is another turned by 90 degrees
    calls = call_log(tomo, "ray_cell_chords")
    build_parallel_tomo(TomoGeometry(8, n_angles, 5))
    assert len(calls) == traced


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


def test_projector_refuses_a_geometry_over_the_nonzero_limit_before_allocating(monkeypatch):
    A = build_parallel_tomo(TomoGeometry(32, 60, 45))
    assert A.nnz <= 60 * 45 * 65  # the bound the limit is checked against
    tracemalloc.start()
    try:
        for geom in (TomoGeometry(10**6, 180, 180),
                     TomoGeometry(np.int32(10**6), np.int32(180), np.int32(180))):
            with pytest.raises(ValueError, match=r"^m = 1000000 .* 64800032400 nonzeros, "
                                                 r"over the limit of 50000000$"):
                build_parallel_tomo(geom)
        assert tracemalloc.get_traced_memory()[1] < 100_000
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(tomo, "MAX_NNZ_BOUND", 2 * 3 * 9)  # at the limit builds, over it not
    assert build_parallel_tomo(TomoGeometry(4, 2, 3)).nnz <= tomo.MAX_NNZ_BOUND
    with pytest.raises(ValueError, match="m = 4 with 3 angles and 3 beams may need 81"):
        build_parallel_tomo(TomoGeometry(4, 3, 3))


@pytest.mark.parametrize("m,n_angles,n_beams,nnz", [(64, 120, 90, 826_284),
                                                     (128, 180, 180, 4_957_304)])
def test_projector_build_fills_its_arrays_in_place(m, n_angles, n_beams, nnz):
    # the column indices (int32 here) and values are allocated once at the
    # nonzero bound and shrunk to nnz: no per-angle lists, no concatenation
    # and no int64 round trip, so the peak stays near 13 bytes per unit
    g = TomoGeometry(m, n_angles, n_beams)
    bound = g.n_angles * g.n_beams * (2 * g.m + 1)
    tracemalloc.start()
    try:
        A = build_parallel_tomo(g)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert A.col_indices.dtype == np.int32 and A.nnz == nnz
    assert peak <= 14 * bound
    assert held <= 12.5 * A.nnz


def test_projector_builds_under_a_profiler():
    # a profiler holds the bound method of the array being shrunk, which an
    # in-place resize with its reference check refuses
    g = TomoGeometry(16, 24, 20)
    plain = build_parallel_tomo(g)
    outer = sys.getprofile()
    sys.setprofile(lambda *args: None)
    try:
        profiled = build_parallel_tomo(g)
    finally:
        sys.setprofile(outer)
    for name in ("row_offsets", "col_indices", "values"):
        np.testing.assert_array_equal(getattr(profiled, name), getattr(plain, name))


@pytest.mark.parametrize("m", [46500, np.int32(46500)])
def test_projector_keeps_int64_indices_on_a_grid_wider_than_int32(m):
    # 46500^2 columns do not fit int32 (nor does m * m in numpy int32); one
    # ray, so no allocation of order n_cols
    A = build_parallel_tomo(TomoGeometry(m, 1, 1))
    assert A.n_cols == 2_162_250_000
    assert A.col_indices.dtype == np.int64
    assert A.nnz == 46500 and A.col_indices.max() == 2_162_226_750


def test_projection_mass_consistency():
    # beams at spacing 0.5 tile each view, so sum_k spacing * (A 1)_row
    # approximates the total area m^2 independently for every angle
    g = TomoGeometry(20, 8, 80, spacing=0.5)
    sums = build_parallel_tomo(g).matvec(np.ones(g.n_cols))
    per_angle = sums.reshape(g.n_angles, g.n_beams).sum(axis=1) * g.spacing
    np.testing.assert_allclose(per_angle, 400.0, rtol=2e-3)


@pytest.mark.parametrize("m,digest", [
    (32, "4e9b3c7928d55cfbfdc5ff38b654f80fd03cca88be5a930ca99a59b5a09ff6ff"),
    (51, "f6fdc7635de6e8822d41a9eb3d8081aa832d56f95cda04e4fac50a79707e52b0"),
    (64, "59de7bb33b3eeb89fc58d16cf0d870445a1372cabb391fb63a26dd8b8ab74b55"),
])
def test_phantom_bytes_are_pinned(m, digest):
    # every float of the ellipse table, and so every pixel, stays bit-for-bit
    assert hashlib.sha256(shepp_logan(m).tobytes()).hexdigest() == digest


def test_phantom_rasterizes_from_broadcast_coordinates():
    # a row and a column of pixel centers broadcast to m x m only in each
    # ellipse's rotated coordinates: measured 40.1 bytes a pixel at m = 256
    # and 512, where full coordinate grids took 72
    tracemalloc.start()
    try:
        shepp_logan(256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 44 * 256 * 256


def test_phantom_is_mostly_zero():
    img = shepp_logan(50)
    assert np.count_nonzero(img) == 1244  # under half of 2500


def test_phantom_rejects_empty_grid():
    with pytest.raises(ValueError, match=">= 1"):
        shepp_logan(0)


def test_phantom_checks_m_and_refuses_more_pixels_than_the_limit(tmp_path, monkeypatch):
    for m in (4.0, True):
        with pytest.raises(ValueError, match=f"^m must be an integer, got {m}$"):
            shepp_logan(m)
    # a small limit stands in for MAX_NNZ_BOUND, so that no run of this test,
    # with the check or without it, allocates a large image
    monkeypatch.setattr(tomo, "MAX_NNZ_BOUND", 147)  # 49 pixels: m = 7 at the limit, m = 8 over it
    assert shepp_logan(7).size == 49
    message = "^m = 8 gives 64 pixels, over the limit of 49$"
    with pytest.raises(ValueError, match=message):
        shepp_logan(np.int32(8))
    # one angle and one beam: the projector's bound 17 passes, the phantom's does not
    config = ExperimentConfig(TomoGeometry(8, 1, 1), ["fista"], out=str(tmp_path / "out"))
    with pytest.raises(ValueError, match=message):
        build_instances(config)


def test_add_noise_magnitude_is_exact():
    rng = np.random.default_rng(0)
    y = rng.standard_normal(40)
    y_delta, delta = add_noise(y, 0.1, seed=5)
    assert delta == pytest.approx(0.1 * np.linalg.norm(y), rel=1e-15)
    assert np.linalg.norm(y_delta - y) == pytest.approx(delta, rel=1e-12)


def test_add_noise_seed_determinism():
    y = np.linspace(1.0, 2.0, 30)
    a, _ = add_noise(y, 0.2, seed=7)
    b, _ = add_noise(y, 0.2, seed=7)
    c, _ = add_noise(y, 0.2, seed=8)
    np.testing.assert_array_equal(a, b)
    assert np.linalg.norm(a - c) > 0.0


def test_add_noise_zero_level_copies():
    y = np.ones(5)
    y_delta, delta = add_noise(y, 0.0)
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


def test_write_pgm_bytes_are_pinned(tmp_path):
    # every gray level goes through the string table; the file is pinned byte for byte
    path = tmp_path / "ramp.pgm"
    write_pgm(path, np.sin(np.arange(40 * 40) * 0.37) * np.arange(40 * 40), 40)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "62038ed6bddc52db95452bde973d462feb921cbf765e4199897d51bd38014a8e")
