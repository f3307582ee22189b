import math

import numpy as np
import pytest

from qseed import synthgen
from qseed.synthgen import (
    DEFAULT_LAYER_RADII,
    GeneratorConfig,
    gen_event,
    helix_radius_mm,
    max_track_pt,
    write_event,
)


def test_same_seed_byte_identical(tmp_path):
    cfg = GeneratorConfig(n_tracks=25, noise_hits=30, seed=99)
    for name in ("a", "b"):
        d = tmp_path / name
        d.mkdir()
        write_event(gen_event(cfg), *synthgen.event_paths(str(d), 1))
    for suffix in ("hits", "particles", "truth"):
        a = (tmp_path / "a" / f"event000000001-{suffix}.csv").read_bytes()
        b = (tmp_path / "b" / f"event000000001-{suffix}.csv").read_bytes()
        assert a == b


def test_noise_only_event():
    data = gen_event(GeneratorConfig(n_tracks=0, noise_hits=5, seed=1))
    assert len(data.hits) == 5
    assert data.particles == []
    assert all(pid == 0 for _, pid in data.truth)


def test_hits_sit_on_layer_radii():
    data = gen_event(GeneratorConfig(n_tracks=30, noise_hits=10, seed=4))
    layer_by_id = {}
    for hit_id, x, y, z, vol, lay in data.hits:
        r = math.hypot(x, y)
        assert any(abs(r - lr) < 1e-6 for lr in DEFAULT_LAYER_RADII)


def test_straight_line_limit():
    # effectively infinite bending radius: hits line up with the particle phi0
    # (6e4 GeV is the largest pt accepted at 2 T)
    cfg = GeneratorConfig(n_tracks=5, pt_range=(6e4, 6e4), seed=8, z0_spread=0.0)
    data = gen_event(cfg)
    phi0 = {pid: math.atan2(py, px) for pid, px, py, pz in data.particles}
    truth = dict(data.truth)
    for hit_id, x, y, z, vol, lay in data.hits:
        pid = truth[hit_id]
        assert math.atan2(y, x) == pytest.approx(phi0[pid], abs=1e-3)
        r = math.hypot(x, y)
        assert min(abs(r - lr) for lr in DEFAULT_LAYER_RADII) < 1e-3


def test_helix_radius_formula():
    assert helix_radius_mm(0.3, 2.0) == pytest.approx(500.0)
    assert helix_radius_mm(1.0, 2.0) == pytest.approx(1666.666666, rel=1e-6)


def test_curly_tracks_miss_outer_layers():
    # R = 500 mm -> layers with radius > 1000 mm are unreachable
    cfg = GeneratorConfig(n_tracks=20, pt_range=(0.3, 0.3), seed=12)
    data = gen_event(cfg)
    for hit_id, x, y, z, vol, lay in data.hits:
        assert math.hypot(x, y) <= 1000.0 + 1e-9
    # layer 1020 mm produces no hits at all
    assert all(math.hypot(x, y) < 1019.0 for _, x, y, z, _, _ in data.hits)


def test_pt_round_trip():
    cfg = GeneratorConfig(n_tracks=200, pt_range=(0.5, 4.0), seed=21)
    data = gen_event(cfg)
    for pid, px, py, pz in data.particles:
        pt = math.hypot(px, py)
        assert 0.5 <= pt <= 4.0
        # regenerating with the same seed reproduces the same pt exactly
    again = gen_event(cfg)
    assert data.particles == again.particles


def test_invalid_configs():
    with pytest.raises(ValueError):
        GeneratorConfig(pt_range=(0.0, 1.0))
    with pytest.raises(ValueError):
        GeneratorConfig(n_tracks=-1)


def test_smearing_moves_hits_off_layers():
    cfg = GeneratorConfig(n_tracks=20, seed=3, smear_sigma=1.0)
    data = gen_event(cfg)
    offsets = [
        min(abs(math.hypot(x, y) - lr) for lr in DEFAULT_LAYER_RADII)
        for _, x, y, z, _, _ in data.hits
    ]
    assert max(offsets) > 1e-3


def distance_from_layers(data):
    return max(min(abs(math.hypot(x, y) - lr) for lr in DEFAULT_LAYER_RADII) for _, x, y, *_ in data.hits)


@pytest.mark.parametrize("b_field", [0.5, 2.0, 3.8])
def test_largest_accepted_pt_keeps_hits_on_layers(b_field):
    pt = max_track_pt(b_field)
    assert helix_radius_mm(pt, b_field) == pytest.approx(synthgen.MAX_BENDING_RADIUS_MM)
    for seed in range(3):
        data = gen_event(GeneratorConfig(n_tracks=100, pt_range=(pt, pt), b_field=b_field, seed=seed))
        assert len(data.hits) == 100 * len(DEFAULT_LAYER_RADII)
        assert distance_from_layers(data) < 1e-6
    with pytest.raises(ValueError, match=f"^pt_range must not exceed {pt!r} GeV at b_field {b_field!r} T"):
        GeneratorConfig(pt_range=(1.0, float(np.nextafter(pt, math.inf))), b_field=b_field)

