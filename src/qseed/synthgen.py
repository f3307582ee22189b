"""Synthetic event generator: helical tracks through an ideal 10-layer barrel.

Emits the same CSV triplet (hits, particles, truth) that hitgraph.load_event
consumes, so the full pipeline runs without any external dataset. Output is a
pure function of the config: same seed, byte-identical files.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import UsageError

# Barrel layer radii in mm, innermost first; the generator's geometry is fixed.
DEFAULT_LAYER_RADII = (32.0, 72.0, 116.0, 172.0, 260.0, 360.0, 500.0, 660.0, 820.0, 1020.0)

# A hit's coordinates are small differences of numbers of the size of the
# bending radius, so they carry rounding errors of a few ulp of that radius.
# Up to this radius every hit stays within 1.2e-7 mm of its layer (measured
# on 2,000 tracks): a larger one puts hits off their layers, and an
# overflowing one makes them nan.
MAX_BENDING_RADIUS_MM = 1e8

# Layer index -> (volume_id, layer_id); volumes 8/13/17 mimic the barrel split.
def _volume_layer(layer_index: int) -> Tuple[int, int]:
    if layer_index < 4:
        return 8, 2 * layer_index + 2
    if layer_index < 8:
        return 13, 2 * (layer_index - 4) + 2
    return 17, 2 * (layer_index - 8) + 2


# |dz/ds| bound, roughly |eta| <~ 1.5
_TAN_LAMBDA_MAX = 2.1
_NOISE_Z_MAX = 1100.0


@dataclass
class GeneratorConfig:
    n_tracks: int = 20
    pt_range: Tuple[float, float] = (1.0, 5.0)
    noise_hits: int = 0
    b_field: float = 2.0  # tesla, along z
    z0_spread: float = 30.0  # mm, gaussian z-vertex spread
    smear_sigma: float = 0.0  # mm, optional gaussian hit smearing
    seed: int = 0

    def __post_init__(self) -> None:
        # The checks of the physics values are written so that NaN fails them.
        if not 0 < self.pt_range[0] <= self.pt_range[1] < math.inf:
            raise UsageError("pt_range must be finite, positive and ordered")
        if self.n_tracks < 0 or self.noise_hits < 0:
            raise UsageError("counts must be non-negative")
        if not 0 < self.b_field < math.inf:
            raise UsageError("b_field must be finite and positive")
        pt_max = max_track_pt(self.b_field)
        if not self.pt_range[1] <= pt_max:
            raise UsageError(
                f"pt_range must not exceed {pt_max!r} GeV at b_field {self.b_field!r} T: a larger "
                f"bending radius than {MAX_BENDING_RADIUS_MM:g} mm puts hits off their layers"
            )
        if not 0 <= self.z0_spread < math.inf:
            raise UsageError("z0_spread must be finite and non-negative")
        if not 0 <= self.smear_sigma < math.inf:
            raise UsageError("smear_sigma must be finite and non-negative")


@dataclass
class EventData:
    """Row lists ready for CSV serialization."""

    hits: List[Tuple[int, float, float, float, int, int]]
    particles: List[Tuple[int, float, float, float]]
    truth: List[Tuple[int, int]]


def helix_radius_mm(pt: float, b_field: float) -> float:
    """Bending radius of a pt GeV track in a b_field tesla solenoid."""
    return pt / (0.3 * b_field) * 1000.0


def max_track_pt(b_field: float) -> float:
    """The pt in GeV whose bending radius in b_field tesla is MAX_BENDING_RADIUS_MM."""
    return MAX_BENDING_RADIUS_MM / 1000.0 * 0.3 * b_field


def gen_event(cfg: GeneratorConfig) -> EventData:
    """Generate one event: helical signal tracks plus uniform noise hits.

    Track model: transverse circle of radius R through the origin, constant
    pitch in z. A layer is hit where the circle first crosses the layer
    cylinder; layers beyond the helix reach (2R < layer radius) get no hit.
    """
    rng = np.random.default_rng(cfg.seed)
    hits: List[Tuple[int, float, float, float, int, int]] = []
    particles: List[Tuple[int, float, float, float]] = []
    truth: List[Tuple[int, int]] = []
    hit_id = 1

    for track in range(cfg.n_tracks):
        particle_id = track + 1
        charge = 1.0 if rng.random() < 0.5 else -1.0
        pt = float(rng.uniform(cfg.pt_range[0], cfg.pt_range[1]))
        phi0 = float(rng.uniform(-math.pi, math.pi))
        z_vertex = float(rng.normal(0.0, cfg.z0_spread))
        tan_lambda = float(rng.uniform(-_TAN_LAMBDA_MAX, _TAN_LAMBDA_MAX))

        particles.append(
            (particle_id, pt * math.cos(phi0), pt * math.sin(phi0), pt * tan_lambda)
        )

        radius = helix_radius_mm(pt, cfg.b_field)
        # circle center perpendicular to the initial direction
        cx = -charge * radius * math.sin(phi0)
        cy = charge * radius * math.cos(phi0)
        alpha = math.atan2(cy, cx)

        for layer_index, layer_r in enumerate(DEFAULT_LAYER_RADII):
            half_chord = layer_r / (2.0 * radius)
            if half_chord > 1.0:
                continue  # helix never reaches this layer
            # asin form stays precise in the straight-line (large radius) limit
            turn = 2.0 * math.asin(half_chord)
            psi = alpha + math.pi + charge * turn
            x = cx + radius * math.cos(psi)
            y = cy + radius * math.sin(psi)
            z = z_vertex + tan_lambda * radius * turn
            if cfg.smear_sigma > 0.0:
                x += float(rng.normal(0.0, cfg.smear_sigma))
                y += float(rng.normal(0.0, cfg.smear_sigma))
                z += float(rng.normal(0.0, cfg.smear_sigma))
            volume_id, layer_id = _volume_layer(layer_index)
            hits.append((hit_id, x, y, z, volume_id, layer_id))
            truth.append((hit_id, particle_id))
            hit_id += 1

    for _ in range(cfg.noise_hits):
        layer_index = int(rng.integers(0, len(DEFAULT_LAYER_RADII)))
        layer_r = DEFAULT_LAYER_RADII[layer_index]
        phi = float(rng.uniform(-math.pi, math.pi))
        z = float(rng.uniform(-_NOISE_Z_MAX, _NOISE_Z_MAX))
        volume_id, layer_id = _volume_layer(layer_index)
        hits.append(
            (hit_id, layer_r * math.cos(phi), layer_r * math.sin(phi), z, volume_id, layer_id)
        )
        truth.append((hit_id, 0))
        hit_id += 1

    return EventData(hits=hits, particles=particles, truth=truth)


def write_event(
    data: EventData, hits_path: str, particles_path: str, truth_path: str
) -> None:
    """Serialize an event to the TrackML-convention CSV triplet."""
    with open(hits_path, "w", encoding="utf-8") as fh:
        fh.write("hit_id,x,y,z,volume_id,layer_id\n")
        for hit_id, x, y, z, vol, lay in data.hits:
            fh.write(f"{hit_id},{x!r},{y!r},{z!r},{vol},{lay}\n")
    with open(particles_path, "w", encoding="utf-8") as fh:
        fh.write("particle_id,px,py,pz\n")
        for pid, px, py, pz in data.particles:
            fh.write(f"{pid},{px!r},{py!r},{pz!r}\n")
    with open(truth_path, "w", encoding="utf-8") as fh:
        fh.write("hit_id,particle_id\n")
        for hit_id, pid in data.truth:
            fh.write(f"{hit_id},{pid}\n")


def event_paths(out_dir: str, event_id: int) -> Tuple[str, str, str]:
    stem = os.path.join(out_dir, f"event{event_id:09d}")
    return f"{stem}-hits.csv", f"{stem}-particles.csv", f"{stem}-truth.csv"
