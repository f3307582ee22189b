"""Event ingestion and hit-graph construction.

Pipeline: load CSV triplet -> select barrel hits -> build doublets under the
geometric cuts -> truth-label edges -> section into 16 (8 phi x 2 z) subgraphs.
"""

from __future__ import annotations

import csv
import math
import os
import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DataError, ParseError, SchemaError

BARREL_VOLUMES = (8, 13, 17)
N_PHI_SECTORS = 8
N_Z_HALVES = 2
_WEDGE = math.pi / 4.0
_TWO_PI = 2.0 * math.pi
# Doublet building handles this many phi-window candidates per numpy block,
# which bounds its scratch memory whatever the layer occupancy.
_BLOCK_PAIRS = 4096
# Relative and absolute widening of the phi window, so that float rounding
# can only make it too wide, never too narrow.
_WINDOW_REL = 1e-9
_WINDOW_ABS = 1e-12


@dataclass(slots=True)
class Hit:
    hit_id: int
    x: float
    y: float
    z: float
    volume_id: int
    layer_id: int
    r: float = field(init=False)
    phi: float = field(init=False)
    layer_index: int = -1

    def __post_init__(self) -> None:
        self.r = math.hypot(self.x, self.y)
        self.phi = math.atan2(self.y, self.x)


@dataclass(slots=True)
class Particle:
    particle_id: int
    px: float
    py: float
    pz: float

    @property
    def pt(self) -> float:
        return math.hypot(self.px, self.py)


@dataclass
class Event:
    hits: List[Hit]
    truth: Dict[int, int]  # hit_id -> particle_id (0 = noise)
    particles: Dict[int, Particle]


@dataclass
class SelectionCuts:
    """Doublet selection criteria; defaults follow the standard loose cuts."""

    pt_min: float = 1.0
    dphi_slope_max: float = 0.0006  # rad/mm in slope mode, rad in raw mode
    z0_max: float = 100.0
    eta_range: Tuple[float, float] = (-5.0, 5.0)
    cut_mode: str = "slope"  # "slope": |dphi|/dr, "raw": |dphi|
    pt_mode: str = "label"  # "label": pt cut at labeling, "filter": drop hits

    def __post_init__(self) -> None:
        if self.pt_min <= 0 or self.dphi_slope_max <= 0 or self.z0_max <= 0:
            raise ValueError("cut values must be positive")
        if self.eta_range[0] >= self.eta_range[1]:
            raise ValueError("eta_range must be an increasing pair")
        if self.cut_mode not in ("slope", "raw"):
            raise ValueError(f"unknown cut_mode {self.cut_mode!r}")
        if self.pt_mode not in ("label", "filter"):
            raise ValueError(f"unknown pt_mode {self.pt_mode!r}")


@dataclass(slots=True)
class Doublet:
    src_hit: int  # hit id of the inner hit (smaller r)
    dst_hit: int
    dphi: float
    dz: float
    dr: float
    z0: float
    eta: float
    label: Optional[bool] = None


@dataclass
class SubGraph:
    event_id: int
    sector: Tuple[int, int]  # (phi sector 0..7, z half 0..1)
    nodes: List[Tuple[float, float, float]]  # (r, phi, z) by local id
    edges: List[Tuple[int, int, int]]  # (src local, dst local, label 0/1)


@dataclass
class DoubletStats:
    pairs_considered: int = 0
    zero_dr_skipped: int = 0


@dataclass
class LabelStats:
    missing_truth: int = 0


# --- CSV loading -------------------------------------------------------------


def _read_rows(path: str, required: Sequence[str]) -> Iterator[Tuple[float, ...]]:
    """Yield the required columns of each data row as finite floats."""
    if not os.path.exists(path):
        raise IOError(f"no such file: {path}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None) or []
        for col in required:
            if col not in header:
                raise SchemaError(f"{path}: missing column '{col}'")
        # a repeated column name reads its last occurrence
        index = [len(header) - 1 - header[::-1].index(col) for col in required]
        lineno = 1
        for row in reader:
            if not row:
                continue  # blank lines are not rows
            lineno += 1
            values = []
            for col, i in zip(required, index):
                cell = row[i] if i < len(row) else None
                try:
                    value = float(cell)
                except (TypeError, ValueError):
                    raise ParseError(
                        f"{path}:{lineno}: non-numeric value {cell!r} "
                        f"in column '{col}'"
                    )
                if not math.isfinite(value):
                    raise ParseError(
                        f"{path}:{lineno}: non-finite value {cell!r} "
                        f"in column '{col}'"
                    )
                values.append(value)
            yield tuple(values)


def load_event(hits_path: str, particles_path: str, truth_path: str) -> Event:
    """Load a TrackML-convention CSV triplet into an Event."""
    hits = [
        Hit(int(hit_id), x, y, z, int(volume_id), int(layer_id))
        for hit_id, x, y, z, volume_id, layer_id in _read_rows(
            hits_path, ["hit_id", "x", "y", "z", "volume_id", "layer_id"]
        )
    ]
    particles = {
        int(pid): Particle(int(pid), px, py, pz)
        for pid, px, py, pz in _read_rows(
            particles_path, ["particle_id", "px", "py", "pz"]
        )
    }
    truth = {
        int(hit_id): int(pid)
        for hit_id, pid in _read_rows(truth_path, ["hit_id", "particle_id"])
    }
    return Event(hits=hits, truth=truth, particles=particles)


# --- selection and doublet building -----------------------------------------


def select_barrel_hits(event: Event) -> List[Hit]:
    """Keep barrel-volume hits and assign layer_index 0..N-1 by mean radius."""
    kept = [h for h in event.hits if h.volume_id in BARREL_VOLUMES]
    groups: Dict[Tuple[int, int], List[Hit]] = {}
    for h in kept:
        groups.setdefault((h.volume_id, h.layer_id), []).append(h)
    ordered = sorted(
        groups, key=lambda key: sum(h.r for h in groups[key]) / len(groups[key])
    )
    index = {key: i for i, key in enumerate(ordered)}
    for h in kept:
        h.layer_index = index[(h.volume_id, h.layer_id)]
    return kept


def wrap_phi(dphi: float) -> float:
    """Wrap an angle difference into (-pi, pi]."""
    while dphi <= -math.pi:
        dphi += 2.0 * math.pi
    while dphi > math.pi:
        dphi -= 2.0 * math.pi
    return dphi


def doublet_geometry(src: Hit, dst: Hit) -> Tuple[float, float, float, float, float]:
    """(dphi, dz, dr, z0, eta) for an inner->outer hit pair; dr must be > 0."""
    dphi = wrap_phi(dst.phi - src.phi)
    dz = dst.z - src.z
    dr = dst.r - src.r
    z0 = src.z - src.r * (dz / dr)
    theta = math.atan2(dr, dz)
    eta = -math.log(math.tan(theta / 2.0))
    return dphi, dz, dr, z0, eta


def passes_cuts(d: Doublet, cuts: SelectionCuts) -> bool:
    if cuts.cut_mode == "slope":
        if abs(d.dphi) / d.dr >= cuts.dphi_slope_max:
            return False
    else:
        if abs(d.dphi) >= cuts.dphi_slope_max:
            return False
    if abs(d.z0) >= cuts.z0_max:
        return False
    return cuts.eta_range[0] <= d.eta <= cuts.eta_range[1]


def _wrap_phi_array(dphi: np.ndarray) -> np.ndarray:
    """wrap_phi elementwise, with the same float operations."""
    while (low := dphi <= -math.pi).any():
        dphi = np.where(low, dphi + _TWO_PI, dphi)
    while (high := dphi > math.pi).any():
        dphi = np.where(high, dphi - _TWO_PI, dphi)
    return dphi


def _coords(layer: Sequence[Hit]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    n = len(layer)
    return (
        np.fromiter((h.r for h in layer), float, n),
        np.fromiter((h.phi for h in layer), float, n),
        np.fromiter((h.z for h in layer), float, n),
    )


def _layer_pair_doublets(
    inner: Sequence[Hit],
    outer: Sequence[Hit],
    cuts: SelectionCuts,
    stats: DoubletStats,
    doublets: List[Doublet],
) -> None:
    """Append the doublets of one layer pair in all-pairs loop order
    (inner hit, then outer hit, both in input order)."""
    r_in, phi_in, z_in = _coords(inner)
    r_out, phi_out, z_out = _coords(outer)

    # Equal radii are counted over all pairs, inside the window or not.
    r_sorted = np.sort(r_out)
    stats.zero_dr_skipped += int(
        (
            np.searchsorted(r_sorted, r_in, "right")
            - np.searchsorted(r_sorted, r_in, "left")
        ).sum()
    )

    # Any pair that can pass the dphi cut has |dphi| < half.
    if cuts.cut_mode == "slope":
        max_dr = max(r_out.max() - r_in.min(), r_in.max() - r_out.min())
        half = cuts.dphi_slope_max * float(max_dr)
    else:
        half = cuts.dphi_slope_max
    half = half * (1.0 + _WINDOW_REL) + _WINDOW_ABS
    if half >= math.pi:
        # the window is the whole circle: every outer hit, in input order
        slot_to_outer = np.arange(len(outer))
        lo = np.zeros(len(inner), dtype=np.int64)
        hi = np.full(len(inner), len(outer), dtype=np.int64)
    else:
        # outer phis sorted, with copies shifted by -2pi and +2pi for the seam
        order = np.argsort(phi_out, kind="stable")
        sorted_phi = phi_out[order]
        slot_phi = np.concatenate(
            (sorted_phi - _TWO_PI, sorted_phi, sorted_phi + _TWO_PI)
        )
        slot_to_outer = np.tile(order, 3)
        lo = np.searchsorted(slot_phi, phi_in - half, "left")
        hi = np.searchsorted(slot_phi, phi_in + half, "right")
    counts = hi - lo
    ends = np.cumsum(counts)
    stats.pairs_considered += int(ends[-1])

    start = 0
    while start < len(inner):
        # inner hits [start, stop) with about _BLOCK_PAIRS candidates in all
        first = int(ends[start] - counts[start])
        stop = max(int(np.searchsorted(ends, first + _BLOCK_PAIRS, "right")), start + 1)
        block = counts[start:stop]
        n = int(ends[stop - 1]) - first
        i_in = np.repeat(np.arange(start, stop), block)
        offset = np.arange(n) - np.repeat(np.cumsum(block) - block, block)
        i_out = slot_to_outer[np.repeat(lo[start:stop], block) + offset]
        start = stop

        # Equal radii were counted above and make no doublet. The rest get
        # the src/dst choice and float operations of doublet_geometry and
        # passes_cuts, so these cuts agree with them bit for bit.
        nonzero = r_in[i_in] != r_out[i_out]
        i_in, i_out = i_in[nonzero], i_out[nonzero]
        swap = r_in[i_in] > r_out[i_out]

        def src_dst(col_in, col_out):
            a, b = col_in[i_in], col_out[i_out]
            return np.where(swap, b, a), np.where(swap, a, b)

        src_r, dst_r = src_dst(r_in, r_out)
        dr = dst_r - src_r
        src_phi, dst_phi = src_dst(phi_in, phi_out)
        abs_dphi = np.abs(_wrap_phi_array(dst_phi - src_phi))
        if cuts.cut_mode == "slope":
            ok = abs_dphi / dr < cuts.dphi_slope_max
        else:
            ok = abs_dphi < cuts.dphi_slope_max
        src_z, dst_z = src_dst(z_in, z_out)
        z0 = src_z - src_r * ((dst_z - src_z) / dr)
        ok &= np.abs(z0) < cuts.z0_max

        i_in, i_out = i_in[ok], i_out[ok]
        by_input = np.lexsort((i_out, i_in))  # the all-pairs loop order
        for i, j in zip(i_in[by_input].tolist(), i_out[by_input].tolist()):
            a, b = inner[i], outer[j]
            src, dst = (a, b) if a.r <= b.r else (b, a)
            d = Doublet(src.hit_id, dst.hit_id, *doublet_geometry(src, dst))
            if passes_cuts(d, cuts):
                doublets.append(d)


def build_doublets(
    hits: Sequence[Hit], cuts: SelectionCuts
) -> Tuple[List[Doublet], DoubletStats]:
    """All consecutive-layer hit pairs that survive the geometric cuts.

    For each layer pair, a phi-window search over the phi-sorted outer layer
    finds the candidate partners of each inner hit. Exact numpy copies of
    the dr, dphi and z0 cuts thin the candidates; doublet_geometry and
    passes_cuts decide the rest. Doublets, their order and every field are
    those of testing all pairs; pairs_considered counts window candidates,
    zero_dr_skipped all equal-radius pairs.
    """
    layers: Dict[int, List[Hit]] = {}
    for h in hits:
        if h.layer_index < 0:
            raise DataError(f"hit {h.hit_id} has no layer_index; select first")
        if not (math.isfinite(h.r) and math.isfinite(h.phi) and math.isfinite(h.z)):
            raise DataError(
                f"hit {h.hit_id} has a non-finite coordinate "
                f"(r={h.r!r}, phi={h.phi!r}, z={h.z!r})"
            )
        layers.setdefault(h.layer_index, []).append(h)

    stats = DoubletStats()
    doublets: List[Doublet] = []
    for k in sorted(layers):
        if k + 1 in layers:
            _layer_pair_doublets(layers[k], layers[k + 1], cuts, stats, doublets)
    return doublets, stats


def label_edges(
    doublets: Sequence[Doublet],
    truth: Dict[int, int],
    particles: Dict[int, Particle],
    cuts: SelectionCuts,
) -> Tuple[List[Doublet], LabelStats]:
    """Set each doublet's truth label in place.

    True iff both hits map to the same non-noise particle whose pt exceeds
    cuts.pt_min. Hits missing from the truth map count as noise.
    """
    stats = LabelStats()
    for d in doublets:
        pid_a = truth.get(d.src_hit)
        pid_b = truth.get(d.dst_hit)
        if pid_a is None or pid_b is None:
            stats.missing_truth += 1
            d.label = False
            continue
        if pid_a != pid_b or pid_a == 0:
            d.label = False
            continue
        particle = particles.get(pid_a)
        d.label = particle is not None and particle.pt > cuts.pt_min
    return list(doublets), stats


def filter_low_pt_hits(
    hits: Sequence[Hit],
    truth: Dict[int, int],
    particles: Dict[int, Particle],
    pt_min: float,
) -> List[Hit]:
    """Stricter pt_mode="filter" variant: drop hits whose particle has
    pt <= pt_min. Noise hits (particle 0 or missing truth) are kept."""
    kept = []
    for h in hits:
        pid = truth.get(h.hit_id, 0)
        if pid == 0:
            kept.append(h)
            continue
        particle = particles.get(pid)
        if particle is None or particle.pt > pt_min:
            kept.append(h)
    return kept


# --- sectioning --------------------------------------------------------------


def sector_of(phi: float, z: float) -> Tuple[int, int]:
    """Sector of a hit: phi wedge [-pi + k*pi/4, -pi + (k+1)*pi/4), z half
    z < 0 / z >= 0. phi == pi wraps to the -pi boundary (sector 0)."""
    k = int((phi + math.pi) // _WEDGE)
    if k >= N_PHI_SECTORS:
        k = 0
    return k, 0 if z < 0 else 1


def section_graph(
    hits: Sequence[Hit], doublets: Sequence[Doublet], event_id: int = 0
) -> Tuple[List[SubGraph], int]:
    """Split one event into exactly 16 SubGraphs.

    Returns the subgraphs and the number of cross-sector edges dropped.
    """
    subgraphs = [
        SubGraph(event_id, (p, zh), [], [])
        for p in range(N_PHI_SECTORS)
        for zh in range(N_Z_HALVES)
    ]
    by_sector = {g.sector: g for g in subgraphs}

    local: Dict[int, Tuple[Tuple[int, int], int]] = {}
    for h in hits:
        sec = sector_of(h.phi, h.z)
        g = by_sector[sec]
        local[h.hit_id] = (sec, len(g.nodes))
        g.nodes.append((h.r, h.phi, h.z))

    dropped = 0
    for d in doublets:
        sec_a, src = local[d.src_hit]
        sec_b, dst = local[d.dst_hit]
        if sec_a != sec_b:
            dropped += 1
            continue
        by_sector[sec_a].edges.append((src, dst, int(bool(d.label))))
    return subgraphs, dropped


# --- subgraph serialization --------------------------------------------------

_DIR_RE = re.compile(r"^evt(\d+)_s(\d)(\d)$")


def subgraph_dirname(g: SubGraph) -> str:
    return f"evt{g.event_id}_s{g.sector[0]}{g.sector[1]}"


def write_subgraph(g: SubGraph, root: str) -> str:
    """Write nodes.csv and edges.csv under root/evt<ID>_s<PHI><Z>/."""
    path = os.path.join(root, subgraph_dirname(g))
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, "nodes.csv"), "w", encoding="utf-8") as fh:
        fh.write("local_id,r,phi,z\n")
        for i, (r, phi, z) in enumerate(g.nodes):
            fh.write(f"{i},{float(r)!r},{float(phi)!r},{float(z)!r}\n")
    with open(os.path.join(path, "edges.csv"), "w", encoding="utf-8") as fh:
        fh.write("src,dst,label\n")
        for src, dst, label in g.edges:
            fh.write(f"{src},{dst},{label}\n")
    return path


def read_subgraph(path: str) -> SubGraph:
    """Inverse of write_subgraph; exact round trip."""
    name = os.path.basename(os.path.normpath(path))
    m = _DIR_RE.match(name)
    if not m:
        raise ParseError(f"{path}: directory name not of form evt<ID>_s<PHI><Z>")
    event_id, phi_sector, z_half = (int(s) for s in m.groups())

    nodes: List[Tuple[float, float, float]] = []
    nodes_path = os.path.join(path, "nodes.csv")
    with open(nodes_path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.rstrip("\n")
            if lineno == 1:
                if text != "local_id,r,phi,z":
                    raise ParseError(f"{nodes_path}:1: bad header {text!r}")
                continue
            parts = text.split(",")
            if len(parts) != 4:
                raise ParseError(f"{nodes_path}:{lineno}: expected 4 fields")
            try:
                local_id = int(parts[0])
                r, phi, z = (float(p) for p in parts[1:])
            except ValueError as exc:
                raise ParseError(f"{nodes_path}:{lineno}: {exc}") from exc
            if local_id != len(nodes):
                raise ParseError(
                    f"{nodes_path}:{lineno}: local_id {local_id} out of order"
                )
            nodes.append((r, phi, z))

    edges: List[Tuple[int, int, int]] = []
    edges_path = os.path.join(path, "edges.csv")
    with open(edges_path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.rstrip("\n")
            if lineno == 1:
                if text != "src,dst,label":
                    raise ParseError(f"{edges_path}:1: bad header {text!r}")
                continue
            parts = text.split(",")
            if len(parts) != 3:
                raise ParseError(f"{edges_path}:{lineno}: expected 3 fields")
            try:
                src, dst, label = (int(p) for p in parts)
            except ValueError as exc:
                raise ParseError(f"{edges_path}:{lineno}: {exc}") from exc
            if not (0 <= src < len(nodes) and 0 <= dst < len(nodes)):
                raise ParseError(
                    f"{edges_path}:{lineno}: edge endpoint out of range"
                )
            if label not in (0, 1):
                raise ParseError(f"{edges_path}:{lineno}: label must be 0 or 1")
            edges.append((src, dst, label))

    return SubGraph(event_id, (phi_sector, z_half), nodes, edges)
