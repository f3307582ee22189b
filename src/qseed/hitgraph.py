"""Event ingestion and hit-graph construction.

Pipeline: load CSV triplet -> select barrel hits -> build doublets under the
geometric cuts -> truth-label edges -> section into 16 (8 phi x 2 z) subgraphs.
An event is one column table (`Hits`, one row per hit); doublets are pairs of
row indices into it.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
import re
from dataclasses import dataclass, fields
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import TEXT_ENCODING, DataError, ParseError, SchemaError, UsageError, not_utf8, read_lines

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
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
# Event CSVs are read this many rows at a time, which bounds the memory the
# rows take as strings whatever the file size.
_BLOCK_ROWS = 1024


@dataclass
class Hits:
    """One event's hits as numpy columns, one row per hit in file order.

    Ids are exact int64. The truth file is joined in: has_truth marks hits
    with a truth row, particle_id is 0 for noise or a missing truth row, and
    pt is the particle's transverse momentum (NaN when the particle has no
    row). layer_index is -1 until select_barrel_hits assigns it.
    """

    hit_id: np.ndarray
    volume_id: np.ndarray
    layer_id: np.ndarray
    r: np.ndarray
    phi: np.ndarray
    z: np.ndarray
    has_truth: np.ndarray
    particle_id: np.ndarray
    pt: np.ndarray
    layer_index: np.ndarray

    def __len__(self) -> int:
        return len(self.hit_id)

    def take(self, rows) -> Hits:
        """The rows selected by an index array or a boolean mask, as copies."""
        return Hits(*(getattr(self, f.name)[rows] for f in fields(self)))


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
        # Written so that NaN fails each check; +inf stays a valid "no cut".
        if not (self.pt_min > 0 and self.dphi_slope_max > 0 and self.z0_max > 0):
            raise UsageError("cut values must be positive")
        if not self.eta_range[0] < self.eta_range[1]:
            raise UsageError("eta_range must be an increasing pair")
        if self.cut_mode not in ("slope", "raw"):
            raise UsageError(f"unknown cut_mode {self.cut_mode!r}")
        if self.pt_mode not in ("label", "filter"):
            raise UsageError(f"unknown pt_mode {self.pt_mode!r}")


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


def _column_index(path: str, header: Optional[List[str]], columns: Sequence[Tuple[str, type]]) -> List[int]:
    """Position of each named column in the header row. A file that gave no
    row (None) and holds 1 or 2 bytes is part of a byte-order mark, which a
    stream decoder reads as empty text: it is not UTF-8."""
    if header is None and os.path.getsize(path) in (1, 2):
        raise not_utf8(path, ParseError)
    for col, _ in columns:
        if header is None or col not in header:
            raise SchemaError(f"{path}: missing column '{col}'")
    # a repeated column name reads its last occurrence
    return [len(header) - 1 - header[::-1].index(col) for col, _ in columns]


def _screened_columns(path: str, columns: Sequence[Tuple[str, type]]) -> Optional[List[np.ndarray]]:
    """The columns of _read_columns, or None when the file fails the screen.

    Rows are read _BLOCK_ROWS at a time, and each column of a block is
    converted with one map of its type. The screen then checks every row at
    once: floats are finite, ints fit int64 (numpy raises OverflowError),
    no row is short and the first column has no repeats.
    """
    dtypes = [np.int64 if kind is int else np.float64 for _, kind in columns]
    blocks = [[np.empty(0, dtype)] for dtype in dtypes]
    try:
        with open(path, "r", encoding=TEXT_ENCODING, newline="") as fh:
            reader = csv.reader(fh)
            index = _column_index(path, next(reader, None), columns)
            width = max(index) + 1
            while lines := list(itertools.islice(reader, _BLOCK_ROWS)):
                rows = [row for row in lines if row]  # blank lines are not rows
                if not rows:
                    continue
                if min(map(len, rows)) < width:
                    return None
                cells = list(zip(*rows))
                for block, (_, kind), i, dtype in zip(blocks, columns, index, dtypes):
                    block.append(np.fromiter(map(kind, cells[i]), dtype, len(rows)))
    except (ValueError, OverflowError, csv.Error):  # UnicodeDecodeError is a ValueError
        return None
    arrays = [np.concatenate(block) for block in blocks]
    # argsort, as _row_of sorts: numpy's int64 sort kernel is separate code,
    # and paging it in raised a bench child's peak RSS by about 0.7 MB.
    ids = arrays[0][np.argsort(arrays[0])]
    if (ids[1:] == ids[:-1]).any():
        return None
    if not all(np.isfinite(a).all() for a, (_, kind) in zip(arrays, columns) if kind is float):
        return None
    return arrays


# A byte that is not UTF-8, as the surrogateescape error handler decodes it.
_UNDECODABLE = re.compile("[\udc80-\udcff]")


def _utf8_rows(path: str, reader) -> Iterator[List[str]]:
    """The rows of a csv reader over a file decoded with surrogateescape;
    a row that holds a byte that is not UTF-8 raises its error instead."""
    for row in reader:
        if _UNDECODABLE.search(",".join(row)):
            raise not_utf8(path, ParseError)
        yield row


def _read_columns(path: str, columns: Sequence[Tuple[str, type]]) -> List[np.ndarray]:
    """The named columns of a CSV file read row by row, one numpy array per
    column (int64 for int columns, float64 for float columns).

    Each cell is checked as it is read: ints are exact and fit int64, floats
    are finite, and the first column is an id that must not repeat. The
    error names the file line of the first faulty line. A byte that is not
    UTF-8 counts as a fault of its row, so a bad byte after a bad cell does
    not hide the cell.
    """
    values = []
    seen = set()
    with open(path, "r", encoding=TEXT_ENCODING, errors="surrogateescape", newline="") as fh:
        reader = csv.reader(fh)
        rows = _utf8_rows(path, reader)
        try:
            index = _column_index(path, next(rows, None), columns)
            for row in rows:
                if not row:
                    continue  # blank lines are not rows
                parsed = []
                for (col, kind), i in zip(columns, index):
                    cell = row[i] if i < len(row) else None
                    try:
                        value = kind(cell)
                    except (TypeError, ValueError):
                        what = "non-integer" if kind is int and cell is not None else "non-numeric"
                        raise ParseError(
                            f"{path}:{reader.line_num}: {what} value {cell!r} in column '{col}'"
                        )
                    if kind is float:
                        if not math.isfinite(value):
                            raise ParseError(
                                f"{path}:{reader.line_num}: non-finite value {cell!r} "
                                f"in column '{col}'"
                            )
                    elif not _INT64_MIN <= value <= _INT64_MAX:
                        raise ParseError(
                            f"{path}:{reader.line_num}: value {cell!r} in column '{col}' "
                            f"is outside the 64-bit range"
                        )
                    parsed.append(value)
                if parsed[0] in seen:
                    raise ParseError(
                        f"{path}:{reader.line_num}: repeated {columns[0][0]} {parsed[0]}"
                    )
                seen.add(parsed[0])
                values.append(parsed)
        except csv.Error as exc:
            raise ParseError(f"{path}:{reader.line_num}: {exc}") from None
    cols = list(zip(*values)) if values else [()] * len(columns)
    return [
        np.array(col, dtype=np.int64 if kind is int else np.float64)
        for col, (_, kind) in zip(cols, columns)
    ]


def _load_columns(path: str, columns: Sequence[Tuple[str, type]]) -> List[np.ndarray]:
    """The arrays of _read_columns, read a block at a time by
    _screened_columns. Only a file that fails the screen is read again, row
    by row, so a valid file pays nothing for locating errors."""
    arrays = _screened_columns(path, columns)
    return _read_columns(path, columns) if arrays is None else arrays


def _row_of(keys: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Row of each key among the distinct ids, or -1 where it is absent."""
    rows = np.full(len(keys), -1, dtype=np.int64)
    if len(ids):
        order = np.argsort(ids)
        pos = np.minimum(np.searchsorted(ids[order], keys), len(ids) - 1)
        found = ids[order[pos]] == keys
        rows[found] = order[pos[found]]
    return rows


def load_event(hits_path: str, particles_path: str, truth_path: str) -> Hits:
    """Load a TrackML-convention CSV triplet into one Hits table."""
    hit_id, x, y, z, volume_id, layer_id = _load_columns(
        hits_path,
        [("hit_id", int), ("x", float), ("y", float), ("z", float),
         ("volume_id", int), ("layer_id", int)],
    )
    particle_id, px, py, _ = _load_columns(
        particles_path, [("particle_id", int), ("px", float), ("py", float), ("pz", float)]
    )
    truth_hit, truth_particle = _load_columns(
        truth_path, [("hit_id", int), ("particle_id", int)]
    )

    truth_row = _row_of(hit_id, truth_hit)
    has_truth = truth_row >= 0
    pid = np.zeros(len(hit_id), dtype=np.int64)
    pid[has_truth] = truth_particle[truth_row[has_truth]]
    particle_row = _row_of(pid, particle_id)
    known = particle_row >= 0
    # math, not numpy: np.hypot and np.arctan2 need not give the same bits.
    x, y, px, py = x.tolist(), y.tolist(), px.tolist(), py.tolist()
    pt = np.full(len(hit_id), np.nan)
    pt[known] = np.fromiter(map(math.hypot, px, py), float, len(px))[particle_row[known]]
    return Hits(
        hit_id=hit_id,
        volume_id=volume_id,
        layer_id=layer_id,
        r=np.fromiter(map(math.hypot, x, y), float, len(x)),
        phi=np.fromiter(map(math.atan2, y, x), float, len(x)),
        z=z,
        has_truth=has_truth,
        particle_id=pid,
        pt=pt,
        layer_index=np.full(len(hit_id), -1, dtype=np.int64),
    )


# --- selection and doublet building -----------------------------------------


def select_barrel_hits(hits: Hits) -> Hits:
    """The barrel-volume hits, with layer_index 0..N-1 by mean layer radius."""
    kept = hits.take(np.isin(hits.volume_id, BARREL_VOLUMES))
    keys = list(zip(kept.volume_id.tolist(), kept.layer_id.tolist()))
    radii: Dict[Tuple[int, int], List[float]] = {}
    for key, r in zip(keys, kept.r.tolist()):
        radii.setdefault(key, []).append(r)
    ordered = sorted(radii, key=lambda key: sum(radii[key]) / len(radii[key]))
    index = {key: i for i, key in enumerate(ordered)}
    kept.layer_index = np.array([index[key] for key in keys], dtype=np.int64)
    return kept


def _abs_wrapped_dphi(dphi: np.ndarray) -> np.ndarray:
    """|dphi| wrapped into [0, pi], with the bits of abs() of the scalar
    while-loop wrap into (-pi, pi]. Both phis come from atan2, so |dphi| <=
    2pi and one step suffices."""
    return np.minimum(np.abs(dphi), _TWO_PI - np.abs(dphi))


def _layer_pair_doublets(
    hits: Hits,
    inner: np.ndarray,
    outer: np.ndarray,
    cuts: SelectionCuts,
    stats: DoubletStats,
) -> List[np.ndarray]:
    """(src, dst) row pairs of one layer pair in all-pairs loop order (inner
    hit, then outer hit, both in row order), as blocks. inner and outer are
    the ascending rows of the two layers."""
    r_in, phi_in = hits.r[inner], hits.phi[inner]
    r_out, phi_out = hits.r[outer], hits.phi[outer]

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
        # the window is the whole circle: every outer hit, in row order
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

    blocks = []
    start = 0
    while start < len(inner):
        # inner hits [start, stop) with about _BLOCK_PAIRS candidates in all
        first = int(ends[start] - counts[start])
        stop = max(int(np.searchsorted(ends, first + _BLOCK_PAIRS, "right")), start + 1)
        block = counts[start:stop]
        n = int(ends[stop - 1]) - first
        offset = np.arange(n) - np.repeat(np.cumsum(block) - block, block)
        a = inner[np.repeat(np.arange(start, stop), block)]
        b = outer[slot_to_outer[np.repeat(lo[start:stop], block) + offset]]
        start = stop

        # Equal radii were counted above and make no doublet. The hit with
        # the smaller r is the src.
        nonzero = hits.r[a] != hits.r[b]
        a, b = a[nonzero], b[nonzero]
        swap = hits.r[a] > hits.r[b]
        src, dst = np.where(swap, b, a), np.where(swap, a, b)
        dr = hits.r[dst] - hits.r[src]
        abs_dphi = _abs_wrapped_dphi(hits.phi[dst] - hits.phi[src])
        if cuts.cut_mode == "slope":
            ok = abs_dphi / dr < cuts.dphi_slope_max
        else:
            ok = abs_dphi < cuts.dphi_slope_max
        dz = hits.z[dst] - hits.z[src]
        z0 = hits.z[src] - hits.r[src] * (dz / dr)
        ok &= np.abs(z0) < cuts.z0_max

        # Survivors in loop order (rows ascend within a layer). Eta stays on
        # the math functions: numpy's tan and log need not give the same bits.
        keep = np.flatnonzero(ok)
        keep = keep[np.lexsort((b[keep], a[keep]))]
        theta = [math.atan2(y, x) for y, x in zip(dr[keep].tolist(), dz[keep].tolist())]
        eta = np.array([-math.log(math.tan(t / 2.0)) for t in theta], dtype=float)
        keep = keep[(cuts.eta_range[0] <= eta) & (eta <= cuts.eta_range[1])]
        blocks.append(np.stack((src[keep], dst[keep]), axis=1))
    return blocks


def build_doublets(hits: Hits, cuts: SelectionCuts) -> Tuple[np.ndarray, DoubletStats]:
    """All consecutive-layer hit pairs that survive the geometric cuts.

    Returns an int64 array of (src, dst) row indices, src the hit with the
    smaller r. For each layer pair, a phi-window search over the phi-sorted
    outer layer finds the candidate partners of each inner hit, and numpy
    applies the dr, dphi and z0 cuts to them; eta is computed per survivor.
    The pairs and their order are those of testing all pairs; pairs_considered
    counts window candidates, zero_dr_skipped all equal-radius pairs.
    """
    unselected = np.flatnonzero(hits.layer_index < 0)
    if len(unselected):
        raise DataError(f"hit {hits.hit_id[unselected[0]]} has no layer_index; select first")
    finite = np.isfinite(hits.r) & np.isfinite(hits.phi) & np.isfinite(hits.z)
    if not finite.all():
        i = int(np.argmin(finite))
        raise DataError(
            f"hit {hits.hit_id[i]} has a non-finite coordinate "
            f"(r={float(hits.r[i])!r}, phi={float(hits.phi[i])!r}, z={float(hits.z[i])!r})"
        )

    layers = {k: np.flatnonzero(hits.layer_index == k) for k in set(hits.layer_index.tolist())}
    stats = DoubletStats()
    blocks = [np.empty((0, 2), dtype=np.int64)]
    for k in sorted(layers):
        if k + 1 in layers:
            blocks += _layer_pair_doublets(hits, layers[k], layers[k + 1], cuts, stats)
    return np.concatenate(blocks), stats


def label_edges(
    pairs: np.ndarray, hits: Hits, cuts: SelectionCuts
) -> Tuple[np.ndarray, LabelStats]:
    """The truth label of each (src, dst) row pair, as a bool array.

    True iff both hits belong to the same non-noise particle whose pt exceeds
    cuts.pt_min. Hits without a truth row count as noise.
    """
    src, dst = pairs[:, 0], pairs[:, 1]
    pid = hits.particle_id[src]
    labels = (pid != 0) & (pid == hits.particle_id[dst]) & (hits.pt[src] > cuts.pt_min)
    missing = ~(hits.has_truth[src] & hits.has_truth[dst])
    return labels, LabelStats(missing_truth=int(missing.sum()))


def filter_low_pt_hits(hits: Hits, pt_min: float) -> Hits:
    """Stricter pt_mode="filter" variant: drop hits whose particle has
    pt <= pt_min. Noise hits (particle 0 or missing truth) and hits of
    particles without a row are kept."""
    return hits.take((hits.particle_id == 0) | np.isnan(hits.pt) | (hits.pt > pt_min))


# --- sectioning --------------------------------------------------------------


def section_graph(
    hits: Hits, pairs: np.ndarray, labels: np.ndarray, event_id: int = 0
) -> Tuple[List[SubGraph], int]:
    """Split one event into exactly 16 SubGraphs.

    A hit's sector is phi wedge k, [-pi + k*pi/4, -pi + (k+1)*pi/4), and z
    half 0 for z < 0, 1 for z >= 0; phi == pi wraps to the -pi boundary
    (wedge 0). Nodes keep row order within each sector, edges keep pair
    order. Returns the subgraphs and the number of cross-sector edges dropped.
    """
    wedge = ((hits.phi + math.pi) // _WEDGE).astype(np.int64)
    wedge[wedge >= N_PHI_SECTORS] = 0
    sector = N_Z_HALVES * wedge + (hits.z >= 0)
    src, dst = pairs[:, 0], pairs[:, 1]
    kept = sector[src] == sector[dst]
    local = np.empty(len(hits), dtype=np.int64)
    subgraphs = []
    for s in range(N_PHI_SECTORS * N_Z_HALVES):
        rows = np.flatnonzero(sector == s)
        local[rows] = np.arange(len(rows))
        nodes = list(zip(hits.r[rows].tolist(), hits.phi[rows].tolist(), hits.z[rows].tolist()))
        edge = kept & (sector[src] == s)
        label = labels[edge].astype(np.int64)
        edges = list(zip(local[src[edge]].tolist(), local[dst[edge]].tolist(), label.tolist()))
        subgraphs.append(SubGraph(event_id, divmod(s, N_Z_HALVES), nodes, edges))
    return subgraphs, int(len(pairs) - kept.sum())


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


def _subgraph_rows(path: str, header: str) -> List[str]:
    """The lines of a subgraph CSV after its checked header line."""
    lines = read_lines(path, ParseError)
    if not lines:
        raise ParseError(f"{path}:1: missing header")
    if lines[0] != header:
        raise ParseError(f"{path}:1: bad header {lines[0]!r}")
    return lines[1:]


def read_subgraph(path: str) -> SubGraph:
    """Inverse of write_subgraph; exact round trip."""
    name = os.path.basename(os.path.normpath(path))
    m = _DIR_RE.match(name)
    if not m:
        raise ParseError(f"{path}: directory name not of form evt<ID>_s<PHI><Z>")
    event_id, phi_sector, z_half = (int(s) for s in m.groups())

    nodes: List[Tuple[float, float, float]] = []
    nodes_path = os.path.join(path, "nodes.csv")
    rows = _subgraph_rows(nodes_path, "local_id,r,phi,z")
    for lineno, text in enumerate(rows, start=2):
        parts = text.split(",")
        if len(parts) != 4:
            raise ParseError(f"{nodes_path}:{lineno}: expected 4 fields")
        try:
            local_id = int(parts[0])
            node = (float(parts[1]), float(parts[2]), float(parts[3]))
        except ValueError as exc:
            raise ParseError(f"{nodes_path}:{lineno}: {exc}") from exc
        if local_id != len(nodes):
            raise ParseError(
                f"{nodes_path}:{lineno}: local_id {local_id} out of order"
            )
        nodes.append(node)
    # One sum screens the whole file: it is finite when every coordinate is.
    # Only a failed screen (or a finite sum that overflowed) looks for the line.
    if not math.isfinite(sum(itertools.chain.from_iterable(nodes))):
        finite = np.isfinite(np.array(nodes))
        if not finite.all():
            i, j = divmod(int(np.argmin(finite)), 3)
            raise ParseError(
                f"{nodes_path}:{i + 2}: non-finite value {rows[i].split(',')[j + 1]!r} "
                f"in column '{('r', 'phi', 'z')[j]}'"
            )

    edges: List[Tuple[int, int, int]] = []
    edges_path = os.path.join(path, "edges.csv")
    for lineno, text in enumerate(_subgraph_rows(edges_path, "src,dst,label"), start=2):
        parts = text.split(",")
        if len(parts) != 3:
            raise ParseError(f"{edges_path}:{lineno}: expected 3 fields")
        try:
            src, dst, label = int(parts[0]), int(parts[1]), int(parts[2])
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
