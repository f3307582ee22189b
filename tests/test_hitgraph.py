import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qseed.cli import main
from qseed.errors import DataError, ParseError, SchemaError, UsageError
from qseed import hitgraph as hg
from qseed import synthgen

from conftest import (
    all_pairs_doublets,
    cyl,
    doublet_geometry,
    hit_coords,
    make_hits,
    passes_cuts,
    random_subgraph,
    sector_of,
    wrap_phi,
)


def write_event_files(tmp_path, hits_rows, particle_rows, truth_rows):
    hits = tmp_path / "hits.csv"
    particles = tmp_path / "particles.csv"
    truth = tmp_path / "truth.csv"
    hits.write_text(
        "hit_id,x,y,z,volume_id,layer_id\n"
        + "".join(",".join(str(v) for v in row) + "\n" for row in hits_rows)
    )
    particles.write_text(
        "particle_id,px,py,pz\n"
        + "".join(",".join(str(v) for v in row) + "\n" for row in particle_rows)
    )
    truth.write_text(
        "hit_id,particle_id\n"
        + "".join(",".join(str(v) for v in row) + "\n" for row in truth_rows)
    )
    return str(hits), str(particles), str(truth)


def synthetic_event(tmp_path, seed=0, n_tracks=10, noise=0, **kwargs):
    cfg = synthgen.GeneratorConfig(n_tracks=n_tracks, noise_hits=noise, seed=seed, **kwargs)
    data = synthgen.gen_event(cfg)
    paths = synthgen.event_paths(str(tmp_path), 1)
    synthgen.write_event(data, *paths)
    return hg.load_event(*paths)


GENEROUS = hg.SelectionCuts(pt_min=0.1, dphi_slope_max=0.5, z0_max=1e5, eta_range=(-6, 6))
RAW = hg.SelectionCuts(cut_mode="raw", dphi_slope_max=0.05)
NARROW_ETA = hg.SelectionCuts(pt_min=0.1, dphi_slope_max=0.5, z0_max=1e5, eta_range=(-0.3, 0.4))
NO_PAIRS = np.empty((0, 2), dtype=np.int64)


def id_pairs(hits, pairs):
    """(src hit_id, dst hit_id) of each row pair, in order."""
    return [tuple(p) for p in hits.hit_id[pairs].tolist()]


def assert_matches_all_pairs(hits, cuts):
    got, stats = hg.build_doublets(hits, cuts)
    want, zero_dr, pairs = all_pairs_doublets(hits, cuts)
    assert got.dtype == np.int64 and got.shape == (len(want), 2)
    assert [tuple(p) for p in got.tolist()] == want
    assert stats.zero_dr_skipped == zero_dr
    assert stats.pairs_considered <= pairs
    return got, stats, pairs


class TestLoadEvent:
    def test_round_trip_rows(self, tmp_path):
        paths = write_event_files(
            tmp_path,
            [(1, 1.0, 0.0, 5.0, 8, 2), (2, 0.0, 2.0, -3.0, 13, 4), (3, 3.0, 4.0, 0.0, 7, 2)],
            [(42, 1.0, 1.0, 0.5)],
            [(1, 42), (2, 42), (3, 0)],
        )
        hits = hg.load_event(*paths)
        assert len(hits) == 3
        assert hits.hit_id.tolist() == [1, 2, 3]
        assert hits.volume_id.tolist() == [8, 13, 7]
        assert hits.layer_id.tolist() == [2, 4, 2]
        assert hits.z.tolist() == [5.0, -3.0, 0.0]
        assert hits.has_truth.all()
        assert hits.particle_id.tolist() == [42, 42, 0]
        assert hits.pt[:2].tolist() == pytest.approx([math.sqrt(2.0)] * 2)
        assert math.isnan(hits.pt[2])
        assert (hits.layer_index == -1).all()

    def test_derived_cylindrical(self, tmp_path):
        paths = write_event_files(tmp_path, [(1, 3.0, 4.0, 0.0, 8, 2)], [], [(1, 0)])
        hits = hg.load_event(*paths)
        assert hits.r[0] == pytest.approx(5.0)
        assert hits.phi[0] == pytest.approx(math.atan2(4.0, 3.0))

    def test_truth_join_without_rows(self, tmp_path):
        # hit 2 has no truth row, hit 3's particle has no particle row
        paths = write_event_files(
            tmp_path,
            [(1, 32.0, 0.0, 0.0, 8, 2), (2, 72.0, 0.0, 0.0, 8, 4), (3, 116.0, 0.0, 0.0, 8, 6)],
            [(5, 3.0, 4.0, 0.0)],
            [(1, 5), (3, 6), (99, 5)],
        )
        hits = hg.load_event(*paths)
        assert hits.has_truth.tolist() == [True, False, True]
        assert hits.particle_id.tolist() == [5, 0, 6]
        assert hits.pt[0] == 5.0 and math.isnan(hits.pt[1]) and math.isnan(hits.pt[2])

    def test_ids_are_exact_64_bit_integers(self, tmp_path):
        big = 2**63 - 1
        paths = write_event_files(
            tmp_path,
            [(big, 32.0, 0.0, 0.0, 8, 2), (22525763437723649, 72.0, 0.0, 0.0, 8, 4)],
            [(big, 2.0, 0.0, 0.0), (22525763437723648, 2.0, 0.0, 0.0)],
            [(big, 22525763437723648), (22525763437723649, big)],
        )
        hits = hg.load_event(*paths)
        assert hits.hit_id.dtype == np.int64
        assert hits.hit_id.tolist() == [big, 22525763437723649]
        assert hits.particle_id.tolist() == [22525763437723648, big]
        assert hits.pt.tolist() == [2.0, 2.0]

    @pytest.mark.parametrize("cell", ["1.5", "1e3", "", "9223372036854775808", "-9223372036854775809"])
    @pytest.mark.parametrize(
        "file, column",
        [("hits", "hit_id"), ("hits", "layer_id"), ("particles", "particle_id"), ("truth", "particle_id")],
    )
    def test_bad_id_cell_is_rejected(self, tmp_path, file, column, cell):
        rows = {
            "hits": {"hit_id": 1, "x": 32.0, "y": 0.0, "z": 0.0, "volume_id": 8, "layer_id": 2},
            "particles": {"particle_id": 5, "px": 1.0, "py": 0.0, "pz": 0.0},
            "truth": {"hit_id": 1, "particle_id": 5},
        }
        rows[file][column] = cell
        paths = write_event_files(tmp_path, *([tuple(rows[f].values())] for f in ("hits", "particles", "truth")))
        with pytest.raises(ParseError, match=rf"{file}\.csv:2: .*value {re.escape(repr(cell))} in column '{column}'"):
            hg.load_event(*paths)

    @pytest.mark.parametrize("file", ["hits", "particles", "truth"])
    def test_repeated_id_is_rejected(self, tmp_path, file):
        rows = {
            "hits": [(1, 32.0, 0.0, 0.0, 8, 2), (2, 72.0, 0.0, 0.0, 8, 4)],
            "particles": [(5, 1.0, 0.0, 0.0), (6, 1.0, 0.0, 0.0)],
            "truth": [(1, 5), (2, 6)],
        }
        rows[file].append(rows[file][0])
        paths = write_event_files(tmp_path, rows["hits"], rows["particles"], rows["truth"])
        column = "particle_id" if file == "particles" else "hit_id"
        with pytest.raises(ParseError, match=rf"{file}\.csv:4: repeated {column} {rows[file][0][0]}$"):
            hg.load_event(*paths)

    def test_noise_hit_never_true(self, tmp_path):
        paths = write_event_files(
            tmp_path,
            [(7, 32.0, 0.0, 0.0, 8, 2), (8, 72.0, 0.0, 0.0, 8, 4)],
            [(0, 5.0, 0.0, 0.0)],  # even a high-pt row for particle 0
            [(7, 0), (8, 0)],
        )
        hits = hg.select_barrel_hits(hg.load_event(*paths))
        pairs, _ = hg.build_doublets(hits, GENEROUS)
        labels, _ = hg.label_edges(pairs, hits, GENEROUS)
        assert len(labels) and not labels.any()

    def test_missing_file(self, tmp_path):
        with pytest.raises(IOError):
            hg.load_event(str(tmp_path / "nope.csv"), str(tmp_path / "p.csv"), str(tmp_path / "t.csv"))

    def test_missing_column(self, tmp_path):
        bad = tmp_path / "hits.csv"
        bad.write_text("hit_id,x,y,z,volume_id\n1,0,0,0,8\n")
        other = tmp_path / "o.csv"
        with pytest.raises(SchemaError, match="layer_id"):
            hg.load_event(str(bad), str(other), str(other))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_cell_has_row_number(self, tmp_path, cell):
        bad = tmp_path / "hits.csv"
        bad.write_text(f"hit_id,x,y,z,volume_id,layer_id\n1,0,0,0,8,2\n2,1,{cell},0,8,2\n")
        other = tmp_path / "o.csv"
        with pytest.raises(ParseError, match=r"hits\.csv:3: non-finite value .* column 'y'"):
            hg.load_event(str(bad), str(other), str(other))

    def test_non_finite_momentum_rejected(self, tmp_path):
        paths = write_event_files(tmp_path, [(1, 32.0, 0.0, 0.0, 8, 2)], [(5, 1.0, "nan", 0.0)], [(1, 5)])
        with pytest.raises(ParseError, match=r"particles\.csv:2"):
            hg.load_event(*paths)

    def test_short_row_has_row_number(self, tmp_path):
        bad = tmp_path / "hits.csv"
        bad.write_text("hit_id,x,y,z,volume_id,layer_id\n1,0,0,0,8\n")
        other = tmp_path / "o.csv"
        with pytest.raises(ParseError, match=r"hits\.csv:2: non-numeric value None in column 'layer_id'"):
            hg.load_event(str(bad), str(other), str(other))

    def test_non_numeric_cell_has_row_number(self, tmp_path):
        bad = tmp_path / "hits.csv"
        bad.write_text("hit_id,x,y,z,volume_id,layer_id\n1,0,0,0,8,2\n2,oops,0,0,8,2\n")
        other = tmp_path / "o.csv"
        with pytest.raises(ParseError, match=r"hits\.csv:3"):
            hg.load_event(str(bad), str(other), str(other))

    def test_error_names_the_file_line_after_blank_lines(self, tmp_path):
        bad = tmp_path / "hits.csv"
        bad.write_text("hit_id,x,y,z,volume_id,layer_id\n1,0,0,0,8,2\n\n\n2,oops,0,0,8,2\n")
        other = tmp_path / "o.csv"
        with pytest.raises(ParseError, match=r"hits\.csv:5: non-numeric value 'oops' in column 'x'"):
            hg.load_event(str(bad), str(other), str(other))


HITS_HEADER = "hit_id,x,y,z,volume_id,layer_id"
# Unread columns (y, volume_id) between read ones.
HITS_READ = [("hit_id", int), ("x", float), ("z", float), ("layer_id", int)]
BLOCK = hg._BLOCK_ROWS


def hits_lines(n, seed=0):
    """n valid data lines of a hits file, ids distinct and unordered."""
    rng = np.random.default_rng(seed)
    ids = (1000 + 3 * rng.permutation(n)).tolist()
    xyz = (rng.normal(size=(n, 3)) * 500.0).tolist()
    return [f"{i},{x!r},{y!r},{z!r},8,{2 * (i % 5)}" for i, (x, y, z) in zip(ids, xyz)]


def write_lines(path, lines, header=HITS_HEADER):
    """Write a hits file; a surrogate-escaped character ("\udcff") is
    written as the byte it stands for, which is not UTF-8."""
    path.write_text("\n".join([header, *lines]) + "\n", errors="surrogateescape")
    return str(path)


def assert_screen_agrees(path, columns=HITS_READ):
    """The block screen returns the row-by-row reader's arrays, dtype and
    bytes, for a file that reader accepts and None for one it rejects, and
    _load_columns raises the row-by-row reader's message. Returns that
    message, or None for a valid file."""
    screened = hg._screened_columns(path, columns)
    try:
        want = hg._read_columns(path, columns)
    except ParseError as exc:
        assert screened is None
        with pytest.raises(ParseError) as got:
            hg._load_columns(path, columns)
        assert str(got.value) == str(exc)
        return str(exc)
    assert screened is not None
    assert [(a.dtype, a.tobytes()) for a in screened] == [(a.dtype, a.tobytes()) for a in want]
    return None


# (column, text) of one changed cell: bad, non-finite, out-of-range and
# edge-of-range cells in read columns, and junk in unread ones (y, volume_id).
CELLS = [
    (0, ""), (0, "1e3"), (0, "9223372036854775807"), (0, "9223372036854775808"), (0, " 7"),
    (1, "oops"), (1, "nan"), (1, "-inf"), (1, "-0.0"), (2, "oops"), (3, "inf"), (3, "NaN"),
    (3, "1_0"), (4, "nan"), (5, "1.5"), (5, "-9223372036854775808"), (5, "-9223372036854775809"),
]
FRACTION = st.floats(0.0, 1.0, exclude_max=True)
MUTATIONS = st.tuples(
    st.sampled_from(["short", "repeat", "blank", "multiline", "byte"]),
    FRACTION,  # the line, as a fraction of the lines
    FRACTION,  # the line a repeat copies its id from
    st.integers(0, 5),  # the column
)


def mutate(lines, mutation):
    kind, at, source, col = mutation
    if not lines:
        return [""] if kind == "blank" else lines
    i = int(at * len(lines))
    fields = lines[i].split(",")
    if kind == "blank":
        return lines[:i] + [""] + lines[i:]
    if kind == "short":
        fields = fields[:col]
    elif kind == "repeat":
        fields[0] = lines[int(source * len(lines))].split(",")[0]
    elif kind == "byte":
        fields[col] += "\udcff"  # written as the byte 0xff
    elif col < len(fields):
        fields[col] = '"1\n2"'  # a quoted field over two file lines
    return lines[:i] + [",".join(fields)] + lines[i + 1:]


class TestReadColumns:
    @pytest.mark.parametrize("col, cell", CELLS)
    @settings(max_examples=15)
    @given(
        n=st.integers(1, 2 * BLOCK + 20) | st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]),
        seed=st.integers(0, 3),
        at=FRACTION,
        mutations=st.lists(MUTATIONS, max_size=2),
    )
    def test_screen_agrees_with_row_by_row_reader(self, tmp_path_factory, col, cell, n, seed, at, mutations):
        lines = hits_lines(n, seed)
        fields = lines[int(at * n)].split(",")
        fields[col] = cell
        lines[int(at * n)] = ",".join(fields)
        for mutation in mutations:
            lines = mutate(lines, mutation)
        assert_screen_agrees(write_lines(tmp_path_factory.mktemp("fuzz") / "hits.csv", lines))

    def test_bad_cell_in_second_block(self, tmp_path):
        lines = hits_lines(BLOCK + 200)
        fields = lines[BLOCK + 100].split(",")
        fields[3] = "oops"
        lines[BLOCK + 100] = ",".join(fields)
        message = assert_screen_agrees(write_lines(tmp_path / "hits.csv", lines))
        assert message.endswith(f"hits.csv:{BLOCK + 102}: non-numeric value 'oops' in column 'z'")

    def test_id_repeated_across_blocks(self, tmp_path):
        lines = hits_lines(2 * BLOCK)
        first = lines[3].split(",")[0]
        lines[BLOCK + 5] = ",".join([first] + lines[BLOCK + 5].split(",")[1:])
        message = assert_screen_agrees(write_lines(tmp_path / "hits.csv", lines))
        assert message.endswith(f"hits.csv:{BLOCK + 7}: repeated hit_id {first}")

    def test_header_only_file(self, tmp_path):
        path = write_lines(tmp_path / "hits.csv", [])
        assert assert_screen_agrees(path) is None
        got = hg._load_columns(path, HITS_READ)
        assert [(a.dtype, a.shape) for a in got] == [(np.int64, (0,)), (float, (0,)), (float, (0,)), (np.int64, (0,))]

    def test_blank_block_then_rows(self, tmp_path):
        lines = [""] * (BLOCK + 3) + hits_lines(5)
        assert assert_screen_agrees(write_lines(tmp_path / "hits.csv", lines)) is None
        assert len(hg._load_columns(str(tmp_path / "hits.csv"), HITS_READ)[0]) == 5

    def test_over_long_field_has_row_number(self, tmp_path):
        lines = hits_lines(3)
        lines[1] = lines[1].replace(",8,", "," + "7" * 131073 + ",", 1)
        with pytest.raises(ParseError, match=r"hits\.csv:3: field larger than field limit \(131072\)$"):
            hg._load_columns(write_lines(tmp_path / "hits.csv", lines), HITS_READ)

    @pytest.mark.parametrize(
        "head, line",
        [
            (b"1,0,0,0,8,2\n", 3),
            (b"1,0,0,0,8,2\r\n", 3),
            (b"1,0,0,0,8,2\r", 3),
            (b'1,0,"0\n0",0,8,2\n', 4),  # a quoted field over two lines
        ],
    )
    def test_non_utf8_byte_has_row_number(self, tmp_path, head, line):
        data = HITS_HEADER.encode() + b"\n" + head + b"2,\xff,0,0,8,2\n"
        path = tmp_path / "hits.csv"
        path.write_bytes(data)
        message = rf"hits\.csv:{line}: not UTF-8 text \(invalid start byte at byte {data.index(0xFF)}\)$"
        with pytest.raises(ParseError, match=message):
            hg._load_columns(str(path), HITS_READ)

    @pytest.mark.parametrize("cell, byte", [(1, 3), (3, 1)])
    def test_first_faulty_line_wins_over_a_bad_byte(self, tmp_path, cell, byte):
        # Both lines lie in one decode buffer, so decoding fails before the
        # csv reader reaches the later line.
        lines = [f"{i},{i}.5,0,0,8,2" for i in range(1, 7)]
        lines[cell] = lines[cell].replace(".5,", "oops,", 1)
        lines[byte] = lines[byte].replace(",8,", ",8\udcff,", 1)  # unread column
        message = assert_screen_agrees(write_lines(tmp_path / "hits.csv", lines))
        if cell < byte:
            assert message.endswith(f"hits.csv:{cell + 2}: non-numeric value '{cell + 1}oops' in column 'x'")
        else:
            assert re.search(rf"hits\.csv:{byte + 2}: not UTF-8 text \(invalid start byte at byte \d+\)$", message)


class TestSelectBarrelHits:
    def test_volume_filter(self, tmp_path):
        paths = write_event_files(
            tmp_path,
            [(1, 32.0, 0.0, 0.0, 7, 2), (2, 32.0, 0.0, 0.0, 13, 2), (3, 32.0, 0.0, 0.0, 9, 2)],
            [],
            [(1, 0), (2, 0), (3, 0)],
        )
        hits = hg.load_event(*paths)
        kept = hg.select_barrel_hits(hits)
        assert kept.hit_id.tolist() == [2]
        assert kept.layer_index.tolist() == [0]
        assert len(hits) == 3 and (hits.layer_index == -1).all()  # input untouched

    def test_layer_index_by_mean_radius_then_first_seen(self, tmp_path):
        # (8, 2) has mean r 40 but its first hit at r 100; (17, 2) ties it
        paths = write_event_files(
            tmp_path,
            [(1, 100.0, 0.0, 0.0, 8, 2), (2, 50.0, 0.0, 0.0, 13, 2), (3, 10.0, 0.0, 0.0, 8, 2),
             (4, 40.0, 0.0, 0.0, 17, 2), (5, 10.0, 0.0, 0.0, 8, 2)],
            [],
            [],
        )
        hits = hg.select_barrel_hits(hg.load_event(*paths))
        assert hits.layer_index.tolist() == [0, 2, 0, 1, 0]

    def test_layer_index_follows_radius_order(self, tmp_path):
        hits = hg.select_barrel_hits(synthetic_event(tmp_path, seed=3, n_tracks=30))
        radii = synthgen.DEFAULT_LAYER_RADII
        for r, k in zip(hits.r.tolist(), hits.layer_index.tolist()):
            assert r == pytest.approx(radii[k], abs=1e-6)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"pt_min": 0.0}, "cut values must be positive"),
        ({"dphi_slope_max": math.nan}, "cut values must be positive"),
        ({"z0_max": -math.inf}, "cut values must be positive"),
        ({"eta_range": (1.0, 1.0)}, "eta_range must be an increasing pair"),
        ({"eta_range": (math.nan, 5.0)}, "eta_range must be an increasing pair"),
        ({"cut_mode": "box"}, "unknown cut_mode 'box'"),
        ({"pt_mode": "drop"}, "unknown pt_mode 'drop'"),
    ],
)
def test_invalid_cuts_are_usage_errors(kwargs, message):
    with pytest.raises(UsageError) as exc:
        hg.SelectionCuts(**kwargs)
    assert str(exc.value) == message
    assert exc.value.exit_code == 1 and isinstance(exc.value, ValueError)


def test_filter_low_pt_hits():
    # noise, low pt, high pt, particle without a row, no truth row
    hits = make_hits(
        [cyl(i, 32.0, 0.1 * i, 0.0, 0) for i in range(1, 6)],
        truth={1: (0, math.nan), 2: (7, 0.9), 3: (8, 1.1), 4: (9, math.nan)},
    )
    kept = hg.filter_low_pt_hits(hits, 1.0)
    assert kept.hit_id.tolist() == [1, 3, 4, 5]
    assert len(hits) == 5  # input untouched


class TestBuildDoublets:
    def test_non_adjacent_layers_skipped(self):
        hits = make_hits([(1, 32.0, 0.0, 0.0, 0), (2, 116.0, 0.0, 0.0, 2)])
        pairs, _ = hg.build_doublets(hits, GENEROUS)
        assert pairs.shape == (0, 2)

    def test_radially_aligned_pair_passes(self, tmp_path):
        paths = write_event_files(
            tmp_path,
            [(1, 32.0, 0.0, 0.0, 8, 2), (2, 72.0, 0.0, 0.0, 8, 4)],
            [],
            [(1, 0), (2, 0)],
        )
        hits = hg.select_barrel_hits(hg.load_event(*paths))
        pairs, _ = hg.build_doublets(hits, hg.SelectionCuts())
        assert pairs.tolist() == [[0, 1]]
        dphi, _, _, z0, eta = doublet_geometry(*hit_coords(hits))
        assert dphi == 0.0 and z0 == 0.0 and eta == pytest.approx(0.0)

    def test_slope_cut_rejects(self):
        # dphi = 0.1 rad over dr = 40 mm -> slope 0.0025 > 0.0006
        hits = make_hits([
            (1, 32.0, 0.0, 0.0, 0),
            (2, 72.0 * math.cos(0.1), 72.0 * math.sin(0.1), 0.0, 1),
        ])
        pairs, _ = hg.build_doublets(hits, hg.SelectionCuts())
        assert len(pairs) == 0
        loose = hg.SelectionCuts(dphi_slope_max=0.003)
        pairs, _ = hg.build_doublets(hits, loose)
        assert len(pairs) == 1

    def test_zero_dr_skipped_not_fatal(self):
        # same radius, nominally next layer
        hits = make_hits([(1, 32.0, 0.0, 0.0, 0), (2, 0.0, 32.0, 5.0, 1)])
        pairs, stats = hg.build_doublets(hits, GENEROUS)
        assert len(pairs) == 0
        assert stats.zero_dr_skipped == 1

    def test_emitted_doublets_satisfy_cuts(self, tmp_path):
        hits = hg.select_barrel_hits(synthetic_event(tmp_path, seed=5, n_tracks=40, noise=60))
        coords = hit_coords(hits)
        for cuts in (hg.SelectionCuts(), GENEROUS):
            pairs, _ = hg.build_doublets(hits, cuts)
            for src, dst in pairs.tolist():
                assert coords[src][0] < coords[dst][0]
                assert passes_cuts(doublet_geometry(coords[src], coords[dst]), cuts)

    def test_monotone_in_cut_values(self, tmp_path):
        hits = hg.select_barrel_hits(synthetic_event(tmp_path, seed=9, n_tracks=40, noise=80))
        base = hg.SelectionCuts(dphi_slope_max=0.001, z0_max=50.0, eta_range=(-2, 2))
        n_base = len(hg.build_doublets(hits, base)[0])
        for loosened in (
            hg.SelectionCuts(dphi_slope_max=0.01, z0_max=50.0, eta_range=(-2, 2)),
            hg.SelectionCuts(dphi_slope_max=0.001, z0_max=500.0, eta_range=(-2, 2)),
            hg.SelectionCuts(dphi_slope_max=0.001, z0_max=50.0, eta_range=(-4, 4)),
        ):
            assert len(hg.build_doublets(hits, loosened)[0]) >= n_base

    def test_non_finite_coordinate_is_data_error(self):
        a = cyl(1, 32.0, 0.0, 0.0, 0)
        b = cyl(2, 72.0, 0.0, float("nan"), 1)
        with pytest.raises(DataError, match="hit 2 has a non-finite coordinate"):
            hg.build_doublets(make_hits([a, b]), hg.SelectionCuts())
        c = (3, float("inf"), 0.0, 0.0, 1)
        with pytest.raises(DataError, match="hit 3"):
            hg.build_doublets(make_hits([a, c]), hg.SelectionCuts())

    def test_unselected_hits_are_data_error(self):
        hits = make_hits([cyl(1, 32.0, 0.0, 0.0, 0), cyl(2, 72.0, 0.0, 0.0, -1)])
        with pytest.raises(DataError, match="hit 2 has no layer_index"):
            hg.build_doublets(hits, hg.SelectionCuts())

    def test_raw_cut_mode(self):
        hits = make_hits([
            (1, 32.0, 0.0, 0.0, 0),
            (2, 72.0 * math.cos(0.0004), 72.0 * math.sin(0.0004), 0.0, 1),
        ])
        pairs, _ = hg.build_doublets(hits, hg.SelectionCuts(cut_mode="raw"))
        assert len(pairs) == 1  # |dphi| = 0.0004 < 0.0006


class TestWindowMatchesAllPairs:
    """build_doublets searches a phi window; the all-pairs loop is its oracle."""

    @pytest.mark.parametrize("seed", [5, 11])
    @pytest.mark.parametrize(
        "cuts",
        [hg.SelectionCuts(), GENEROUS, RAW, hg.SelectionCuts(cut_mode="raw"), NARROW_ETA],
        ids=["default", "generous", "raw", "raw-default", "narrow-eta"],
    )
    def test_synthgen_events(self, tmp_path, seed, cuts):
        event = synthetic_event(tmp_path, seed=seed, n_tracks=40, noise=300, smear_sigma=0.5)
        hits = hg.select_barrel_hits(event)
        got, stats, pairs = assert_matches_all_pairs(hits, cuts)
        assert len(got)
        if cuts is NARROW_ETA:
            assert len(got) < len(hg.build_doublets(hits, GENEROUS)[0])
        elif cuts is GENEROUS:
            assert stats.pairs_considered == pairs  # window covers the circle
        else:
            assert stats.pairs_considered < pairs / 4

    def test_pairs_across_the_seam(self):
        hits = make_hits([
            cyl(1, 32.0, math.pi - 0.001, 0.0, 0),
            cyl(2, 32.0, -math.pi + 0.002, 0.0, 0),
            cyl(3, 72.0, -math.pi + 0.001, 0.0, 1),
            cyl(4, 72.0, math.pi - 0.002, 0.0, 1),
            cyl(5, 72.0, 0.0, 0.0, 1),
            cyl(6, 72.0, math.pi, 0.0, 1),
        ])
        got, _, _ = assert_matches_all_pairs(hits, hg.SelectionCuts())
        assert id_pairs(hits, got) == [
            (1, 3), (1, 4), (1, 6), (2, 3), (2, 4), (2, 6)
        ]

    @pytest.mark.parametrize("mode", ["slope", "raw"])
    def test_cut_value_exactly_on_a_pair(self, mode):
        # A pair whose |dphi| (raw) or |dphi|/dr (slope) equals the cut fails
        # it; one ulp more and it passes. Near the seam and elsewhere, the
        # window must hold the pair in both cases.
        rng = np.random.default_rng(17)
        for _ in range(300):
            phi = float(rng.choice([math.pi, -math.pi, 0.0, 1.0])) + float(rng.uniform(-0.01, 0.01))
            hits = make_hits([
                cyl(1, float(rng.uniform(20, 40)), phi, 1.0, 0),
                cyl(2, float(rng.uniform(60, 80)), phi + float(rng.uniform(-0.03, 0.03)), 2.0, 1),
            ])
            dphi, _, dr, _, _ = doublet_geometry(*hit_coords(hits))
            value = abs(dphi) / dr if mode == "slope" else abs(dphi)
            if value == 0.0:
                continue
            on_cut = hg.SelectionCuts(dphi_slope_max=value, cut_mode=mode)
            assert len(assert_matches_all_pairs(hits, on_cut)[0]) == 0
            above = hg.SelectionCuts(dphi_slope_max=math.nextafter(value, 1.0), cut_mode=mode)
            assert len(assert_matches_all_pairs(hits, above)[0]) == 1

    def test_z0_and_eta_bounds_exactly_on_a_pair(self):
        # |z0| equal to z0_max fails; eta equal to either end of eta_range passes
        rng = np.random.default_rng(29)
        for _ in range(100):
            phi = float(rng.uniform(-math.pi, math.pi))
            hits = make_hits([
                cyl(1, float(rng.uniform(20, 40)), phi, float(rng.uniform(-50, 50)), 0),
                cyl(2, float(rng.uniform(60, 80)), phi, float(rng.uniform(-150, 150)), 1),
            ])
            _, _, _, z0, eta = doublet_geometry(*hit_coords(hits))
            if z0 == 0.0:
                continue
            cases = [
                (dict(z0_max=abs(z0)), 0),
                (dict(z0_max=math.nextafter(abs(z0), math.inf)), 1),
                (dict(eta_range=(eta, eta + 1.0)), 1),
                (dict(eta_range=(math.nextafter(eta, math.inf), eta + 1.0)), 0),
                (dict(eta_range=(eta - 1.0, eta)), 1),
                (dict(eta_range=(eta - 1.0, math.nextafter(eta, -math.inf))), 0),
            ]
            for bounds, n in cases:
                cuts = hg.SelectionCuts(**{"z0_max": 1e4, "eta_range": (-9.0, 9.0), **bounds})
                assert len(assert_matches_all_pairs(hits, cuts)[0]) == n

    def test_zero_dr_pair_outside_the_window(self):
        hits = make_hits([
            cyl(1, 32.0, 0.0, 0.0, 0),
            cyl(2, 72.0, 0.0, 0.0, 1),
            cyl(3, 32.0, 2.0, 0.0, 1),  # same r as hit 1, far in phi
        ])
        got, stats, _ = assert_matches_all_pairs(hits, hg.SelectionCuts())
        assert id_pairs(hits, got) == [(1, 2)]
        assert stats.zero_dr_skipped == 1
        assert stats.pairs_considered == 1

    def test_inner_layer_hit_outside_its_partner(self):
        hits = make_hits([
            cyl(1, 80.0, 0.5, 3.0, 0),
            cyl(2, 72.0, 0.5, 1.0, 1),
            cyl(3, 30.0, 0.5, 0.0, 1),
        ])
        got, _, _ = assert_matches_all_pairs(hits, hg.SelectionCuts())
        assert id_pairs(hits, got) == [(2, 1), (3, 1)]
        assert (hits.r[got[:, 0]] < hits.r[got[:, 1]]).all()

    def test_empty_next_layer_and_one_hit_layer(self):
        hits = make_hits([
            cyl(1, 32.0, 0.1, 0.0, 0),
            cyl(2, 116.0, 0.1, 0.0, 2),
            cyl(3, 172.0, 0.1, 0.0, 3),
            cyl(4, 172.0, 0.1002, 0.0, 3),
            cyl(5, 172.0, -2.0, 0.0, 3),
        ])
        got, stats, _ = assert_matches_all_pairs(hits, hg.SelectionCuts())
        assert id_pairs(hits, got) == [(2, 3), (2, 4)]
        assert stats.pairs_considered == 2


def test_abs_wrapped_dphi_has_the_bits_of_the_scalar_wrap():
    """A difference of two atan2 angles lies in [-2pi, 2pi]. There the
    one-step wrap equals abs(wrap_phi) bit for bit, at the seams too."""
    pi = math.pi
    phis = [pi, -pi, 0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0]
    phis += [math.nextafter(v, t) for v in (pi, -pi) for t in (0.0, 10.0, -10.0)]
    phis = np.array([v for v in phis if abs(v) <= pi])
    rng = np.random.default_rng(8)
    random_phis = np.arctan2(rng.normal(size=(2, 200_000)), rng.normal(size=(2, 200_000)))
    dphi = np.concatenate([
        (phis[:, None] - phis[None, :]).ravel(),
        random_phis[1] - random_phis[0],
        [pi, -pi, 2 * pi, -2 * pi, 0.0, -0.0, 5e-324, -5e-324],
        [math.nextafter(v, t) for v in (pi, -pi, 2 * pi, -2 * pi) for t in (0.0, 10.0, -10.0)],
    ])
    dphi = dphi[np.abs(dphi) <= 2 * pi]
    want = np.array([abs(wrap_phi(d)) for d in dphi.tolist()])
    assert np.array_equal(hg._abs_wrapped_dphi(dphi).view(np.int64), want.view(np.int64))


def test_preprocess_bytes_match_all_pairs_pipeline(tmp_path):
    events = tmp_path / "events"
    assert main(["gen", "--out", str(events), "--tracks", "60", "--noise", "400", "--seed", "4"]) == 0
    out = tmp_path / "cli"
    assert main(["preprocess", "--in", str(events), "--out", str(out)]) == 0

    cuts = hg.SelectionCuts()
    hits = hg.select_barrel_hits(hg.load_event(*synthgen.event_paths(str(events), 1)))
    pairs = np.array(all_pairs_doublets(hits, cuts)[0], dtype=np.int64)
    assert len(pairs)
    labels, _ = hg.label_edges(pairs, hits, cuts)
    subgraphs, _ = hg.section_graph(hits, pairs, labels, event_id=1)
    ref = tmp_path / "ref"
    for g in subgraphs:
        hg.write_subgraph(g, str(ref))
    names = sorted(os.listdir(ref))
    assert names == sorted(n for n in os.listdir(out) if n.startswith("evt"))
    for name in names:
        for f in ("nodes.csv", "edges.csv"):
            assert (out / name / f).read_bytes() == (ref / name / f).read_bytes()


class TestLabelEdges:
    PAIR = np.array([[0, 1]], dtype=np.int64)

    def _hits(self, truth):
        return make_hits([(1, 32.0, 0.0, 0.0, 0), (2, 72.0, 0.0, 0.0, 1)], truth)

    def test_shared_high_pt_particle_true(self):
        hits = self._hits({1: (42, 2.3), 2: (42, 2.3)})
        labels, _ = hg.label_edges(self.PAIR, hits, hg.SelectionCuts())
        assert labels.tolist() == [True]

    def test_shared_low_pt_particle_false(self):
        hits = self._hits({1: (42, 0.4), 2: (42, 0.4)})
        labels, _ = hg.label_edges(self.PAIR, hits, hg.SelectionCuts())
        assert labels.tolist() == [False]

    def test_shared_particle_at_pt_threshold_false(self):
        hits = self._hits({1: (42, 1.0), 2: (42, 1.0)})
        labels, _ = hg.label_edges(self.PAIR, hits, hg.SelectionCuts(pt_min=1.0))
        assert labels.tolist() == [False]

    def test_different_particles_false(self):
        hits = self._hits({1: (1, 2.0), 2: (2, 2.0)})
        labels, _ = hg.label_edges(self.PAIR, hits, hg.SelectionCuts())
        assert labels.tolist() == [False]

    def test_missing_truth_counts_as_noise(self):
        hits = self._hits({1: (5, math.nan)})
        labels, stats = hg.label_edges(self.PAIR, hits, hg.SelectionCuts())
        assert labels.tolist() == [False]
        assert stats.missing_truth == 1

    def test_labels_symmetric_in_hit_order(self):
        hits = self._hits({1: (9, 3.0), 2: (9, 3.0)})
        labels, _ = hg.label_edges(np.array([[0, 1], [1, 0]]), hits, hg.SelectionCuts())
        assert labels.tolist() == [True, True]


class TestSectioning:
    def test_sixteen_subgraphs(self, tmp_path):
        hits = hg.select_barrel_hits(synthetic_event(tmp_path, seed=7, n_tracks=20, noise=20))
        pairs, _ = hg.build_doublets(hits, GENEROUS)
        labels, _ = hg.label_edges(pairs, hits, GENEROUS)
        subgraphs, _ = hg.section_graph(hits, pairs, labels, event_id=1)
        assert len(subgraphs) == 16
        assert sorted(g.sector for g in subgraphs) == [
            (p, z) for p in range(8) for z in range(2)
        ]

    def test_boundary_node(self):
        assert sector_of(-math.pi, -10.0) == (0, 0)
        assert sector_of(math.pi, 5.0) == (0, 1)  # pi wraps to -pi
        assert sector_of(0.0, 0.0) == (4, 1)  # z >= 0 upper half

    def test_sectors_match_scalar_rule_at_boundaries(self):
        # phi = +-pi, each wedge boundary and its three floats either side,
        # each with z of both signs of zero, the smallest subnormals and +-1.
        phis = []
        for k in range(hg.N_PHI_SECTORS + 1):
            lo = hi = -math.pi + k * math.pi / 4.0
            phis.append(lo)
            for _ in range(3):
                lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
                phis += [lo, hi]
        phis = [p for p in phis + [math.pi] if -math.pi <= p <= math.pi]
        rows = [(phi, z) for phi in phis for z in (-0.0, 0.0, -5e-324, 5e-324, -1.0, 1.0)]
        n = len(rows)
        hits = hg.Hits(
            hit_id=np.arange(n),
            volume_id=np.full(n, 8),
            layer_id=np.full(n, 2),
            r=np.arange(n, dtype=float),  # names the row
            phi=np.array([phi for phi, _ in rows]),
            z=np.array([z for _, z in rows]),
            has_truth=np.zeros(n, dtype=bool),
            particle_id=np.zeros(n, dtype=np.int64),
            pt=np.full(n, np.nan),
            layer_index=np.zeros(n, dtype=np.int64),
        )
        subgraphs, _ = hg.section_graph(hits, NO_PAIRS, np.empty(0, dtype=bool))
        got = {int(r): g.sector for g in subgraphs for r, _, _ in g.nodes}
        assert [got[i] for i in range(n)] == [sector_of(phi, z) for phi, z in rows]

    def test_nodes_partitioned(self, tmp_path):
        hits = hg.select_barrel_hits(synthetic_event(tmp_path, seed=13, n_tracks=30, noise=40))
        subgraphs, _ = hg.section_graph(hits, NO_PAIRS, np.empty(0, dtype=bool), event_id=1)
        assert sum(len(g.nodes) for g in subgraphs) == len(hits)
        for g in subgraphs:
            lo = -math.pi + g.sector[0] * math.pi / 4
            for r, phi, z in g.nodes:
                wrapped = -math.pi if phi == math.pi else phi
                assert lo <= wrapped < lo + math.pi / 4
                assert (z >= 0) == bool(g.sector[1])

    def test_cross_sector_edges_dropped(self):
        # phi 0 is sector 4, phi pi/2 sector 6
        hits = make_hits([(1, 32.0, 0.0, 10.0, 0), (2, 0.0, 72.0, 10.0, 1)])
        subgraphs, dropped = hg.section_graph(hits, np.array([[0, 1]]), np.array([True]), event_id=1)
        assert dropped == 1
        assert all(g.edges == [] for g in subgraphs)

    def test_repeated_id_does_not_alias_hits(self):
        # rows, not ids, name the endpoints: two hits sharing id 1 stay apart
        hits = make_hits([cyl(1, 32.0, 0.1, 1.0, 0), cyl(1, 33.0, 0.1, 1.0, 0), cyl(2, 72.0, 0.1, 1.0, 1)])
        pairs = np.array([[0, 2], [1, 2]])
        subgraphs, dropped = hg.section_graph(hits, pairs, np.array([True, False]), event_id=1)
        (g,) = [g for g in subgraphs if g.nodes]
        assert dropped == 0
        assert len(g.nodes) == 3
        assert g.edges == [(0, 2, 1), (1, 2, 0)]


class TestSubgraphRoundTrip:
    def test_empty_graph(self, tmp_path):
        g = hg.SubGraph(3, (2, 1), [], [])
        path = hg.write_subgraph(g, str(tmp_path))
        assert hg.read_subgraph(path) == g

    def test_small_graph_exact(self, tmp_path):
        g = hg.SubGraph(
            12,
            (5, 0),
            [(32.0, 0.125, -7.5), (72.0, 0.1250000001, -3.25), (116.0, 0.13, -1.0)],
            [(0, 1, 1), (1, 2, 0)],
        )
        path = hg.write_subgraph(g, str(tmp_path))
        assert hg.read_subgraph(path) == g

    def test_many_random_graphs(self, tmp_path):
        rng = np.random.default_rng(23)
        for i in range(200):
            g = random_subgraph(rng)
            root = tmp_path / f"g{i}"
            path = hg.write_subgraph(g, str(root))
            assert hg.read_subgraph(path) == g

    def test_finite_coordinates_whose_sum_overflows(self, tmp_path):
        g = hg.SubGraph(1, (0, 0), [(1e308, 3.0, 1e308), (1.5e308, -3.0, -1.0)], [(0, 1, 1)])
        path = hg.write_subgraph(g, str(tmp_path))
        assert hg.read_subgraph(path) == g

    def test_malformed_edges_line_number(self, tmp_path):
        g = hg.SubGraph(1, (0, 0), [(1.0, 0.0, 0.0), (2.0, 0.0, 0.0)], [(0, 1, 1)])
        path = hg.write_subgraph(g, str(tmp_path))
        edges = tmp_path / "evt1_s00" / "edges.csv"
        edges.write_text("src,dst,label\n0,1,1\n0,x,1\n")
        with pytest.raises(ParseError, match=r"edges\.csv:3"):
            hg.read_subgraph(path)

    def test_bad_header(self, tmp_path):
        g = hg.SubGraph(1, (0, 0), [], [])
        path = hg.write_subgraph(g, str(tmp_path))
        (tmp_path / "evt1_s00" / "nodes.csv").write_text("id,r,phi,z\n")
        with pytest.raises(ParseError, match=r"nodes\.csv:1"):
            hg.read_subgraph(path)

    def test_bad_directory_name(self, tmp_path):
        with pytest.raises(ParseError):
            hg.read_subgraph(str(tmp_path / "whatever"))

    @staticmethod
    def two_edge_graph(tmp_path):
        g = hg.SubGraph(1, (0, 0), [(1.0, 0.5, -2.0), (2.0, 0.25, 3.0)], [(0, 1, 1), (1, 0, 0)])
        return g, hg.write_subgraph(g, str(tmp_path))

    @staticmethod
    def rewrite(path, text):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)

    @pytest.mark.parametrize("name", ["nodes.csv", "edges.csv"])
    def test_crlf_and_missing_final_newline_read_the_same(self, tmp_path, name):
        g, path = self.two_edge_graph(tmp_path)
        csv_path = os.path.join(path, name)
        text = open(csv_path, encoding="utf-8").read()
        crlf = text.replace("\n", "\r\n")
        header, rows = text.split("\n", 1)
        # a form feed ends a line for str.splitlines, not for file iteration
        form_feed = header + "\n" + rows.replace("\n", "\x0c\n")
        for variant in (crlf, text[:-1], crlf[:-2], form_feed):
            self.rewrite(csv_path, variant)
            assert hg.read_subgraph(path) == g

    @pytest.mark.parametrize("name, fields", [("nodes.csv", 4), ("edges.csv", 3)])
    def test_blank_line_is_error_at_its_line(self, tmp_path, name, fields):
        _, path = self.two_edge_graph(tmp_path)
        csv_path = os.path.join(path, name)
        header, row1, row2, _ = open(csv_path, encoding="utf-8").read().split("\n")
        for lineno, variant in (
            (3, f"{header}\n{row1}\n\n{row2}\n"),  # blank interior line
            (3, f"{header}\r\n{row1}\r\n\r\n{row2}\r\n"),
            (4, f"{header}\n{row1}\n{row2}\n\n"),  # two final newlines
        ):
            self.rewrite(csv_path, variant)
            with pytest.raises(ParseError) as exc:
                hg.read_subgraph(path)
            assert str(exc.value) == f"{csv_path}:{lineno}: expected {fields} fields"

    @pytest.mark.parametrize("name", ["nodes.csv", "edges.csv"])
    def test_empty_file_is_missing_header(self, tmp_path, name):
        _, path = self.two_edge_graph(tmp_path)
        csv_path = os.path.join(path, name)
        self.rewrite(csv_path, "")
        with pytest.raises(ParseError) as exc:
            hg.read_subgraph(path)
        assert str(exc.value) == f"{csv_path}:1: missing header"


def test_truth_doublet_recall_with_generous_cuts(tmp_path):
    # zero-noise events: every consecutive-layer pair of a generated track
    # must come out as a true-labeled doublet
    hits = hg.select_barrel_hits(synthetic_event(tmp_path, seed=31, n_tracks=50))
    pairs, _ = hg.build_doublets(hits, GENEROUS)
    labels, _ = hg.label_edges(pairs, hits, GENEROUS)

    per_particle = {}
    for pid, k, hit_id in zip(hits.particle_id.tolist(), hits.layer_index.tolist(), hits.hit_id.tolist()):
        per_particle.setdefault(pid, {})[k] = hit_id
    expected = set()
    for pid, layers in per_particle.items():
        for k in layers:
            if k + 1 in layers:
                expected.add((layers[k], layers[k + 1]))
    got = set(id_pairs(hits, pairs[labels]))
    assert expected
    assert expected <= got
