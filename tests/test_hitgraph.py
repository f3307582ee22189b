import math
import os

import numpy as np
import pytest

from qseed.cli import main
from qseed.errors import DataError, ParseError, SchemaError
from qseed import hitgraph as hg
from qseed import synthgen

from conftest import random_subgraph


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


def all_pairs_doublets(hits, cuts):
    """Reference doublet builder: every consecutive-layer pair, in loop order."""
    layers = {}
    for h in hits:
        layers.setdefault(h.layer_index, []).append(h)
    doublets, zero_dr, pairs = [], 0, 0
    for k in sorted(layers):
        if k + 1 not in layers:
            continue
        for inner in layers[k]:
            for outer in layers[k + 1]:
                pairs += 1
                src, dst = (inner, outer) if inner.r <= outer.r else (outer, inner)
                if dst.r == src.r:
                    zero_dr += 1
                    continue
                d = hg.Doublet(src.hit_id, dst.hit_id, *hg.doublet_geometry(src, dst))
                if hg.passes_cuts(d, cuts):
                    doublets.append(d)
    return doublets, zero_dr, pairs


def doublet_bits(doublets):
    """Every field of every doublet, floats as exact hex, in order."""
    return [
        (d.src_hit, d.dst_hit, *(x.hex() for x in (d.dphi, d.dz, d.dr, d.z0, d.eta)), d.label)
        for d in doublets
    ]


def assert_matches_all_pairs(hits, cuts):
    got, stats = hg.build_doublets(hits, cuts)
    want, zero_dr, pairs = all_pairs_doublets(hits, cuts)
    assert doublet_bits(got) == doublet_bits(want)
    assert stats.zero_dr_skipped == zero_dr
    assert stats.pairs_considered <= pairs
    return got, stats, pairs


def cyl_hit(hit_id, r, phi, z, layer_index):
    h = hg.Hit(hit_id, r * math.cos(phi), r * math.sin(phi), z, 8, 2 * layer_index + 2)
    h.layer_index = layer_index
    return h


class TestLoadEvent:
    def test_round_trip_rows(self, tmp_path):
        paths = write_event_files(
            tmp_path,
            [(1, 1.0, 0.0, 5.0, 8, 2), (2, 0.0, 2.0, -3.0, 13, 4), (3, 3.0, 4.0, 0.0, 7, 2)],
            [(42, 1.0, 1.0, 0.5)],
            [(1, 42), (2, 42), (3, 0)],
        )
        event = hg.load_event(*paths)
        assert len(event.hits) == 3
        assert event.truth == {1: 42, 2: 42, 3: 0}
        assert event.particles[42].pt == pytest.approx(math.sqrt(2.0))

    def test_derived_cylindrical(self, tmp_path):
        paths = write_event_files(tmp_path, [(1, 3.0, 4.0, 0.0, 8, 2)], [], [(1, 0)])
        hit = hg.load_event(*paths).hits[0]
        assert hit.r == pytest.approx(5.0)
        assert hit.phi == pytest.approx(math.atan2(4.0, 3.0))

    def test_noise_hit_never_true(self, tmp_path):
        paths = write_event_files(
            tmp_path,
            [(7, 32.0, 0.0, 0.0, 8, 2), (8, 72.0, 0.0, 0.0, 8, 4)],
            [],
            [(7, 0), (8, 0)],
        )
        event = hg.load_event(*paths)
        hits = hg.select_barrel_hits(event)
        doublets, _ = hg.build_doublets(hits, GENEROUS)
        doublets, _ = hg.label_edges(doublets, event.truth, event.particles, GENEROUS)
        assert doublets and all(d.label is False for d in doublets)

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


class TestSelectBarrelHits:
    def test_volume_filter(self, tmp_path):
        paths = write_event_files(
            tmp_path,
            [(1, 32.0, 0.0, 0.0, 7, 2), (2, 32.0, 0.0, 0.0, 13, 2), (3, 32.0, 0.0, 0.0, 9, 2)],
            [],
            [(1, 0), (2, 0), (3, 0)],
        )
        kept = hg.select_barrel_hits(hg.load_event(*paths))
        assert [h.hit_id for h in kept] == [2]

    def test_layer_index_follows_radius_order(self, tmp_path):
        event = synthetic_event(tmp_path, seed=3, n_tracks=30)
        hits = hg.select_barrel_hits(event)
        radii = synthgen.DEFAULT_LAYER_RADII
        for h in hits:
            assert h.r == pytest.approx(radii[h.layer_index], abs=1e-6)


class TestBuildDoublets:
    def test_non_adjacent_layers_skipped(self):
        a = hg.Hit(1, 32.0, 0.0, 0.0, 8, 2)
        b = hg.Hit(2, 116.0, 0.0, 0.0, 8, 6)
        a.layer_index, b.layer_index = 0, 2
        doublets, _ = hg.build_doublets([a, b], GENEROUS)
        assert doublets == []

    def test_radially_aligned_pair_passes(self, tmp_path):
        paths = write_event_files(
            tmp_path,
            [(1, 32.0, 0.0, 0.0, 8, 2), (2, 72.0, 0.0, 0.0, 8, 4)],
            [],
            [(1, 0), (2, 0)],
        )
        hits = hg.select_barrel_hits(hg.load_event(*paths))
        doublets, _ = hg.build_doublets(hits, hg.SelectionCuts())
        assert len(doublets) == 1
        d = doublets[0]
        assert d.dphi == 0.0 and d.z0 == 0.0 and d.eta == pytest.approx(0.0)

    def test_slope_cut_rejects(self):
        # dphi = 0.1 rad over dr = 40 mm -> slope 0.0025 > 0.0006
        src = hg.Hit(1, 32.0, 0.0, 0.0, 8, 2)
        dst = hg.Hit(2, 72.0 * math.cos(0.1), 72.0 * math.sin(0.1), 0.0, 8, 4)
        src.layer_index, dst.layer_index = 0, 1
        doublets, _ = hg.build_doublets([src, dst], hg.SelectionCuts())
        assert doublets == []
        loose = hg.SelectionCuts(dphi_slope_max=0.003)
        doublets, _ = hg.build_doublets([src, dst], loose)
        assert len(doublets) == 1

    def test_zero_dr_skipped_not_fatal(self):
        a = hg.Hit(1, 32.0, 0.0, 0.0, 8, 2)
        b = hg.Hit(2, 0.0, 32.0, 5.0, 8, 4)  # same radius, nominally next layer
        a.layer_index, b.layer_index = 0, 1
        doublets, stats = hg.build_doublets([a, b], GENEROUS)
        assert doublets == []
        assert stats.zero_dr_skipped == 1

    def test_emitted_doublets_satisfy_cuts(self, tmp_path):
        event = synthetic_event(tmp_path, seed=5, n_tracks=40, noise=60)
        hits = hg.select_barrel_hits(event)
        for cuts in (hg.SelectionCuts(), GENEROUS):
            doublets, _ = hg.build_doublets(hits, cuts)
            for d in doublets:
                assert hg.passes_cuts(d, cuts)

    def test_monotone_in_cut_values(self, tmp_path):
        event = synthetic_event(tmp_path, seed=9, n_tracks=40, noise=80)
        hits = hg.select_barrel_hits(event)
        base = hg.SelectionCuts(dphi_slope_max=0.001, z0_max=50.0, eta_range=(-2, 2))
        n_base = len(hg.build_doublets(hits, base)[0])
        for loosened in (
            hg.SelectionCuts(dphi_slope_max=0.01, z0_max=50.0, eta_range=(-2, 2)),
            hg.SelectionCuts(dphi_slope_max=0.001, z0_max=500.0, eta_range=(-2, 2)),
            hg.SelectionCuts(dphi_slope_max=0.001, z0_max=50.0, eta_range=(-4, 4)),
        ):
            assert len(hg.build_doublets(hits, loosened)[0]) >= n_base

    def test_non_finite_coordinate_is_data_error(self):
        a = cyl_hit(1, 32.0, 0.0, 0.0, 0)
        b = cyl_hit(2, 72.0, 0.0, float("nan"), 1)
        with pytest.raises(DataError, match="hit 2 has a non-finite coordinate"):
            hg.build_doublets([a, b], hg.SelectionCuts())
        c = hg.Hit(3, float("inf"), 0.0, 0.0, 8, 4)
        c.layer_index = 1
        with pytest.raises(DataError, match="hit 3"):
            hg.build_doublets([a, c], hg.SelectionCuts())

    def test_raw_cut_mode(self):
        src = hg.Hit(1, 32.0, 0.0, 0.0, 8, 2)
        dst = hg.Hit(2, 72.0 * math.cos(0.0004), 72.0 * math.sin(0.0004), 0.0, 8, 4)
        src.layer_index, dst.layer_index = 0, 1
        raw_cuts = hg.SelectionCuts(cut_mode="raw")
        doublets, _ = hg.build_doublets([src, dst], raw_cuts)
        assert len(doublets) == 1  # |dphi| = 0.0004 < 0.0006


class TestWindowMatchesAllPairs:
    """build_doublets searches a phi window; the all-pairs loop is its oracle."""

    @pytest.mark.parametrize("seed", [5, 11])
    @pytest.mark.parametrize(
        "cuts",
        [hg.SelectionCuts(), GENEROUS, RAW, hg.SelectionCuts(cut_mode="raw")],
        ids=["default", "generous", "raw", "raw-default"],
    )
    def test_synthgen_events(self, tmp_path, seed, cuts):
        event = synthetic_event(tmp_path, seed=seed, n_tracks=40, noise=300, smear_sigma=0.5)
        hits = hg.select_barrel_hits(event)
        got, stats, pairs = assert_matches_all_pairs(hits, cuts)
        assert got
        if cuts is GENEROUS:
            assert stats.pairs_considered == pairs  # window covers the circle
        else:
            assert stats.pairs_considered < pairs / 4

    def test_pairs_across_the_seam(self):
        hits = [
            cyl_hit(1, 32.0, math.pi - 0.001, 0.0, 0),
            cyl_hit(2, 32.0, -math.pi + 0.002, 0.0, 0),
            cyl_hit(3, 72.0, -math.pi + 0.001, 0.0, 1),
            cyl_hit(4, 72.0, math.pi - 0.002, 0.0, 1),
            cyl_hit(5, 72.0, 0.0, 0.0, 1),
            cyl_hit(6, 72.0, math.pi, 0.0, 1),
        ]
        got, _, _ = assert_matches_all_pairs(hits, hg.SelectionCuts())
        assert [(d.src_hit, d.dst_hit) for d in got] == [
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
            hits = [
                cyl_hit(1, float(rng.uniform(20, 40)), phi, 1.0, 0),
                cyl_hit(2, float(rng.uniform(60, 80)), phi + float(rng.uniform(-0.03, 0.03)), 2.0, 1),
            ]
            dphi, _, dr, _, _ = hg.doublet_geometry(hits[0], hits[1])
            value = abs(dphi) / dr if mode == "slope" else abs(dphi)
            if value == 0.0:
                continue
            on_cut = hg.SelectionCuts(dphi_slope_max=value, cut_mode=mode)
            assert assert_matches_all_pairs(hits, on_cut)[0] == []
            above = hg.SelectionCuts(dphi_slope_max=math.nextafter(value, 1.0), cut_mode=mode)
            assert len(assert_matches_all_pairs(hits, above)[0]) == 1

    def test_zero_dr_pair_outside_the_window(self):
        hits = [
            cyl_hit(1, 32.0, 0.0, 0.0, 0),
            cyl_hit(2, 72.0, 0.0, 0.0, 1),
            cyl_hit(3, 32.0, 2.0, 0.0, 1),  # same r as hit 1, far in phi
        ]
        got, stats, _ = assert_matches_all_pairs(hits, hg.SelectionCuts())
        assert [(d.src_hit, d.dst_hit) for d in got] == [(1, 2)]
        assert stats.zero_dr_skipped == 1
        assert stats.pairs_considered == 1

    def test_inner_layer_hit_outside_its_partner(self):
        hits = [
            cyl_hit(1, 80.0, 0.5, 3.0, 0),
            cyl_hit(2, 72.0, 0.5, 1.0, 1),
            cyl_hit(3, 30.0, 0.5, 0.0, 1),
        ]
        got, _, _ = assert_matches_all_pairs(hits, hg.SelectionCuts())
        assert [(d.src_hit, d.dst_hit) for d in got] == [(2, 1), (3, 1)]
        assert all(d.dr > 0 for d in got)

    def test_empty_next_layer_and_one_hit_layer(self):
        hits = [
            cyl_hit(1, 32.0, 0.1, 0.0, 0),
            cyl_hit(2, 116.0, 0.1, 0.0, 2),
            cyl_hit(3, 172.0, 0.1, 0.0, 3),
            cyl_hit(4, 172.0, 0.1002, 0.0, 3),
            cyl_hit(5, 172.0, -2.0, 0.0, 3),
        ]
        got, stats, _ = assert_matches_all_pairs(hits, hg.SelectionCuts())
        assert [(d.src_hit, d.dst_hit) for d in got] == [(2, 3), (2, 4)]
        assert stats.pairs_considered == 2


def test_preprocess_bytes_match_all_pairs_pipeline(tmp_path):
    events = tmp_path / "events"
    assert main(["gen", "--out", str(events), "--tracks", "60", "--noise", "400", "--seed", "4"]) == 0
    out = tmp_path / "cli"
    assert main(["preprocess", "--in", str(events), "--out", str(out)]) == 0

    cuts = hg.SelectionCuts()
    event = hg.load_event(*synthgen.event_paths(str(events), 1))
    hits = hg.select_barrel_hits(event)
    doublets, _, _ = all_pairs_doublets(hits, cuts)
    assert doublets
    doublets, _ = hg.label_edges(doublets, event.truth, event.particles, cuts)
    subgraphs, _ = hg.section_graph(hits, doublets, event_id=1)
    ref = tmp_path / "ref"
    for g in subgraphs:
        hg.write_subgraph(g, str(ref))
    names = sorted(os.listdir(ref))
    assert names == sorted(n for n in os.listdir(out) if n.startswith("evt"))
    for name in names:
        for f in ("nodes.csv", "edges.csv"):
            assert (out / name / f).read_bytes() == (ref / name / f).read_bytes()


class TestLabelEdges:
    def _doublet(self):
        return hg.Doublet(1, 2, 0.0, 0.0, 40.0, 0.0, 0.0)

    def test_shared_high_pt_particle_true(self):
        particles = {42: hg.Particle(42, 2.3, 0.0, 0.0)}
        labeled, _ = hg.label_edges([self._doublet()], {1: 42, 2: 42}, particles, hg.SelectionCuts())
        assert labeled[0].label is True

    def test_shared_low_pt_particle_false(self):
        particles = {42: hg.Particle(42, 0.4, 0.0, 0.0)}
        labeled, _ = hg.label_edges([self._doublet()], {1: 42, 2: 42}, particles, hg.SelectionCuts())
        assert labeled[0].label is False

    def test_different_particles_false(self):
        particles = {1: hg.Particle(1, 2.0, 0, 0), 2: hg.Particle(2, 2.0, 0, 0)}
        labeled, _ = hg.label_edges([self._doublet()], {1: 1, 2: 2}, particles, hg.SelectionCuts())
        assert labeled[0].label is False

    def test_missing_truth_counts_as_noise(self):
        labeled, stats = hg.label_edges([self._doublet()], {1: 5}, {}, hg.SelectionCuts())
        assert labeled[0].label is False
        assert stats.missing_truth == 1

    def test_labels_symmetric_in_hit_order(self):
        particles = {9: hg.Particle(9, 3.0, 0.0, 0.0)}
        truth = {1: 9, 2: 9}
        fwd = hg.Doublet(1, 2, 0.0, 0.0, 40.0, 0.0, 0.0)
        rev = hg.Doublet(2, 1, 0.0, 0.0, 40.0, 0.0, 0.0)
        hg.label_edges([fwd, rev], truth, particles, hg.SelectionCuts())
        assert fwd.label == rev.label


class TestSectioning:
    def test_sixteen_subgraphs(self, tmp_path):
        event = synthetic_event(tmp_path, seed=7, n_tracks=20, noise=20)
        hits = hg.select_barrel_hits(event)
        doublets, _ = hg.build_doublets(hits, GENEROUS)
        hg.label_edges(doublets, event.truth, event.particles, GENEROUS)
        subgraphs, _ = hg.section_graph(hits, doublets, event_id=1)
        assert len(subgraphs) == 16
        assert sorted(g.sector for g in subgraphs) == [
            (p, z) for p in range(8) for z in range(2)
        ]

    def test_boundary_node(self):
        assert hg.sector_of(-math.pi, -10.0) == (0, 0)
        assert hg.sector_of(math.pi, 5.0) == (0, 1)  # pi wraps to -pi
        assert hg.sector_of(0.0, 0.0) == (4, 1)  # z >= 0 upper half

    def test_nodes_partitioned(self, tmp_path):
        event = synthetic_event(tmp_path, seed=13, n_tracks=30, noise=40)
        hits = hg.select_barrel_hits(event)
        subgraphs, _ = hg.section_graph(hits, [], event_id=1)
        assert sum(len(g.nodes) for g in subgraphs) == len(hits)
        for g in subgraphs:
            lo = -math.pi + g.sector[0] * math.pi / 4
            for r, phi, z in g.nodes:
                wrapped = -math.pi if phi == math.pi else phi
                assert lo <= wrapped < lo + math.pi / 4
                assert (z >= 0) == bool(g.sector[1])

    def test_cross_sector_edges_dropped(self):
        a = hg.Hit(1, 32.0, 0.0, 10.0, 8, 2)  # phi 0, sector 4
        b = hg.Hit(2, 0.0, 72.0, 10.0, 8, 4)  # phi pi/2, sector 6
        d = hg.Doublet(1, 2, math.pi / 2, 0.0, 40.0, 10.0, 0.0, label=True)
        subgraphs, dropped = hg.section_graph([a, b], [d], event_id=1)
        assert dropped == 1
        assert all(g.edges == [] for g in subgraphs)


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


def test_truth_doublet_recall_with_generous_cuts(tmp_path):
    # zero-noise events: every consecutive-layer pair of a generated track
    # must come out as a true-labeled doublet
    event = synthetic_event(tmp_path, seed=31, n_tracks=50)
    hits = hg.select_barrel_hits(event)
    doublets, _ = hg.build_doublets(hits, GENEROUS)
    hg.label_edges(doublets, event.truth, event.particles, GENEROUS)

    per_particle = {}
    for h in hits:
        per_particle.setdefault(event.truth[h.hit_id], {})[h.layer_index] = h.hit_id
    expected = set()
    for pid, layers in per_particle.items():
        for k in layers:
            if k + 1 in layers:
                expected.add((layers[k], layers[k + 1]))
    got = {(d.src_hit, d.dst_hit) for d in doublets if d.label}
    assert expected
    assert expected <= got
