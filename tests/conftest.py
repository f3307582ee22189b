import math

import numpy as np
import pytest
from hypothesis import settings

from qseed import training, ttn
from qseed.hitgraph import N_PHI_SECTORS, Hits, SubGraph, subgraph_dirname
from qseed.statevector import GateOp, apply_circuit, new_zero_state, prob_one, sample_shots, shot_estimate

# Fuzz tests draw the same examples on every run and have no time limit per
# example, so a slow host cannot fail them.
settings.register_profile("qseed", derandomize=True, deadline=None)
settings.load_profile("qseed")


def random_circuit(rng, n_qubits, n_gates):
    """Random Ry/CNOT gate sequence for oracle-equivalence checks."""
    gates = []
    for _ in range(n_gates):
        if n_qubits == 1 or rng.random() < 0.5:
            gates.append(
                GateOp(
                    "RY",
                    target=int(rng.integers(n_qubits)),
                    angle=float(rng.uniform(0.0, 2.0 * np.pi)),
                )
            )
        else:
            control, target = rng.choice(n_qubits, size=2, replace=False)
            gates.append(GateOp("CNOT", target=int(target), control=int(control)))
    return gates


def make_separable_subgraphs(n_subgraphs=60, edges_per=9, seed=5):
    """Toy edge sets separable on one raw feature (outer-hit radius).

    True edges place the outer hit near the middle of the radius band, fake
    edges at either extreme, so after [0, 2pi] scaling the readout-adjacent
    qubit encodes close to |1> for true and |0> for fake edges.
    """
    rng = np.random.default_rng(seed)
    subgraphs = []
    for i in range(n_subgraphs):
        nodes = []
        edges = []
        for e in range(edges_per):
            label = int(rng.random() < 0.5)
            if label:
                signal = 0.5 + rng.uniform(-0.05, 0.05)
            else:
                signal = float(rng.choice([0.0, 1.0])) + rng.uniform(-0.02, 0.02)
            nodes.append((1.0, 0.0, 0.0))
            nodes.append((2.0 + signal, 0.0, 0.0))
            edges.append((2 * e, 2 * e + 1, label))
        subgraphs.append(SubGraph(i, (0, 0), nodes, edges))
    return subgraphs


def random_subgraph(rng):
    n_nodes = int(rng.integers(0, 12))
    nodes = [
        (float(rng.uniform(0, 1100)), float(rng.uniform(-np.pi, np.pi)), float(rng.uniform(-1100, 1100)))
        for _ in range(n_nodes)
    ]
    edges = []
    if n_nodes >= 2:
        for _ in range(int(rng.integers(0, 20))):
            src, dst = rng.choice(n_nodes, size=2, replace=False)
            edges.append((int(src), int(dst), int(rng.integers(0, 2))))
    return SubGraph(
        int(rng.integers(0, 10**6)),
        (int(rng.integers(0, 8)), int(rng.integers(0, 2))),
        nodes,
        edges,
    )


# --- the scalar sector rule ---------------------------------------------------


def sector_of(phi, z):
    """Sector of a hit: phi wedge [-pi + k*pi/4, -pi + (k+1)*pi/4), z half
    z < 0 / z >= 0. phi == pi wraps to the -pi boundary (sector 0)."""
    k = int((phi + math.pi) // (math.pi / 4.0))
    if k >= N_PHI_SECTORS:
        k = 0
    return k, 0 if z < 0 else 1


# --- hit tables and the scalar doublet reference ------------------------------


def make_hits(rows, truth=None):
    """A barrel Hits table from (hit_id, x, y, z, layer_index) rows, with r
    and phi derived as load_event derives them. truth maps hit_id ->
    (particle_id, pt), pt NaN for a particle without a row; other hits have
    no truth row."""
    truth = truth or {}
    hit_id, x, y, z, layer_index = (list(col) for col in zip(*rows))
    joined = [truth.get(h, (0, math.nan)) for h in hit_id]
    return Hits(
        hit_id=np.array(hit_id, dtype=np.int64),
        volume_id=np.full(len(rows), 8, dtype=np.int64),
        layer_id=2 * np.array(layer_index, dtype=np.int64) + 2,
        r=np.array([math.hypot(a, b) for a, b in zip(x, y)]),
        phi=np.array([math.atan2(b, a) for a, b in zip(x, y)]),
        z=np.array(z, dtype=float),
        has_truth=np.array([h in truth for h in hit_id], dtype=bool),
        particle_id=np.array([p for p, _ in joined], dtype=np.int64),
        pt=np.array([pt for _, pt in joined], dtype=float),
        layer_index=np.array(layer_index, dtype=np.int64),
    )


def cyl(hit_id, r, phi, z, layer_index):
    """A make_hits row for a hit given in cylindrical coordinates."""
    return (hit_id, r * math.cos(phi), r * math.sin(phi), z, layer_index)


def wrap_phi(dphi):
    """Wrap an angle difference into (-pi, pi]."""
    while dphi <= -math.pi:
        dphi += 2.0 * math.pi
    while dphi > math.pi:
        dphi -= 2.0 * math.pi
    return dphi


def doublet_geometry(src, dst):
    """(dphi, dz, dr, z0, eta) for inner -> outer (r, phi, z) float triples;
    dr must be > 0."""
    (src_r, src_phi, src_z), (dst_r, dst_phi, dst_z) = src, dst
    dphi = wrap_phi(dst_phi - src_phi)
    dz = dst_z - src_z
    dr = dst_r - src_r
    z0 = src_z - src_r * (dz / dr)
    theta = math.atan2(dr, dz)
    eta = -math.log(math.tan(theta / 2.0))
    return dphi, dz, dr, z0, eta


def passes_cuts(geometry, cuts):
    dphi, _, dr, z0, eta = geometry
    if cuts.cut_mode == "slope":
        if abs(dphi) / dr >= cuts.dphi_slope_max:
            return False
    else:
        if abs(dphi) >= cuts.dphi_slope_max:
            return False
    if abs(z0) >= cuts.z0_max:
        return False
    return cuts.eta_range[0] <= eta <= cuts.eta_range[1]


def hit_coords(hits):
    """(r, phi, z) of each row as plain floats."""
    return list(zip(hits.r.tolist(), hits.phi.tolist(), hits.z.tolist()))


def all_pairs_doublets(hits, cuts):
    """Reference doublet builder: every consecutive-layer pair, in loop order.

    Returns the (src, dst) row pairs, the number of equal-radius pairs and
    the number of pairs tested."""
    coords = hit_coords(hits)
    layers = {}
    for row, k in enumerate(hits.layer_index.tolist()):
        layers.setdefault(k, []).append(row)
    pairs, zero_dr, tested = [], 0, 0
    for k in sorted(layers):
        if k + 1 not in layers:
            continue
        for inner in layers[k]:
            for outer in layers[k + 1]:
                tested += 1
                src, dst = (inner, outer) if coords[inner][0] <= coords[outer][0] else (outer, inner)
                if coords[dst][0] == coords[src][0]:
                    zero_dr += 1
                    continue
                if passes_cuts(doublet_geometry(coords[src], coords[dst]), cuts):
                    pairs.append((src, dst))
    return pairs, zero_dr, tested


# --- the gate-list reference for the tree circuit ------------------------------
#
# The per-edge scoring and training loops as they were before edges were
# scored in batches, built on the generic gate-list simulator. The batched
# product path must reproduce them bit for bit.


def reference_prob(angles, params):
    """P(|1>) on qubit 3 after encoding_gates(angles) + circuit_gates(params)."""
    state = new_zero_state(ttn.N_FEATURES)
    apply_circuit(state, ttn.encoding_gates(angles) + ttn.circuit_gates(params))
    return prob_one(state, ttn.READOUT_QUBIT)


def encode_features(raw, scaler):
    """Angle-encode six raw features: Ry(x_i') on qubit i of |000000>."""
    state = new_zero_state(ttn.N_FEATURES)
    apply_circuit(state, ttn.encoding_gates(scaler.transform(raw)))
    return state


def reference_forward(raw, params, scaler, n_shots=0, shot_seed=0):
    state = encode_features(raw, scaler)
    apply_circuit(state, ttn.circuit_gates(params))
    if not n_shots:
        return prob_one(state, ttn.READOUT_QUBIT)
    return sample_shots(state, ttn.READOUT_QUBIT, n_shots, shot_seed)


def reference_gradient(raw, params, scaler):
    grad = np.empty(ttn.N_PARAMS)
    shifted = params.copy()
    for k in range(ttn.N_PARAMS):
        theta = params.thetas[k]
        shifted.thetas[k] = theta + math.pi / 2.0
        plus = reference_forward(raw, shifted, scaler)
        shifted.thetas[k] = theta - math.pi / 2.0
        minus = reference_forward(raw, shifted, scaler)
        shifted.thetas[k] = theta
        grad[k] = 0.5 * (plus - minus)
    return grad


def reference_step(g, params, scaler, cfg):
    w_true, w_fake = training.class_weights(g)
    loss_sum = 0.0
    grad_sum = np.zeros_like(params.thetas)
    for edge in g.edges:
        raw = training.edge_raw_features(g, edge)
        pred = reference_forward(raw, params, scaler)
        loss_sum += training.weighted_bce(pred, edge[2], w_true, w_fake)
        dl_dp = training._bce_dpred(pred, edge[2], w_true, w_fake)
        if dl_dp != 0.0:
            grad_sum += dl_dp * reference_gradient(raw, params, scaler)
    n = len(g.edges)
    return ttn.TTNParams(params.thetas - cfg.learning_rate * grad_sum / n), loss_sum / n


def reference_predictions(subgraphs, params, scaler, n_shots=0, shot_seed=0):
    """One prediction per edge of every subgraph, in set order; with n_shots
    > 0 one shot_estimate draw over the predictions of every edge."""
    preds = [
        reference_forward(training.edge_raw_features(g, edge), params, scaler)
        for g in subgraphs
        for edge in g.edges
    ]
    if n_shots:
        preds = shot_estimate(np.array(preds), n_shots, shot_seed).tolist()
    return preds


def reference_confusion(subgraphs, params, scaler, threshold):
    """(tp, fp, tn, fn) of the reference predictions."""
    counts = {(t, p): 0 for t in (True, False) for p in (True, False)}
    edges = [edge for g in subgraphs for edge in g.edges]
    for edge, pred in zip(edges, reference_predictions(subgraphs, params, scaler)):
        counts[bool(edge[2]), bool(pred >= threshold)] += 1
    return counts[True, True], counts[False, True], counts[False, False], counts[True, False]


def reference_train(train_set, test_set, cfg, initial_params, scaler):
    """Final params, (update, subgraph, loss) per update and (epoch,
    train_loss, confusion counts) per epoch."""
    usable = [g for g in train_set if g.edges]
    rng = np.random.default_rng(cfg.seed)
    params = initial_params.copy()
    updates, epochs = [], []
    for epoch in range(cfg.epochs):
        losses = []
        for i in rng.permutation(len(usable)):
            params, loss = reference_step(usable[i], params, scaler, cfg)
            updates.append((len(updates), subgraph_dirname(usable[i]), loss))
            losses.append(loss)
        counts = reference_confusion(test_set, params, scaler, cfg.threshold)
        epochs.append((epoch, sum(losses) / len(losses), counts))
    return params, updates, epochs
