"""Mutation fuzzing of every file parser through the CLI.

Each example takes valid input files, inserts, deletes or flips bytes in one
of them, runs a command on the result, and checks that it ends in a
documented exit code: `main` returns 0, 1, 2 or 3, and a failed run prints
an `error: ` message and no traceback. The fuzzed config holds a shot
count, which a mutation can make huge: one binomial draw per edge costs the
same for any count up to 2**63 - 1, and a larger one is a usage error. Other
counts, such as `--epochs`, stay out of it: those values size the work
itself.
"""

import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from qseed import hitgraph, training, ttn
from qseed.cli import main

# Bytes that parsers treat specially, and values at the edge of a number type.
TOKENS = [
    b"\x00", b"\xff", b"\xef\xbb\xbf", b"\r", b"\n", b"#", b"=", b",", b"[", b" ",
    b"1e309", b"-1e309", b"nan", b"9" * 30, b"-" + b"9" * 30, b"0",
]
FRACTION = st.floats(0.0, 1.0, exclude_max=True)
MUTATION = st.one_of(
    st.tuples(st.just("insert"), FRACTION, st.sampled_from(TOKENS) | st.binary(min_size=1, max_size=1)),
    st.tuples(st.just("delete"), FRACTION, st.integers(1, 8)),
    st.tuples(st.just("flip"), FRACTION, st.integers(0, 7)),
)
MUTATIONS = st.lists(MUTATION, min_size=1, max_size=4)
FUZZ = settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])


def mutate(data, mutations):
    """data with each (kind, at, arg) applied in turn; `at` places the
    change as a fraction of the current length."""
    for kind, at, arg in mutations:
        i = int(at * (len(data) + (kind == "insert")))
        if kind == "insert":
            data = data[:i] + arg + data[i:]
        elif data and kind == "delete":
            data = data[:i] + data[i + arg:]
        elif data:
            data = data[:i] + bytes([data[i] ^ (1 << arg)]) + data[i + 1:]
    return data


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Two events, two subgraphs with edges, a model and an eval config, all
    valid."""
    base = tmp_path_factory.mktemp("inputs")
    assert main(["gen", "--out", str(base / "ev"), "--events", "2", "--tracks", "6", "--noise", "4", "--seed", "7"]) == 0
    loose = ["--pt-min", "0.1", "--dphi-max", "0.5", "--z0-max", "100000"]
    assert main(["preprocess", "--in", str(base / "ev"), "--out", str(base / "all"), *loose]) == 0
    graphs = sorted((base / "all").glob("evt*_s*"), key=lambda d: (d / "edges.csv").stat().st_size)
    for graph in graphs[-2:]:  # two subgraphs keep each predict small
        shutil.copytree(graph, base / "sg" / graph.name)
    subgraphs = [hitgraph.read_subgraph(str(p)) for p in sorted((base / "sg").glob("evt*_s*"))]
    assert all(g.edges for g in subgraphs)
    scaler = ttn.fit_scaler(training.collect_features(subgraphs))
    ttn.save_model(str(base / "model.txt"), ttn.init_params(3), scaler, 3)
    (base / "c.txt").write_text(f"data={base / 'sg'}\nmodel={base / 'model.txt'}\nthreshold=0.5\nshots=100\nshot_seed=3\n")
    return base


def run_mutated(inputs, capsys, name, mutations, args):
    """Run `args` on a fresh copy of the inputs whose file `name` is mutated;
    "{root}" in `args` stands for the copy. Checks the exit code and stderr,
    and returns the code and the copy."""
    root = Path(tempfile.mkdtemp(dir=inputs.parent))
    shutil.copytree(inputs, root, dirs_exist_ok=True, ignore=shutil.ignore_patterns("all"))
    path = root / name
    path.write_bytes(mutate(path.read_bytes(), mutations))
    capsys.readouterr()
    code = main([a.format(root=root) for a in args] + ["--out", str(root / "out")])
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3)
    if code != 0:
        assert err.startswith("error: "), err
    assert "Traceback" not in err
    return code, root


PREDICT = ["predict", "--data", "{root}/sg", "--model", "{root}/model.txt"]


@FUZZ
@given(file=st.sampled_from(["nodes.csv", "edges.csv"]), graph=st.integers(0, 1), mutations=MUTATIONS)
def test_subgraph_files_through_predict(inputs, capsys, file, graph, mutations):
    name = f"sg/{sorted(p.name for p in (inputs / 'sg').iterdir())[graph]}/{file}"
    shutil.rmtree(run_mutated(inputs, capsys, name, mutations, PREDICT)[1])


@FUZZ
@given(mutations=MUTATIONS)
def test_model_file_through_predict(inputs, capsys, mutations):
    shutil.rmtree(run_mutated(inputs, capsys, "model.txt", mutations, PREDICT)[1])


@FUZZ
@given(mutations=MUTATIONS)
def test_config_file_through_eval(inputs, capsys, mutations):
    """The config names the unmutated data and model of `inputs`."""
    # A mutation can spell an option that sizes the work, such as `epochs`.
    mutated = mutate((inputs / "c.txt").read_bytes(), mutations)
    assume(not re.search(rb"^\s*(epochs|events|tracks|noise)\s*=", mutated, re.MULTILINE))
    shutil.rmtree(run_mutated(inputs, capsys, "c.txt", mutations, ["eval", "--config", "{root}/c.txt"])[1])


@pytest.mark.parametrize("digits, code", [(b"9" * 30, 1), (b"0" * 12, 0)], ids=["30 nines", "1e14"])
def test_config_shot_count_mutated_large(inputs, capsys, digits, code):
    """Digits inserted into `shots=100`: a count above 2**63 - 1 is a usage
    error, a count of 1e14 runs."""
    data = (inputs / "c.txt").read_bytes()
    at = data.index(b"shots=") + len(b"shots=") + (code == 0) * len(b"100")
    mutations = [("insert", (at + 0.5) / (len(data) + 1), digits)]
    got, root = run_mutated(inputs, capsys, "c.txt", mutations, ["eval", "--config", "{root}/c.txt"])
    assert got == code
    shutil.rmtree(root)


@FUZZ
@given(event=st.integers(1, 2), kind=st.sampled_from(["hits", "particles", "truth"]), mutations=MUTATIONS)
def test_event_files_through_preprocess(inputs, capsys, event, kind, mutations):
    """A failed run leaves no subgraph, not even of the event before it."""
    name = f"ev/event00000000{event}-{kind}.csv"
    code, root = run_mutated(inputs, capsys, name, mutations, ["preprocess", "--in", "{root}/ev"])
    if code != 0:
        assert not list((root / "out").glob("evt*_s*"))
    shutil.rmtree(root)
