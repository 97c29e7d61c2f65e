"""Golden digests: seeded payloads and cut certificates must stay byte-identical.

The digests were recorded from the code before the flow core's arcs were
stored once per pair. A change that alters any of these bytes on purpose
must say so and record new digests. Path families are not pinned: another
valid family of disjoint paths is allowed (README, `vc`).
"""

import contextlib
import hashlib
import io
import json

import pytest

from vclab.cli import main
from vclab.graphs import emit_graph, gen_gnp

SOURCE = emit_graph(gen_gnp(14, 0.5, 7))  # the criterion-10 source graph

# criterion 10's commands
COMMANDS = {
    "gen": ["gen", "gnp", "--n", "18", "--p", "0.4", "--seed", "11"],
    "st": ["vc", "st", "--graph", "{src}", "--s", "0", "--t", "5"],
    "apvc-naive": ["vc", "apvc", "--graph", "{src}"],
    "apvc-fast": ["vc", "apvc", "--graph", "{src}", "--algo", "fast", "--seed", "11"],
    "apvc-sampled": ["vc", "apvc", "--graph", "{src}", "--algo", "sampled", "--k", "3", "--seed", "11"],
    "ssvc-sampled": ["vc", "ssvc", "--graph", "{src}", "--algo", "sampled", "--s", "2", "--k", "3", "--seed", "11"],
    "reduce-apvc": ["reduce", "apvc", "--graph", "{src}"],
    "reduce-steiner": ["reduce", "steiner", "--graph", "{src}", "--demand", "{demand}"],
}

# sha256 of each command's payload
PAYLOAD_DIGESTS = {
    "gen": "5f4cb0768317415aec385b9e4672b723235375ecb759cce604ee93dc93d04401",
    "st": "7de1555df0c2700329e815b93b32c571c3ea54dc967b89e81ab73b9972b72d1d",
    "apvc-naive": "e1ee27243a172be2eedc070e9e668e7d5022207862763081f0c5769ffaa2a0dd",
    "apvc-fast": "e1ee27243a172be2eedc070e9e668e7d5022207862763081f0c5769ffaa2a0dd",
    "apvc-sampled": "0a83eed74ae92a44bcc2052507c9b908e7b0878bb67623db73256a52f60ea872",
    "ssvc-sampled": "324da7aeb196a5929a876a95b01926631cc956a76bf80763a4287b02248644ab",
    "reduce-apvc": "068b6c47f672dd4fda456862c17b3c91cb2af457abb938a3852ea568aeec8b04",
    "reduce-steiner": "34c34f95fb0ee695fb633d4d7e0f04c5281e34809f1d24e2973572a82b4de3bc",
}

# sha256 of the JSON list of [s, t, value, cut_vertices, cut_edges] that
# `vc st` reports for every ordered pair (s, t) of the source graph
CERTIFICATES = "727f443724a2fb5118ca70113b91a8657081fbf1ce9aaaac06e374e88d1e9612"


@pytest.fixture
def files(tmp_path):
    (tmp_path / "src.txt").write_text(SOURCE)
    (tmp_path / "demand.txt").write_text("")
    return {"src": tmp_path / "src.txt", "demand": tmp_path / "demand.txt", "out": tmp_path / "out.txt"}


def run(argv, files):
    """The payload bytes and the parsed report of one CLI run."""
    argv = [arg.format(**files) for arg in argv]
    if argv[0] == "vc":
        argv += ["--threads", "1"]
    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        assert main(argv + ["--out", str(files["out"])]) == 0
    return files["out"].read_bytes(), json.loads(report.getvalue())


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_payload_digest(name, files):
    payload, _ = run(COMMANDS[name], files)
    assert hashlib.sha256(payload).hexdigest() == PAYLOAD_DIGESTS[name]


def test_st_certificate_digest(files):
    certs = []
    for s in range(14):
        for t in range(14):
            if s != t:
                _, report = run(["vc", "st", "--graph", "{src}", "--s", str(s), "--t", str(t)], files)
                result = report["result"]
                certs.append([s, t, result["value"], result["cut_vertices"], result["cut_edges"]])
    assert hashlib.sha256(json.dumps(certs).encode()).hexdigest() == CERTIFICATES
