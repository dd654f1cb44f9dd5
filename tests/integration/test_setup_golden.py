"""Golden digests of every set-up artifact on three seeded stand-ins.

Each case goes edge-list file → ``read_edge_list`` → ``Reachability``
(condensation, FELINE, 8 observers) → ``save_index`` and hashes what
comes out: the CSR arrays, the SCC map, ``X``, ``Y``, levels, min-post
intervals, every observer array, the v2 persisted file, and the answers
and stats of a fixed pair batch.  The digests were recorded with the
per-vertex reference loops, so any change of set-up implementation must
keep every artifact bit-identical.  The third case adds seeded back
edges, so its condensation folds real cycles.
"""

from __future__ import annotations

import hashlib
import json
import random

import numpy as np
import pytest

from repro import Reachability
from repro.core.persistence import save_index
from repro.datasets.real_stand_ins import load_real_stand_in
from repro.graph.digraph import DiGraph
from repro.graph.io import read_edge_list, write_edge_list

# (stand-in, scale, seed, back edges added)
CASES = {
    "go-uniprot": ("go-uniprot", 0.001, 1, 0),
    "cit-patents": ("cit-patents", 0.002, 2, 0),
    "arxiv-cyclic": ("arxiv", 0.5, 3, 150),
}

GOLDEN = {
    "arxiv-cyclic": {
        "answers":
            "3ae6668128082b305a2371f890fd0269e4b02be60546cf33148e83a690e549ae",
        "csr":
            "98bd1a53f1024db0d853203113aa7b233546d9fc30cc76fd8616e3873a5cf001",
        "dag":
            "6758607cc0bab6d463eb5265f3cc1767fa9868e8358299f824581a111104da05",
        "levels":
            "665363cfbc1604e76ee7a2cf47a5ada05bb870f19b9c51be69fbf68daa180046",
        "members":
            "9589367a0b8e5cd0dc88095a84f00818f4e8589a855b22529030347d770b6134",
        "obs.bmin":
            "fc499cd8894d2417eb5a1a8aa583e0ee5950c828271f8060d0de99cc802fa13e",
        "obs.bwd_bits":
            "f4d8170e327d15944487dbf0471d65259773996a7bef6f0717a15a48cfeffada",
        "obs.fmax":
            "82ed60fbf1bdda31ba278e5a22414b76028da0b4a95d6777d94063f43d4fa8bc",
        "obs.fwd_bits":
            "e2bbbb74be9367921ade0171af98478836a1ffd945e8b74504760c2ea86e7ca2",
        "obs.supports":
            "32266b1ddd9440ffea9d4caa901ff5a10e5996e7c685c1180f190302de2d14d5",
        "obs.t1":
            "d31e9f0a14b2dbc895cda8b15d44a8898c7c630edc47381cec18a842554477e6",
        "obs.t2":
            "93bddfab861c7d167aa4f1c0cfa6205055f8280da2478a9adfd81693dd91de36",
        "post":
            "08482ab9a769865658ecbce4d4a8276b48e5798c3b92cad65558f28c8f1c3dc8",
        "scc_of":
            "c301817f84ba68c2db00daa9adf5236d49866209f9416b05d1b0d8ccc8b787ea",
        "start":
            "28023a95e6a72c2e285b956a9ba6ce888e7871d7ad517572ed9d191531f61d83",
        "v2_file":
            "1fc1a85310d407aa66d43aba9841d0c7d53fd0d98a4ce2e4975e786103083a8d",
        "x":
            "d31e9f0a14b2dbc895cda8b15d44a8898c7c630edc47381cec18a842554477e6",
        "y":
            "df1730254795d6b80453fd9abebf051bd74895895c8bb89d426c3b87861d1e9b",
    },
    "cit-patents": {
        "answers":
            "90293b0a9790fd873b0ac8d6fb71283ff0dafe7667a7872c4583a19b7300668a",
        "csr":
            "a3d20944332702a6dbf4ce177575a603103455ba017148c4cf9db07a5a299de5",
        "dag":
            "b801df2ba2821490c4af0c069a8c7d55f88f4a7a412e7265c360dd23422ad5d8",
        "levels":
            "cc8697e85db04e4017fc33a8e2374f600f8e6b906fe4f6c2e7d041183e696e6b",
        "members":
            "2157a2851275852d37423a6ea7616d7f291145e05644023948c413e828b5422c",
        "obs.bmin":
            "c805dfd510c550a0aa7897ae4e9480ca0a88563196d49b7da774047bd6a287e1",
        "obs.bwd_bits":
            "7154105129149310d999812341b104096391826887b9da951cb03a14ad23b9fe",
        "obs.fmax":
            "aac550074bfa0160d5ea6a33c239852eb7351ce6e594319a6a09664c217e6604",
        "obs.fwd_bits":
            "f5ea056570e743516a596af8a6dfd35cbd5663a1042369e84ec690dafcf32c51",
        "obs.supports":
            "6de57a8fe703a0964ada12179c1c63c21c73c7133e3e128f9090fd00b31a963f",
        "obs.t1":
            "afd0e3bad1a417ebc74639fe297e0f62d07c6275d5cc16ac1ea731639db60fa2",
        "obs.t2":
            "9eae9b931f07b240b0e492148b7fc74022599d4a449868280cbf51f9dc4694fb",
        "post":
            "9545b95162af64ce98c7697e1714cccdb86d460d0582fd988e60e23bdb2a320f",
        "scc_of":
            "7efc93947312ec9df870c55a2d972004937cad17c9041a2c9d5304a6633b4974",
        "start":
            "f4007ea78b159a4bbdda380bcfeca622853d7c0d8b6122055e869cfc9da61bc5",
        "v2_file":
            "8a6925da5117a372d7100467f20b6f6386b3b2ba0e6f4fd44aa6125d0d55afbe",
        "x":
            "afd0e3bad1a417ebc74639fe297e0f62d07c6275d5cc16ac1ea731639db60fa2",
        "y":
            "ac9cd16cd55cbfad1c29fad6f67160f810478b29c8e4ebc931e42144feced3d7",
    },
    "go-uniprot": {
        "answers":
            "fb046f3534384877f7f072199aee7ebf8d3f303775f557e043e393b044408030",
        "csr":
            "da14ebbdd4bca56af76365da500035a8b03491a88036593dbb17669e1c214cdd",
        "dag":
            "2935146dbd09e17d3f3a71351f0e4276c2cd384bf9bdaab416299811bd98f287",
        "levels":
            "c1d312bd0c455d67a5a5ae5a486f7c54d9e117e2e48fe4318cdb46e0e6134137",
        "members":
            "fbad9126b6f704ade993cb757a4d5680739ce4ab39b851d6caa23d3c0f8386bd",
        "obs.bmin":
            "9764f6fc5711925cc04e6141a88db163eba11862763f6de1b394843c2a465551",
        "obs.bwd_bits":
            "21a41f363aea2636b675334b38331147dc0a3aead2e6ca534b3f590e41803c4d",
        "obs.fmax":
            "a275b99cf92e5125ce32ac9d69f799d5d76c8524c2df21359b6a0ab507aff428",
        "obs.fwd_bits":
            "2dbbc4832c345e70d53c1949d6380f2f3861bbce76791f7c140108b7c3796403",
        "obs.supports":
            "48025bcc685f794f240f67e2f47a010af7c2b68c0240331ca1fef031dd984448",
        "obs.t1":
            "163458144f8904e9da3da5c5c91d00b26ba0233997d26ffa4f926b9e24b64ed4",
        "obs.t2":
            "163458144f8904e9da3da5c5c91d00b26ba0233997d26ffa4f926b9e24b64ed4",
        "post":
            "91a986c28cd43975b23250bb9a76253d6ba0f91ed084e9b9c65ca6b7ede0844c",
        "scc_of":
            "4b6055b16a37a37e3511c7b0c1db4416846b048e6e53ea6ca905a1f66fad242d",
        "start":
            "cf76ae590f76d78ba7e5ef75a06697b052d9d28edd2ff6afb29e936102387822",
        "v2_file":
            "e5d1008592ff3c57f635efa23d980f453220e311ff2a68826a0c8aec1b8f6d86",
        "x":
            "163458144f8904e9da3da5c5c91d00b26ba0233997d26ffa4f926b9e24b64ed4",
        "y":
            "4f07b3fa2b95db41f786142ea458a27900a0df4f2c71ea4051c6a180757b4471",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _ints(values) -> str:
    return _sha(np.asarray(values, dtype="<i8").tobytes())


def setup_digests(tmp_path, name, scale, seed, back_edges) -> dict[str, str]:
    graph = load_real_stand_in(name, scale=scale, seed=seed)
    if back_edges:
        rng = random.Random(seed)
        edges = list(graph.edges())
        for u, v in rng.sample(edges, back_edges):
            edges.append((v, u))
        graph = DiGraph(graph.num_vertices, edges)
    path = tmp_path / f"{name}.edges"
    write_edge_list(graph, path)

    reach = Reachability(read_edge_list(path), observers=8)
    g = reach.graph
    coords = reach.index.coordinates
    layer = reach.index.observers
    digests = {
        "csr": _ints(np.concatenate([
            g.out_indptr, g.out_indices, g.in_indptr, g.in_indices,
        ])),
        "scc_of": _ints(reach.condensation.scc_of),
        "members": _sha(json.dumps(reach.condensation.members).encode()),
        "dag": _ints(np.concatenate([
            reach.condensation.dag.out_indptr, reach.condensation.dag.out_indices,
        ])),
        "x": _ints(coords.x),
        "y": _ints(coords.y),
        "levels": _ints(coords.levels),
        "start": _ints(coords.tree_intervals.start),
        "post": _ints(coords.tree_intervals.post),
    }
    for field in ("t1", "t2", "fmax", "bmin", "supports"):
        digests[f"obs.{field}"] = _ints(getattr(layer, field))
    for field in ("fwd_bits", "bwd_bits"):
        digests[f"obs.{field}"] = _sha(getattr(layer, field).tobytes())

    index_path = tmp_path / f"{name}.feline"
    save_index(reach.index, index_path)
    digests["v2_file"] = _sha(index_path.read_bytes())

    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, g.num_vertices, size=(2000, 2))
    answers = reach.reachable_many(pairs)
    digests["answers"] = _sha(json.dumps(
        [[bool(a) for a in answers], reach.stats.as_dict()]
    ).encode())
    return digests


@pytest.mark.parametrize("case", sorted(CASES))
def test_setup_artifacts_match_golden_digests(tmp_path, case):
    assert setup_digests(tmp_path, *CASES[case]) == GOLDEN[case]
