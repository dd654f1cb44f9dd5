"""Golden digests of the query path of the rank-dominance families.

FELINE, FELINE-B, FELINE-I, FELINE-K (``d`` = 3 and 4) and GRAIL
(``d`` = 2 and 5), each with the default filters and with both §3.4
filters off, answer a fixed pair set on two seeded graphs.  Every cell
hashes what a caller can observe:

* ``answers`` — the ``query_many`` answers;
* ``scalar_stats`` / ``batch_stats`` — ``QueryStats`` after a pass of
  scalar ``query`` calls and after one ``query_many`` batch (expanded,
  pruned, cut and search counters);
* ``explain`` — ``explain(u, v).cut`` for every pair;
* ``budget`` — answers and stats (``budget_exhausted`` included) of a
  ``QueryBudget(max_steps=3, policy="unknown")`` pass, scalar then batch.

The digests pin the cuts each family declares, their order (the explain
names), and the pruned search's accounting, so a refactor of the cut
machinery must keep all of them bit-identical.  FELINE-family stats do
not depend on the search tier, so the digests hold on the compiled and
the fallback tier alike.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.baselines.base import create_index
from repro.datasets.real_stand_ins import load_real_stand_in
from repro.graph.generators import random_dag
from repro.resilience.budget import QueryBudget

GRAPHS = {
    "random-dag": lambda: random_dag(300, avg_degree=3.0, seed=11),
    "cit-patents": lambda: load_real_stand_in("cit-patents", scale=0.001, seed=5),
}

FAMILIES = {
    "feline": ("feline", {}),
    "feline-b": ("feline-b", {}),
    "feline-i": ("feline-i", {}),
    "feline-k3": ("feline-k", {"dimensions": 3}),
    "feline-k4": ("feline-k", {"dimensions": 4}),
    "grail2": ("grail", {"num_labelings": 2}),
    "grail5": ("grail", {"num_labelings": 5}),
}

FILTERS = {
    "filters": {},
    "bare": {"use_level_filter": False, "use_positive_cut": False},
}

GOLDEN: dict[str, dict[str, str]] = {
    "cit-patents/feline-b/bare": {
        "answers":
            "1d5273a3f0de5db60f1d4bede61783172e3885aff2ed7b740add55f5eb757818",
        "batch_stats":
            "856e66aeae038c0da612d39643cfedf7f4c96eae0691595dda20873c3eeefe12",
        "budget":
            "53c9e64e1ac4d1288e92389e60883de9bc68390b56cf75a2f321dca8a80b5426",
        "explain":
            "f144a63f474c53394b276ea245c74d00b471fd6b4dd3b47941cd639f7ddddeeb",
        "scalar_stats":
            "856e66aeae038c0da612d39643cfedf7f4c96eae0691595dda20873c3eeefe12",
    },
    "cit-patents/feline-b/filters": {
        "answers":
            "1d5273a3f0de5db60f1d4bede61783172e3885aff2ed7b740add55f5eb757818",
        "batch_stats":
            "cf2e64c581ee126ce701b791286eec3972859c4d17f080ca5a32ee19d6f8d62d",
        "budget":
            "d35c430753a1cf3fb700e21d2312f1e21e5b19516b3c692c675d52a9504d9f63",
        "explain":
            "d87673f1e01d7a5963f959512565b4da30cffe60f744b02ed80c6a408f20d950",
        "scalar_stats":
            "cf2e64c581ee126ce701b791286eec3972859c4d17f080ca5a32ee19d6f8d62d",
    },
    "cit-patents/feline-i/bare": {
        "answers":
            "1d5273a3f0de5db60f1d4bede61783172e3885aff2ed7b740add55f5eb757818",
        "batch_stats":
            "136679f0c22abfac675e74f9a87bd1853114499b6c2fb441ec8bd30ec28d2723",
        "budget":
            "59f3a46bdcd254b14e2ff77ea5aeda726624d69ee5ee6ca0bd720498647e08bf",
        "explain":
            "423e8b202c69e263070ab648fcc73cdfa85bf18628f4ee9c67bd509efb75b2e7",
        "scalar_stats":
            "136679f0c22abfac675e74f9a87bd1853114499b6c2fb441ec8bd30ec28d2723",
    },
    "cit-patents/feline-i/filters": {
        "answers":
            "1d5273a3f0de5db60f1d4bede61783172e3885aff2ed7b740add55f5eb757818",
        "batch_stats":
            "e0f88bf9acb5a7d67046ba4f0ccaa80e8b2325acd1f2e636c6a4e173f5bb443e",
        "budget":
            "2335446aa3726187e194c41e242b3a23ad3da5f698fc16e914768c11635d2008",
        "explain":
            "04099e03f9b1844b28e74c83e68174be6e0a5115eb28003bfc0ef6cf767cec81",
        "scalar_stats":
            "e0f88bf9acb5a7d67046ba4f0ccaa80e8b2325acd1f2e636c6a4e173f5bb443e",
    },
    "cit-patents/feline-k3/bare": {
        "answers":
            "1d5273a3f0de5db60f1d4bede61783172e3885aff2ed7b740add55f5eb757818",
        "batch_stats":
            "edf4294ae1fc97628af2b4d2ae09a05bbbe498cd46b7b0b33661e53f3a2a81b5",
        "budget":
            "0947cbb3d880d09aa6704da9456ddd2f397e535ae361acf0e8e4aa126a784b9d",
        "explain":
            "d171721d06a064a942cc29b7855679637f94b310f0683e94699abfc9f294e5fb",
        "scalar_stats":
            "edf4294ae1fc97628af2b4d2ae09a05bbbe498cd46b7b0b33661e53f3a2a81b5",
    },
    "cit-patents/feline-k3/filters": {
        "answers":
            "1d5273a3f0de5db60f1d4bede61783172e3885aff2ed7b740add55f5eb757818",
        "batch_stats":
            "59528deca318e01882418c2801d61b041095068222ef0f9d382059abecacadbd",
        "budget":
            "0a6c86bdaa1450b958c12583f66362549818ecf48590da0232d261d2c62ed7a0",
        "explain":
            "1c0f6d53b0adb810d178d3255e0ea45a391d23e58387c4eedd6b041c0c10cd7b",
        "scalar_stats":
            "59528deca318e01882418c2801d61b041095068222ef0f9d382059abecacadbd",
    },
    "cit-patents/feline-k4/bare": {
        "answers":
            "1d5273a3f0de5db60f1d4bede61783172e3885aff2ed7b740add55f5eb757818",
        "batch_stats":
            "b1417ccaea13cbb17bfae9bec20d0ea1993a7090c0626dca804da31721f1e873",
        "budget":
            "bf6122eb94666acd7f5db7c14b97472c26b46163c60bf36a8e1767ff121422e2",
        "explain":
            "cb85d7bec2aa874340ee87f41965739522bd30ece2def5c8f79d502fba15ce27",
        "scalar_stats":
            "b1417ccaea13cbb17bfae9bec20d0ea1993a7090c0626dca804da31721f1e873",
    },
    "cit-patents/feline-k4/filters": {
        "answers":
            "1d5273a3f0de5db60f1d4bede61783172e3885aff2ed7b740add55f5eb757818",
        "batch_stats":
            "f36cc838f4e932064a51aa6828f1ad4cdb0d9fdb7576a774a4b77f3bff103832",
        "budget":
            "30982a27c85dbb10712c708af1f5b4b314b4ab440b5e151bab6c69f74dddfe8f",
        "explain":
            "7932a531c0b32ddcbb3698cbe886e4e7e8fcb84df52b195318b8d9e3af880f81",
        "scalar_stats":
            "f36cc838f4e932064a51aa6828f1ad4cdb0d9fdb7576a774a4b77f3bff103832",
    },
    "cit-patents/feline/bare": {
        "answers":
            "1d5273a3f0de5db60f1d4bede61783172e3885aff2ed7b740add55f5eb757818",
        "batch_stats":
            "31b9724e45eb00d17d831380dab9dbf151787a4fe2bbaeaae5021cf573dde99f",
        "budget":
            "7281d4ce1d6f3f0af9a3292807f979eaf5d3b10f37450b9c780331c434e46889",
        "explain":
            "6d5424c031e155ec6da4fcec1eb4edd4791c5b6fad2495cdec17e46adefdab64",
        "scalar_stats":
            "31b9724e45eb00d17d831380dab9dbf151787a4fe2bbaeaae5021cf573dde99f",
    },
    "cit-patents/feline/filters": {
        "answers":
            "1d5273a3f0de5db60f1d4bede61783172e3885aff2ed7b740add55f5eb757818",
        "batch_stats":
            "7b3d8721e4090f987f709a6939804b3b123ef0c47e6873c2b1ab23dbeb74dfee",
        "budget":
            "eaf1203fabbcfcd4f2ce5fe9ba8c8636cadd491f6afd0859a1be145b4eefedd6",
        "explain":
            "6dd5b46e185b8c20c64a62300eb94982266c20ae360a4a6915194974cc5d2f2e",
        "scalar_stats":
            "7b3d8721e4090f987f709a6939804b3b123ef0c47e6873c2b1ab23dbeb74dfee",
    },
    "cit-patents/grail2/bare": {
        "answers":
            "1d5273a3f0de5db60f1d4bede61783172e3885aff2ed7b740add55f5eb757818",
        "batch_stats":
            "154eff1311e93e3780d9dee0014b1e1c8e35bb8a3f4600d142963aabf4b58835",
        "budget":
            "c4fab8dae5e0b61990ea325aa51f1e98f7427dae2a238a3fe4327cded1ade1a1",
        "explain":
            "adbcca782a31b7917cadff344617ec56ab25adcf11f99655370785ef336906a7",
        "scalar_stats":
            "154eff1311e93e3780d9dee0014b1e1c8e35bb8a3f4600d142963aabf4b58835",
    },
    "cit-patents/grail2/filters": {
        "answers":
            "1d5273a3f0de5db60f1d4bede61783172e3885aff2ed7b740add55f5eb757818",
        "batch_stats":
            "0fb50eae4178551f318696d64036944c00d454d2be225a57959d1803b727b045",
        "budget":
            "389c27ca0a04a88d1fd24ad5ea4084f4c4b3a123f7db9e43eb79119bc3d43a28",
        "explain":
            "29a37e7fc82a10ce5c00856e475a377c9186f264cd1cbca6002b71780113e8c4",
        "scalar_stats":
            "0fb50eae4178551f318696d64036944c00d454d2be225a57959d1803b727b045",
    },
    "cit-patents/grail5/bare": {
        "answers":
            "1d5273a3f0de5db60f1d4bede61783172e3885aff2ed7b740add55f5eb757818",
        "batch_stats":
            "cee6f06cde4ca9caab9430e27003c5989b693357ef5e8b37d0e3e17b8149ace9",
        "budget":
            "3b5d3b6493401992c7ad23ef4722051af948606d1db480694477411fa61a3597",
        "explain":
            "f9e9b57a563c79a12154dfadd600b79c5217ea7e0a99ffa7257e3c8601deb90b",
        "scalar_stats":
            "cee6f06cde4ca9caab9430e27003c5989b693357ef5e8b37d0e3e17b8149ace9",
    },
    "cit-patents/grail5/filters": {
        "answers":
            "1d5273a3f0de5db60f1d4bede61783172e3885aff2ed7b740add55f5eb757818",
        "batch_stats":
            "4b5178d1b84e23430bded598eec71ee617ceae2bb8f84ca3967eb3500185fd19",
        "budget":
            "660b0f00deff1ab2b8d58aa6fac847bff1571f4f8ff76aa4cd265b92272ee8c3",
        "explain":
            "f9e9b57a563c79a12154dfadd600b79c5217ea7e0a99ffa7257e3c8601deb90b",
        "scalar_stats":
            "4b5178d1b84e23430bded598eec71ee617ceae2bb8f84ca3967eb3500185fd19",
    },
    "random-dag/feline-b/bare": {
        "answers":
            "4d6ce8526d518bfbcd25abfcf268ecbe4567b7f0d7e0d68971b6f1ae3a5cb508",
        "batch_stats":
            "ee34ad7c6bbefda24e0a898610f663bae6ca98fb97569e4edeb505da546db2ec",
        "budget":
            "44bce15060caeb9621d82c8f7e19d8f39bc111c4eb084aeabe87c07b35d9253e",
        "explain":
            "e0c7c55f1f88383e6e73006fa4117d6f50f9ad9ebf295964b38aa432cc042cef",
        "scalar_stats":
            "ee34ad7c6bbefda24e0a898610f663bae6ca98fb97569e4edeb505da546db2ec",
    },
    "random-dag/feline-b/filters": {
        "answers":
            "4d6ce8526d518bfbcd25abfcf268ecbe4567b7f0d7e0d68971b6f1ae3a5cb508",
        "batch_stats":
            "13d88ecca916f833a137ea1c889097253fda9b1a1703a87bb9bc80709f395ff6",
        "budget":
            "4169487bbcd98e059485d46475fd3fd7f851f79352ed647cf1fff6d62acb81cc",
        "explain":
            "296ad22fcae7e93ab7a092c0c97470fc9a51a36f86f8bda7cb56875cf9cc7a86",
        "scalar_stats":
            "13d88ecca916f833a137ea1c889097253fda9b1a1703a87bb9bc80709f395ff6",
    },
    "random-dag/feline-i/bare": {
        "answers":
            "4d6ce8526d518bfbcd25abfcf268ecbe4567b7f0d7e0d68971b6f1ae3a5cb508",
        "batch_stats":
            "681a451955c6b133235a5452631aae14f89e7ae9c7f2a151f2edbf003a9669f4",
        "budget":
            "ba7fa5360de1bee53cec1306e57fbc5c67ca05298e53440d04d31ea72fb9e2b3",
        "explain":
            "c313983a131d575353bf4c4b7929b6ed62f6e5ac672d4f26948fcc4614c65c26",
        "scalar_stats":
            "681a451955c6b133235a5452631aae14f89e7ae9c7f2a151f2edbf003a9669f4",
    },
    "random-dag/feline-i/filters": {
        "answers":
            "4d6ce8526d518bfbcd25abfcf268ecbe4567b7f0d7e0d68971b6f1ae3a5cb508",
        "batch_stats":
            "85ebb7880d7fe685964458e1ec56b7c9b9160448abe5f5e35f7a89f00217d3a0",
        "budget":
            "65389694ceaedbf39ffd29af0f5a77b0297f82499f8c02c1abf1a78dae95c5d6",
        "explain":
            "fb3299685b7a4978e5a760b9dcce8a9aa23aee09ca8a10b931ef04b0a36b30c2",
        "scalar_stats":
            "85ebb7880d7fe685964458e1ec56b7c9b9160448abe5f5e35f7a89f00217d3a0",
    },
    "random-dag/feline-k3/bare": {
        "answers":
            "4d6ce8526d518bfbcd25abfcf268ecbe4567b7f0d7e0d68971b6f1ae3a5cb508",
        "batch_stats":
            "0ed68a9d0716fef0d86620d1091b5d92505ff0ad98aaae27b8fcccd3da29f36a",
        "budget":
            "641c9815b9d0b9b57ffa60fb28bb9c0086bc1400769bd71a999a377eab437935",
        "explain":
            "6af8727cc02aa9615b2bd4e48e4a53aefa6676007efa37a3983878f51841feb1",
        "scalar_stats":
            "0ed68a9d0716fef0d86620d1091b5d92505ff0ad98aaae27b8fcccd3da29f36a",
    },
    "random-dag/feline-k3/filters": {
        "answers":
            "4d6ce8526d518bfbcd25abfcf268ecbe4567b7f0d7e0d68971b6f1ae3a5cb508",
        "batch_stats":
            "ed8f28fbf772a1ff605e0a64968aa9a0784f9a66c33da9e8ce905dcd3afce85b",
        "budget":
            "7558c3b873b2decad56f201c955c401fa472bf7a5ab57665edbe58c812c5f8e5",
        "explain":
            "69407b17aa55e1018b36236cb0d4c44d17bf47475ea580951393b920182f35b1",
        "scalar_stats":
            "ed8f28fbf772a1ff605e0a64968aa9a0784f9a66c33da9e8ce905dcd3afce85b",
    },
    "random-dag/feline-k4/bare": {
        "answers":
            "4d6ce8526d518bfbcd25abfcf268ecbe4567b7f0d7e0d68971b6f1ae3a5cb508",
        "batch_stats":
            "b38e86ead24941f2fe6b9fc6a2e4aa202a9892348beae20162d701ec3a2a2e53",
        "budget":
            "fed9fe05d32259a9b733ccd83cc3f874cdae87d2989387ca3074eea9e1e46b0a",
        "explain":
            "edc92d1e9ce6fe500683d7640a7df3888c51c762340c60306e3c28f9860339c7",
        "scalar_stats":
            "b38e86ead24941f2fe6b9fc6a2e4aa202a9892348beae20162d701ec3a2a2e53",
    },
    "random-dag/feline-k4/filters": {
        "answers":
            "4d6ce8526d518bfbcd25abfcf268ecbe4567b7f0d7e0d68971b6f1ae3a5cb508",
        "batch_stats":
            "ed0a9f40474cea3789f1fc78b199d39177db224205f364cceeef9400b0ea2ace",
        "budget":
            "4ec23eef2707e1b91afe7ef8b08a601889957a5316a1269431bddc43f41a70c8",
        "explain":
            "9e4584dba2cbfe297b068f5fded6f52181081111543bcc39527c12ea6536f598",
        "scalar_stats":
            "ed0a9f40474cea3789f1fc78b199d39177db224205f364cceeef9400b0ea2ace",
    },
    "random-dag/feline/bare": {
        "answers":
            "4d6ce8526d518bfbcd25abfcf268ecbe4567b7f0d7e0d68971b6f1ae3a5cb508",
        "batch_stats":
            "20452468afbcc5749f826ccda9b69c4fa8549dd0111c2de57597e6dfe2e6dd0f",
        "budget":
            "45fda6a03ba3d263d4eab8aa943782f8fce87868c163bdedc89d32577f755d60",
        "explain":
            "126d9a8b326705f0ee17a98a7271b731a0c943b107a59eefed46c527847d3d1b",
        "scalar_stats":
            "20452468afbcc5749f826ccda9b69c4fa8549dd0111c2de57597e6dfe2e6dd0f",
    },
    "random-dag/feline/filters": {
        "answers":
            "4d6ce8526d518bfbcd25abfcf268ecbe4567b7f0d7e0d68971b6f1ae3a5cb508",
        "batch_stats":
            "cd4e44549ed49d08199375fa6ee87f53971727b63ae2bce90e9586ad52fd41b2",
        "budget":
            "c232533ccfacef927706953dd8a5f9d0c06f1a02de29a829ffddccd93e52ac1d",
        "explain":
            "600cbac85ae1b482881ffe15397520cb570ec2b8f81a751d430584d278e2a18d",
        "scalar_stats":
            "cd4e44549ed49d08199375fa6ee87f53971727b63ae2bce90e9586ad52fd41b2",
    },
    "random-dag/grail2/bare": {
        "answers":
            "4d6ce8526d518bfbcd25abfcf268ecbe4567b7f0d7e0d68971b6f1ae3a5cb508",
        "batch_stats":
            "78ad59b3eac44cea64c055ddd4c52932ea23d188767a2ade296db4f9ad0df33f",
        "budget":
            "dc7b8e439eeec48f46f371132422f5894d79c4ba47627f554e4c31eabaaa58cb",
        "explain":
            "49d4d1392300cca7818c21c0de4f225aa5c7f7e941f8d76f0b5a53d8d81ee52a",
        "scalar_stats":
            "78ad59b3eac44cea64c055ddd4c52932ea23d188767a2ade296db4f9ad0df33f",
    },
    "random-dag/grail2/filters": {
        "answers":
            "4d6ce8526d518bfbcd25abfcf268ecbe4567b7f0d7e0d68971b6f1ae3a5cb508",
        "batch_stats":
            "09f92a3b0168a397a7696b1f77f5b046729e67f2219eecdfc5a29b8a5f00fe16",
        "budget":
            "7808acf53cb3398d4205ee5308a2f498d019ba16b2e72bc906fdcc964af8f2fe",
        "explain":
            "4395604452b68ea9a36132827c4e54077284f5394d5f179b732aa55cfc0c53e3",
        "scalar_stats":
            "09f92a3b0168a397a7696b1f77f5b046729e67f2219eecdfc5a29b8a5f00fe16",
    },
    "random-dag/grail5/bare": {
        "answers":
            "4d6ce8526d518bfbcd25abfcf268ecbe4567b7f0d7e0d68971b6f1ae3a5cb508",
        "batch_stats":
            "c469786f8c8ab5a3bd8b275ba493c0dfc13059294d0e7f0c36fa32ab2c07aa66",
        "budget":
            "c93c7dd832c36cf365aa14e225a6812b75982ee549fcde8832c6b4475eb3fa23",
        "explain":
            "962b26210889b5a71271e3849692505b296188c9b266e770fe739b22717cffba",
        "scalar_stats":
            "c469786f8c8ab5a3bd8b275ba493c0dfc13059294d0e7f0c36fa32ab2c07aa66",
    },
    "random-dag/grail5/filters": {
        "answers":
            "4d6ce8526d518bfbcd25abfcf268ecbe4567b7f0d7e0d68971b6f1ae3a5cb508",
        "batch_stats":
            "e5793311eb2515363a022fadbc90ec4e365f57543952f8dab726557f0ca776e5",
        "budget":
            "8e1ec27adc2f1ada4210875bee3257c9c950e338a3685781eefd17ba479d54ef",
        "explain":
            "7c9a675455cfc782329f6bf452237ef59b470d3c2bec189f82637ab23425c92e",
        "scalar_stats":
            "e5793311eb2515363a022fadbc90ec4e365f57543952f8dab726557f0ca776e5",
    },
}


def _sha(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def _verdicts(answers) -> list:
    return [a if isinstance(a, bool) else str(a) for a in answers]


def query_pairs(graph, seed: int, count: int = 300) -> list[tuple[int, int]]:
    """Half uniform pairs, half ``(u, w)`` with ``w`` a few random steps
    below ``u``, so positive cuts and successful searches both occur."""
    rng = np.random.default_rng(seed)
    n = graph.num_vertices
    indptr, indices = graph.out_indptr, graph.out_indices
    pairs = [tuple(map(int, p)) for p in rng.integers(0, n, size=(count // 2, 2))]
    while len(pairs) < count:
        u = w = int(rng.integers(n))
        for _ in range(int(rng.integers(1, 6))):
            lo, hi = indptr[w], indptr[w + 1]
            if lo == hi:
                break
            w = int(indices[int(rng.integers(lo, hi))])
        pairs.append((u, w))
    return pairs


def query_digests(graph, method: str, params: dict) -> dict[str, str]:
    pairs = query_pairs(graph, seed=23)

    def fresh():
        return create_index(method, graph, **params).build()

    index = fresh()
    for u, v in pairs:
        index.query(u, v)
    scalar_stats = index.stats.as_dict()

    index = fresh()
    answers = index.query_many(pairs)
    batch_stats = index.stats.as_dict()

    index = fresh()
    cuts = [index.explain(u, v).cut for u, v in pairs]

    budget = QueryBudget(max_steps=3, policy="unknown")
    index = fresh()
    budget_scalar = [index.query(u, v, budget=budget) for u, v in pairs]
    budget_scalar_stats = index.stats.as_dict()
    index = fresh()
    budget_batch = index.query_many(pairs, budget=budget)

    return {
        "answers": _sha(_verdicts(answers)),
        "scalar_stats": _sha(scalar_stats),
        "batch_stats": _sha(batch_stats),
        "explain": _sha(cuts),
        "budget": _sha([
            _verdicts(budget_scalar), budget_scalar_stats,
            _verdicts(budget_batch), index.stats.as_dict(),
        ]),
    }


CELLS = [
    (graph, family, filters)
    for graph in sorted(GRAPHS)
    for family in FAMILIES
    for filters in FILTERS
]


@pytest.mark.parametrize("graph_name,family,filters", CELLS)
def test_query_path_matches_golden_digests(graph_name, family, filters):
    method, params = FAMILIES[family]
    digests = query_digests(
        GRAPHS[graph_name](), method, {**params, **FILTERS[filters]}
    )
    assert digests == GOLDEN[f"{graph_name}/{family}/{filters}"]
