"""Golden outputs: the README quick start at a tiny size, pinned byte for byte.

``rnasel synth`` writes a 60-feature dataset and ``rnasel run`` sweeps it
with the quick-start flags (two ``--n``, two ``--alpha``, a short schedule,
``--format all --cut-k 2``). The sha256 of every file either command writes
is pinned, except ``timings.json``, which holds wall-clock times. A change
that alters any exported byte (a trace float, an SVG coordinate, a dropped
row) fails here; one that means to change an output updates the hash and
says so. It runs twice: with the compiled library, which parses the matrix
and anneals, and without it, when both run in Python; the hashes are the
same.

The all-feature pass (``--cluster-all-features``) is pinned the same way on
the same data, once per ``--cluster-mode``, and so is one cell that keeps
the best of three chains run on two threads.
"""

import hashlib

import pytest

from rnasel import _ckernel
from rnasel.cli import main

GOLDEN = {
    "data/matrix.tsv": "5d71888152adb0d7a635a40b689314686d978ed0ea6f1a68434a0371eb942633",
    "data/meta.tsv": "c3375e5a49c4c15e54c9ee7820f895cb6c5d3b18abfae71c2551bf3b2becec48",
    "data/truth.json": "316338d29b2f12e2da42d3e23ceaf037d72d5b35f9f6e5919324e6c55723672c",
    "data/weights.tsv": "70ad714df6488bbf22302a26319123e9a6e8cbb7018925593fbfb57d749ef074",
    "out/n4_alpha0.0/dendrogram.json": "a2298bbb344474d0474c804b0928b4914b097dc96e7333aa4f05269a936a1850",
    "out/n4_alpha0.0/dendrogram.nwk": "7df9d20385704ea436c9bbd46dd3baa2f358a2fa35114bd4b6f0dc3a86717db4",
    "out/n4_alpha0.0/dendrogram.svg": "5d7641cc6521e8fa253dae61575f12290fc53e200aec1e8efd24160a31cfe306",
    "out/n4_alpha0.0/dissimilarity.tsv": "dff620e8c5e0358ee2f0040471bbd2bd19bfb3fa19f0d2cba39b170d28d48b6a",
    "out/n4_alpha0.0/groups_k2.txt": "f74994f3020bb9aef09e4812c687fa618255af9ae693c197555c2cab13cd1dcc",
    "out/n4_alpha0.0/scatter.svg": "d11285de86b318ff89d7128f9931e3b64f9f50e9994a012f97a0370924699442",
    "out/n4_alpha0.0/selection.json": "ac0950850eabfbdb4b3328330bfa3aae09a770e8c24c9671c5c8c13fac732059",
    "out/n4_alpha0.0/trace.csv": "1ad1cc95fdb5074081450fd655a82ecd90a8a34900deaadd8b2b7606b3632433",
    "out/n4_alpha0.2/dendrogram.json": "d22e9b4ca9cd3169e8384d9dba961550232f26e6b2be582e9c0ddaffbe9a752d",
    "out/n4_alpha0.2/dendrogram.nwk": "139dc066fc089638b02c1c36ec41da8adcd5d56cc9d90ddb0c879da3e578c67b",
    "out/n4_alpha0.2/dendrogram.svg": "e59dbacd44ac0e2bb37218cb68c6e4c436ffa010e0e12202860845730957c388",
    "out/n4_alpha0.2/dissimilarity.tsv": "b549f56499f04feff57d63054db9f637dcb3256fe0d07c6e0512e344a16441d3",
    "out/n4_alpha0.2/groups_k2.txt": "f74994f3020bb9aef09e4812c687fa618255af9ae693c197555c2cab13cd1dcc",
    "out/n4_alpha0.2/scatter.svg": "4a017f130c50445e89d2fd471260315bdd9c2664537b6c94ab3192a42592b0b9",
    "out/n4_alpha0.2/selection.json": "8e3ce6182941e9fa26c2117477f77563422271973b39bee238a433a4ce4d329c",
    "out/n4_alpha0.2/trace.csv": "295d16c13b03ce2ea4b26a205fceb18abda955add3dd47e819ee3855a6fea4f4",
    "out/n8_alpha0.0/dendrogram.json": "b0e660c650e96fe77e8fd1c73c9b00e79844f6b253a8f167ca16b11ecc65c090",
    "out/n8_alpha0.0/dendrogram.nwk": "0f2332fa1d57b9614b0c0fd72a013988813df53d72824db4fc1ca53b4c6efc53",
    "out/n8_alpha0.0/dendrogram.svg": "c6199daefd3f65ebe314579c649386fd4eb83ef14adf5a336a38e70f8b602a11",
    "out/n8_alpha0.0/dissimilarity.tsv": "99b8cdf15627d6a408a2b046a0ad73d5152fa00969dfeb9a5ca7b07858a2376c",
    "out/n8_alpha0.0/groups_k2.txt": "f74994f3020bb9aef09e4812c687fa618255af9ae693c197555c2cab13cd1dcc",
    "out/n8_alpha0.0/scatter.svg": "99b1402b55852fcf8f29b90209851d9639c4354bc6c42feb37b24de8754187bf",
    "out/n8_alpha0.0/selection.json": "82bf6de34c0c7ff9f2b4e14fc7bf538f539bf1658c13a948752649b876380f3a",
    "out/n8_alpha0.0/trace.csv": "6922a15dbcf8773bb82808a7f600d5dde5fc9f44dc56a19d13a4e45ec7ff0ee7",
    "out/n8_alpha0.2/dendrogram.json": "ee7fcb3beb227ee77d426a1894ba62e3cf5b20dd76b59ddc6e3bf5f097e8e3e8",
    "out/n8_alpha0.2/dendrogram.nwk": "4dc84ac6d7522ed103780513ee15174f1795df027a761b3a71e0c9d781f87a68",
    "out/n8_alpha0.2/dendrogram.svg": "16c21caa4e32c11dccdb03dbd6bc6e5bf87c3f9a5880dd781cb1c051bfe3b72b",
    "out/n8_alpha0.2/dissimilarity.tsv": "a936a46749370ffa9fc65e3b16e5334de10e4c438e3f568b1002a6a447f9f49a",
    "out/n8_alpha0.2/groups_k2.txt": "f74994f3020bb9aef09e4812c687fa618255af9ae693c197555c2cab13cd1dcc",
    "out/n8_alpha0.2/scatter.svg": "177b3546c08f9b7ce4c3670280dcc179bedf0f7b2d8ae051771149dda11b81ec",
    "out/n8_alpha0.2/selection.json": "740002b69d06a1f15df95f637a56dd30366f0c3c2f5c76d3648ccda2b4291d3e",
    "out/n8_alpha0.2/trace.csv": "1755d9c247fe04451c28d15ab75d2d6a05b05a5145884f455d6ef5e67bde6527",
    "out/summary.json": "d3ed8246c843a5b49586586f29121215011fb3c9d7c1ace50f6d012111f837b2",
}


ALL_FEATURES_GOLDEN = {
    "levels/all_features/dendrogram.json": "3cff8c948d7012afa970bcede243edac5c1adebe7f3729856684094f0b8342e8",
    "levels/all_features/dendrogram.nwk": "ba8a053352b5c75b023b246549b8cb8e4dc788f4b7e036593ed9a892e8cb55bd",
    "levels/all_features/dendrogram.svg": "a431ea78bef89cc009988650a40dc36ed9df406b59f390ea12b95ba58ccb54a7",
    "levels/all_features/dissimilarity.tsv": "339a33b8858163dfa32a612e8c6ddcd6cd96680841c11b2c48ab197e6c182003",
    "levels/all_features/groups_k2.txt": "9bbb92cda579a758c4b1da0261ba585f250e9117a02c9683347d7784d727222a",
    "levels/summary.json": "bd918644dea59cc0849bfd889c58e880f6bf505fc80f288940a6a80b69dd6569",
    "ratios/all_features/dendrogram.json": "3903ac7cb143673ad4c0de8462d80c8f9ebc29a6e2f5ca58b0c851616b696bb5",
    "ratios/all_features/dendrogram.nwk": "0af6c0df59414f9b3220f5941de7f6de3c1b4fc5ca619871fe6d7cac2ba5e332",
    "ratios/all_features/dendrogram.svg": "ae8e9a9013cb7c1a2a31cb3de00a25e05a63b3d8537184f751384dcfa549efb6",
    "ratios/all_features/dissimilarity.tsv": "b95fad6c2a47b3d2ddf3f80161256e867d99b8efc3e99cbf59ed707392169d56",
    "ratios/all_features/groups_k2.txt": "f74994f3020bb9aef09e4812c687fa618255af9ae693c197555c2cab13cd1dcc",
    "ratios/summary.json": "600c0231faee40af73a549689fb2332c319071fd912a46aeaa030673f525353a",
}


RESTARTS_GOLDEN = {
    "data/matrix.tsv": "5d71888152adb0d7a635a40b689314686d978ed0ea6f1a68434a0371eb942633",
    "data/meta.tsv": "c3375e5a49c4c15e54c9ee7820f895cb6c5d3b18abfae71c2551bf3b2becec48",
    "data/truth.json": "316338d29b2f12e2da42d3e23ceaf037d72d5b35f9f6e5919324e6c55723672c",
    "data/weights.tsv": "70ad714df6488bbf22302a26319123e9a6e8cbb7018925593fbfb57d749ef074",
    "out/n8_alpha0.2/dendrogram.json": "034e3e82cd1c84468cc2a0b0295f2a674ba20fcc4c8bd8b5afa9b0d940b45912",
    "out/n8_alpha0.2/dendrogram.nwk": "e2072684b9b7202be1d1276561bfad78fcdfcbdc087fbe22c4a2a0842b24d110",
    "out/n8_alpha0.2/dendrogram.svg": "2c6fad51110492e0199cc44e67b57ca72d3be7ed70e8be8c840bd55742a8baf6",
    "out/n8_alpha0.2/dissimilarity.tsv": "0de0df495b2e029dbdb007d33bc664d3730864b8652375398af020a39a902a4e",
    "out/n8_alpha0.2/scatter.svg": "b76cf52ffe1dc01252a3ca32c7ff4f30adb0d25abd11e6180545ddb2f44ef22c",
    "out/n8_alpha0.2/selection.json": "3e46eaf2c81a81167d7cea71dc9198c134995cb1ac3ab378b72330da80e47948",
    "out/n8_alpha0.2/trace.csv": "be45e6e77955d7bc47c67b5f73aae5f23034c45a6156accf3945a048804d5efc",
    "out/summary.json": "6783dab83d3f6510b7759c411c6e7a9d5e5158dfdbdd38269d961481615a390e",
}


def _use(backend, monkeypatch):
    if backend == "python":
        monkeypatch.setattr(_ckernel, "load", lambda: None)
    elif _ckernel.load() is None:
        pytest.skip("the C library cannot be built here")


def _synth(data):
    assert main(["synth", "--out-dir", str(data), "--features", "60", "--informative", "10", "--seed", "7"]) == 0
    return ["--matrix", str(data / "matrix.tsv"), "--meta", str(data / "meta.tsv"), "--weights", str(data / "weights.tsv")]


def _written(root, under=""):
    """sha256 of every file below ``root / under`` but ``timings.json``, by path from ``root``."""
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted((root / under).rglob("*"))
        if path.is_file() and path.name != "timings.json"
    }


@pytest.mark.parametrize("backend", ["compiled", "python"])
def test_quick_start_outputs_are_byte_identical(tmp_path, monkeypatch, backend):
    _use(backend, monkeypatch)
    inputs = _synth(tmp_path / "data")
    assert main([
        "run", *inputs, "--n", "8", "--n", "4", "--alpha", "0.0", "--alpha", "0.2",
        "--gamma", "0.9", "--t-final", "1e-1", "--swaps-per-temp", "5", "--seed", "1",
        "--cut-k", "2", "--format", "all", "--out-dir", str(tmp_path / "out"),
    ]) == 0
    assert _written(tmp_path) == GOLDEN


@pytest.mark.parametrize("backend", ["compiled", "python"])
def test_all_feature_outputs_are_byte_identical(tmp_path, monkeypatch, backend):
    _use(backend, monkeypatch)
    inputs = _synth(tmp_path / "data")
    for mode in ("ratios", "levels"):
        assert main([
            "run", *inputs, "--cluster-all-features", "--cluster-mode", mode,
            "--cut-k", "2", "--format", "all", "--out-dir", str(tmp_path / mode),
        ]) == 0
    assert {**_written(tmp_path, "ratios"), **_written(tmp_path, "levels")} == ALL_FEATURES_GOLDEN
    # controls are no compound: the levels cut lists them by sample id
    groups = (tmp_path / "levels/all_features/groups_k2.txt").read_text(encoding="utf-8")
    assert "control_1" in groups and "control_2" in groups


@pytest.mark.parametrize("backend", ["compiled", "python"])
def test_restart_outputs_are_byte_identical(tmp_path, monkeypatch, backend):
    # chain 1 of the three wins here, so trace.csv is not the first chain's
    _use(backend, monkeypatch)
    inputs = _synth(tmp_path / "data")
    assert main([
        "run", *inputs, "--n", "8", "--alpha", "0.2", "--restarts", "3", "--jobs", "2",
        "--gamma", "0.9", "--t-final", "1e-1", "--swaps-per-temp", "5", "--seed", "1",
        "--out-dir", str(tmp_path / "out"),
    ]) == 0
    assert _written(tmp_path) == RESTARTS_GOLDEN
