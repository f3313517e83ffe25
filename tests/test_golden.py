"""Golden outputs of paper-matrix corpora.

The 64 KiB digests were recorded from the per-packet implementation that
preceded the columnar trace representation: the emitted files, the
signature matrix and the definedness flags must stay bit-identical.
The 2 MiB digest pins a corpus of the benchmark's `synth` shape: a
lossy link with RTOs and SACK recovery, and timestamps over one second.
It was recorded before the bulk trace writer replaced the per-row one.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from netdiag.features import default_catalog, extract_signature
from netdiag.scenarios import emit_corpus, preset_paper_matrix
from netdiag.trace import read_pair

SEED = 1207
TRANSFER_BYTES = 64 * 1024
CORPUS_SHA256 = "fc590e06a5bd359e642baa38bb8bde068a64dbd241e693eb361653d556b90862"
SIGNATURES_SHA256 = "32c48b33b964ebccf3d57f515fa4b926489d17de5fad0c51dd8cfd23a218b5c7"
# Every pair of this corpus yields a single RTT sample per trace.
UNDEFINED = ("down_rtt_stdev", "up_rtt_stdev")
SYNTH_BYTES = 2 * 1024 * 1024
SYNTH_CORPUS_SHA256 = "926c2dbba1d75adb4b5b2dedc3fa775c20119838642ad9fd93a449188cc07359"

CATALOG = default_catalog()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    scenarios = preset_paper_matrix(1, SEED, TRANSFER_BYTES)
    root = tmp_path_factory.mktemp("golden")
    emit_corpus(scenarios, root)
    return scenarios, root


def corpus_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for f in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(f.relative_to(root).as_posix().encode() + b"\0" + f.read_bytes())
    return digest.hexdigest()


def test_corpus_bytes(corpus):
    _, root = corpus
    assert corpus_digest(root) == CORPUS_SHA256


def test_synth_shaped_corpus_bytes(tmp_path):
    emit_corpus(preset_paper_matrix(1, SEED, SYNTH_BYTES), tmp_path)
    assert corpus_digest(tmp_path) == SYNTH_CORPUS_SHA256


def test_signatures_and_definedness(corpus):
    scenarios, root = corpus
    rows = []
    for sc in sorted(scenarios, key=lambda sc: sc.id):
        group = Path(root, sc.group)
        from_disk = read_pair(group / f"{sc.id}.down.csv", group / f"{sc.id}.up.csv")
        sig = extract_signature(from_disk, CATALOG)
        in_memory = extract_signature(sc.simulate(), CATALOG)
        assert np.array_equal(sig.values, in_memory.values)
        assert sig.undefined_features(CATALOG) == UNDEFINED, sc.id
        rows.append(sig.values)
    matrix = np.vstack(rows)
    assert matrix.shape == (len(scenarios), CATALOG.m)
    assert hashlib.sha256(matrix.tobytes()).hexdigest() == SIGNATURES_SHA256
