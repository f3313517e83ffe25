"""Golden outputs of a small paper-matrix corpus.

The digests were recorded from the per-packet implementation that
preceded the columnar trace representation: the emitted files, the
signature matrix and the definedness flags must stay bit-identical.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from netdiag.features import default_catalog, extract_with_diagnostics
from netdiag.scenarios import emit_corpus, preset_paper_matrix
from netdiag.trace import read_pair

SEED = 1207
TRANSFER_BYTES = 64 * 1024
CORPUS_SHA256 = "fc590e06a5bd359e642baa38bb8bde068a64dbd241e693eb361653d556b90862"
SIGNATURES_SHA256 = "32c48b33b964ebccf3d57f515fa4b926489d17de5fad0c51dd8cfd23a218b5c7"
# Every pair of this corpus yields a single RTT sample per trace.
UNDEFINED = ("down_rtt_stdev", "up_rtt_stdev")

CATALOG = default_catalog()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    scenarios = preset_paper_matrix(1, SEED, TRANSFER_BYTES)
    root = tmp_path_factory.mktemp("golden")
    emit_corpus(scenarios, root)
    return scenarios, root


def test_corpus_bytes(corpus):
    _, root = corpus
    digest = hashlib.sha256()
    for f in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(f.relative_to(root).as_posix().encode() + b"\0" + f.read_bytes())
    assert digest.hexdigest() == CORPUS_SHA256


def test_signatures_and_definedness(corpus):
    scenarios, root = corpus
    rows = []
    for sc in sorted(scenarios, key=lambda sc: sc.id):
        group = Path(root, sc.group)
        from_disk = read_pair(group / f"{sc.id}.down.csv", group / f"{sc.id}.up.csv")
        sig, diag = extract_with_diagnostics(from_disk, CATALOG)
        in_memory, _ = extract_with_diagnostics(sc.simulate(), CATALOG)
        assert np.array_equal(sig.values, in_memory.values)
        assert diag.undefined_features() == UNDEFINED, sc.id
        rows.append(sig.values)
    matrix = np.vstack(rows)
    assert matrix.shape == (len(scenarios), CATALOG.m)
    assert hashlib.sha256(matrix.tobytes()).hexdigest() == SIGNATURES_SHA256
