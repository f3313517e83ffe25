"""Golden outputs of the simulator on the modes the paper-matrix corpus
of tests/test_golden.py does not reach.

Each digest covers both written trace files and both `FlowStats` of one
`simulate_flow_with_stats` call.  The first twelve cases were recorded
before the event loop skipped loss draws on loss-free links, drew its
streams in blocks, dispatched on bound handlers and kept one lazy RTO
timer.  The next three were recorded before the receiver skipped its
out-of-order set while that set is empty and the per-packet handlers
wrote min and max as comparisons.  The last four were recorded before the
loss draws of first transmissions were taken in bulk and the receiver
had one handler for data and FIN.  The two lossy ones among them carry
their own episode seed; every other case uses 1207.  `low-loss-2mib`
was recorded before SACK recovery walked the scoreboard's gaps and a
window burst went out in one call: at 1 % loss over 2 MiB it is the one
case with long SACK recovery, every other lossy case losing 3-20 % of
at most 120 KB.
The small read buffer with reordering moves the receiver in and out of
that state many times; `resent-held-segment` delivers again a segment the
receiver holds out of order, which only the set's `covers` marks as a
duplicate.  `lost-first-segment` loses the first transmission of the
download's segment 0, `lost-first-fin` that of the upload's FIN;
`one-byte` and `three-full-segments` are the edges of the segment
table.  Every case must stay bit-identical.
"""

import dataclasses
import hashlib
import json

import pytest

from netdiag.rng import derive_seed, keyed_uniform
from netdiag.simulate import MSS, ClientParams, CwndProfile, LinkParams, simulate_flow_with_stats
from netdiag.trace import TransferDirection, write_trace

BYTES = 120_000
LOSSY = LinkParams(bandwidth=80e6, one_way_delay=0.01, loss_rate=0.04)

CASES = {
    "loss+delay": (LinkParams(bandwidth=20e6, one_way_delay=0.06, loss_rate=0.03), ClientParams(seed=3), BYTES),
    "delay-only": (LinkParams(bandwidth=80e6, one_way_delay=0.08), ClientParams(seed=3), BYTES),
    "reorder-only": (LinkParams(bandwidth=80e6, one_way_delay=0.01, reorder_rate=0.05), ClientParams(seed=4), BYTES),
    "reorder+loss": (
        LinkParams(bandwidth=80e6, one_way_delay=0.01, loss_rate=0.03, reorder_rate=0.05),
        ClientParams(seed=4),
        BYTES,
    ),
    "heavy-loss": (LinkParams(bandwidth=80e6, one_way_delay=0.01, loss_rate=0.2), ClientParams(seed=6), 40_000),
    "sack-off": (LOSSY, ClientParams(sack_enabled=False, dsack_enabled=False, seed=2), BYTES),
    "dsack-off": (LOSSY, ClientParams(dsack_enabled=False, seed=2), BYTES),
    **{
        f"profile-{profile.value}": (LOSSY, ClientParams(cwnd_growth_profile=profile, seed=5), BYTES)
        for profile in CwndProfile
    },
    "small-buffers": (LOSSY, ClientParams(read_buffer=16384, write_buffer=8192, seed=7), BYTES),
    "partial-segment": (LOSSY, ClientParams(seed=8), 83 * MSS + 517),
    "resent-held-segment": (
        LinkParams(bandwidth=20e6, one_way_delay=0.01, loss_rate=0.05, reorder_rate=0.1),
        ClientParams(seed=4),
        100_000,
    ),
    "lossless-2mib": (LinkParams(bandwidth=80e6, one_way_delay=0.01), ClientParams(seed=9), 2 << 20),
    "low-loss-2mib": (
        LinkParams(bandwidth=80e6, one_way_delay=0.01, loss_rate=0.01),
        ClientParams(seed=15),
        2 << 20,
    ),
    "reorder-read-buffer-2mib": (
        LinkParams(bandwidth=80e6, one_way_delay=0.01, reorder_rate=0.05),
        ClientParams(read_buffer=16384, seed=10),
        2 << 20,
    ),
    "lost-first-segment": (LOSSY, ClientParams(seed=11), BYTES, 1201),
    "lost-first-fin": (LOSSY, ClientParams(seed=12), BYTES, 1215),
    "one-byte": (LOSSY, ClientParams(seed=13), 1),
    "three-full-segments": (LOSSY, ClientParams(seed=14), 3 * MSS),
}

DIGESTS = {
    "delay-only": "cc9b935b8d0b58ba3a63c86117b60f3870811873b07c4da8f608ed5baec6392c",
    "dsack-off": "c286854c350ca0761b37f16e4288d8ecf69a1a87d6029b398ec503d50a45f9bd",
    "heavy-loss": "ccfe913520f4bfcda4285b3f8b96c48147c3ad31a4cd844986328f884acddbd2",
    "lossless-2mib": "035dfb31ab8bc4c6be19c83d2eb3c1dc879a2f5369c2cd84c6a28a204df279d9",
    "low-loss-2mib": "c126b7436b5549056b589b2d9b57d094e7de7ec5ed85f5f83d97f63915e70eeb",
    "lost-first-fin": "77a2576f3a616aebbe66d70121c7473d239364233c8f2eb5f7f4ea3549bf528b",
    "lost-first-segment": "2c8068a098e1b563df6df15a5588a685277a8f8110dd370880b88ca6b063df51",
    "loss+delay": "cf22c063a5b37e90e5c7045c544c652919fc6bcdcbfe998eeda10723f03df887",
    "one-byte": "6672b14901fa79aced63ace53afe2931cf03e52f06b895692bf12e2c4aa361a2",
    "partial-segment": "67a4a29588a07d3b81023c3d3a0caad429cafb66fcc9888e572c07000fb5f00a",
    "profile-biclike": "ad798d2dd703dc29fcf098cbbdbb4c49913c6bcaa72a1a3ba58e5a148f1d21cd",
    "profile-cubiclike": "d351830a6522f75dfa01718df2d387fb6d406b28e4496b77cd77893219fbc636",
    "profile-renolike": "6f0f3824dc0353d3aca298e7555574cfb402c4db255b207757a3aaa8a61eca8f",
    "reorder+loss": "0b93845601b020c3d4fffea33118801c94f5a8cb054d5b5054edb7a1762cdbc2",
    "reorder-read-buffer-2mib": "f62ac886dde6ac56a32428caeb18fc92498968e141aba33f6ca521735b9d752b",
    "reorder-only": "347aeb37ac461662f31859a327b6ff7acd43b013af3ae517852efa7840349cf4",
    "resent-held-segment": "515bcb68e99abb3c3ddba2720d678932f3d8279543c16d1251b716b5420b8de3",
    "sack-off": "e1e56af25f15a1e6f884b15ef7533b24f8d5aeeb9e6f6227a805dbc4da58456d",
    "small-buffers": "8c920096e5d7398e0f5201e717e22e9aca2a24834c8649cde833b16f9b6fb09b",
    "three-full-segments": "1199446ae11b8f3315e30557cc7a5eab84b76644b949012111a05c784628ba59",
}


def _digest(tmp_path, link, client, transfer_bytes, seed=1207) -> str:
    pair, stats = simulate_flow_with_stats(link, client, transfer_bytes, seed)
    digest = hashlib.sha256()
    for role in ("download", "upload"):
        path = tmp_path / f"{role}.csv"
        write_trace(getattr(pair, role), path)
        digest.update(path.read_bytes())
        digest.update(json.dumps(dataclasses.asdict(stats[role]), sort_keys=True).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_simulator_golden(tmp_path, name):
    assert _digest(tmp_path, *CASES[name]) == DIGESTS[name]


@pytest.mark.parametrize(
    "name, transfer, k",
    [
        ("lost-first-segment", TransferDirection.DOWNLOAD, 0),
        ("lost-first-fin", TransferDirection.UPLOAD, BYTES // MSS + 1),  # k = n_segs: the FIN
    ],
)
def test_case_loses_its_first_transmission(name, transfer, k):
    # the loss seed is the one _TransferSim derives
    link, _, _, seed = CASES[name]
    loss_seed = derive_seed(derive_seed(seed, transfer.value), transfer.value, "data-loss")
    assert keyed_uniform(loss_seed, k, 0) < link.loss_rate
