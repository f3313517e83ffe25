"""Named simulation scenarios and corpus presets.

A scenario file is JSON: {"link": {...}, "client": {...}, "bytes": N,
"seed": S}.  The `paper-matrix` preset emits a full training/testing
grid: healthy and degraded links crossed with the healthy client and
each fault class, plus the simultaneous read+write buffer case.  Labels
ride in a labels.csv with columns id,link,client where client is
HEALTHY or '+'-joined fault names.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, IoFailure
from .preprocess import parse_integer, write_text
from .rng import SplitMix64, derive_seed
from .simulate import (
    HEALTHY_LINK,
    ClientParams,
    CwndProfile,
    LinkParams,
    simulate_flow,
)
from .trace import TracePair, write_pair

FAULT_NAMES = ("sack_disabled", "dsack_disabled", "read_buf", "write_buf")
BUFFER_LEVELS = (16384, 32768, 65536)  # against a ~100 KB per-direction pipe
_PROFILES = (CwndProfile.CUBICLIKE, CwndProfile.BICLIKE, CwndProfile.RENOLIKE)
DEFAULT_TRANSFER_BYTES = 2 * 1024 * 1024


@dataclass(frozen=True)
class Scenario:
    id: str
    link: LinkParams
    client: ClientParams
    transfer_bytes: int
    seed: int
    link_label: str  # FAULTY | HEALTHY
    client_label: str  # HEALTHY | fault name | 'a+b' multi-fault
    group: str = ""  # corpus subdirectory ('' = flat)

    def simulate(self) -> TracePair:
        return simulate_flow(self.link, self.client, self.transfer_bytes, self.seed)


def client_for(fault: str, level: int, profile: CwndProfile, seed: int) -> ClientParams:
    buf = BUFFER_LEVELS[level % len(BUFFER_LEVELS)]
    base = dict(
        sack_enabled=True,
        dsack_enabled=True,
        read_buffer=262144,
        write_buffer=262144,
        cwnd_growth_profile=profile,
        seed=seed,
    )
    if fault == "HEALTHY":
        pass
    elif fault == "sack_disabled":
        base.update(sack_enabled=False, dsack_enabled=False)
    elif fault == "dsack_disabled":
        base.update(dsack_enabled=False)
    elif fault == "read_buf":
        base.update(read_buffer=buf)
    elif fault == "write_buf":
        base.update(write_buffer=buf)
    elif fault == "read_buf+write_buf":
        base.update(read_buffer=buf, write_buffer=buf)
    else:
        raise ConfigError(f"unknown client condition {fault!r}")
    return ClientParams(**base)


def faulty_link(seed: int, mode: int) -> LinkParams:
    """Degraded-link draw: loss 1-10%, delay 15-100 ms, or both."""
    rng = SplitMix64(seed)
    loss = 0.01 + rng.uniform() * 0.09
    delay = 0.015 + rng.uniform() * 0.085
    if mode % 3 == 0:
        return LinkParams(bandwidth=80e6, one_way_delay=0.010, loss_rate=loss)
    if mode % 3 == 1:
        return LinkParams(bandwidth=80e6, one_way_delay=delay)
    return LinkParams(bandwidth=80e6, one_way_delay=delay, loss_rate=loss)


def preset_healthy(seed: int, transfer_bytes: int = DEFAULT_TRANSFER_BYTES) -> list[Scenario]:
    return [
        Scenario(
            id="healthy_000",
            link=HEALTHY_LINK,
            client=client_for("HEALTHY", 0, CwndProfile.CUBICLIKE, derive_seed(seed, "client", 0)),
            transfer_bytes=transfer_bytes,
            seed=derive_seed(seed, "episode", 0),
            link_label="HEALTHY",
            client_label="HEALTHY",
        )
    ]


def preset_paper_matrix(
    per_class: int, seed: int, transfer_bytes: int = DEFAULT_TRANSFER_BYTES
) -> list[Scenario]:
    """Full condition grid, per_class episodes per condition.

    Emits three corpus groups: `link` (both link states with client
    variety), `client` (healthy link, single client conditions), and
    `multi` (healthy link, simultaneous read+write buffer limits).
    """
    out: list[Scenario] = []
    conditions = ["HEALTHY"] + list(FAULT_NAMES)
    link_conditions = conditions + ["read_buf+write_buf"]

    for state in ("HEALTHY", "FAULTY"):
        for i in range(per_class):
            cid = f"link_{state.lower()}_{i:03d}"
            cond = link_conditions[i % len(link_conditions)]
            link = HEALTHY_LINK if state == "HEALTHY" else faulty_link(derive_seed(seed, cid), i)
            out.append(
                Scenario(
                    id=cid,
                    link=link,
                    client=client_for(cond, i, _PROFILES[i % 3], derive_seed(seed, cid, "client")),
                    transfer_bytes=transfer_bytes,
                    seed=derive_seed(seed, cid, "episode"),
                    link_label=state,
                    client_label=cond,
                    group="link",
                )
            )

    for cond in conditions + ["read_buf+write_buf"]:
        tag = cond.replace("+", "_and_")
        group = "multi" if "+" in cond else "client"
        for i in range(per_class):
            cid = f"cf_{tag}_{i:03d}"
            out.append(
                Scenario(
                    id=cid,
                    link=HEALTHY_LINK,
                    client=client_for(cond, i, _PROFILES[i % 3], derive_seed(seed, cid, "client")),
                    transfer_bytes=transfer_bytes,
                    seed=derive_seed(seed, cid, "episode"),
                    link_label="HEALTHY",
                    client_label=cond,
                    group=group,
                )
            )
    return out


def _plain_name(value) -> str:
    """A scenario id, which names its trace files and its labels row: a
    non-empty printable string with no leading '.' and no '/', '\\' or ','."""
    if not isinstance(value, str) or not value.isprintable() or value[:1] in ("", ".") or set(value) & set("/\\,"):
        raise ValueError(f"id {value!r} is not a plain name (empty, leading '.', '/', '\\', ',' or a control character)")
    return value


def scenario_from_json(path) -> list[Scenario]:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: a scenario must be a JSON object, got {type(raw).__name__}")
    allowed = {"link", "client", "bytes", "seed", "id"}
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"{path}: unknown scenario keys {sorted(unknown)}")
    try:
        link_kw = dict(raw.get("link", {}))
        client_kw = dict(raw.get("client", {}))
        if "cwnd_growth_profile" in client_kw:
            client_kw["cwnd_growth_profile"] = CwndProfile(client_kw["cwnd_growth_profile"])
        link = LinkParams(**link_kw)
        client = ClientParams(**client_kw)
        transfer_bytes = parse_integer(raw.get("bytes", DEFAULT_TRANSFER_BYTES), "bytes", minimum=1)
        seed = parse_integer(raw.get("seed", 0), "seed")
        scenario_id = _plain_name(raw.get("id", "scenario_000"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return [
        Scenario(
            id=scenario_id,
            link=link,
            client=client,
            transfer_bytes=transfer_bytes,
            seed=seed,
            link_label="HEALTHY" if link.loss_rate == 0 and link.one_way_delay <= 0.010 else "FAULTY",
            client_label="HEALTHY",
        )
    ]


def emit_corpus(scenarios: list[Scenario], outdir) -> None:
    """Simulate scenarios into <id>.down.csv / <id>.up.csv + labels.csv.

    Scenarios carrying a group land in a subdirectory per group, each a
    self-contained corpus with its own labels file.
    """
    outdir = Path(outdir)
    by_group: dict[str, list[Scenario]] = {}
    for sc in scenarios:
        by_group.setdefault(sc.group, []).append(sc)
    for group, members in sorted(by_group.items()):
        target = outdir / group if group else outdir
        try:
            target.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise IoFailure(str(exc)) from exc
        lines = ["id,link,client"]
        for sc in members:
            pair = sc.simulate()
            write_pair(pair, target / f"{sc.id}.down.csv", target / f"{sc.id}.up.csv")
            lines.append(f"{sc.id},{sc.link_label},{sc.client_label}")
        write_text(target / "labels.csv", "\n".join(lines) + "\n")


def read_labels(path) -> dict[str, tuple[str, str]]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise IoFailure(f"{path}: not UTF-8 text: {exc}") from exc
    lines = [ln for ln in text.split("\n") if ln.strip()]
    if not lines or lines[0].strip() != "id,link,client":
        raise ConfigError(f"{path}: labels file must start with 'id,link,client'")
    out = {}
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 3:
            raise ConfigError(f"{path}: bad labels row {ln!r}")
        pair_id = parts[0].strip()
        if pair_id in out:
            raise ConfigError(f"{path}: repeated id {pair_id!r}")
        out[pair_id] = (parts[1].strip(), parts[2].strip())
    return out
