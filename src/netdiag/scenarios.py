"""Named simulation scenarios, corpus presets, and the corpus layout.

A scenario file is JSON: {"link": {...}, "client": {...}, "bytes": N,
"seed": S, "id": ID}.  Every scenario, preset or file, is labelled from
its parameters: its link by `simulate.link_is_healthy`, its client by
the faults whose settings it carries (`Scenario.client_label`).

A corpus is a directory of trace pairs and one labels file:

- pair `<id>` is `<id>.down.csv` (the download, captured at the client)
  and `<id>.up.csv` (the upload, captured at the server);
- `labels.csv` starts with the header `id,link,client`, then holds one
  row per pair: its id, the link tag HEALTHY or FAULTY, and the client
  tag HEALTHY, a fault name of the registry, or several fault names
  joined by '+' for simultaneous faults (`read_buf+write_buf`).

Every trace needs its partner and a row, and every row its two traces.
`emit_corpus` writes the scenarios of each group into a subdirectory of
that name, a corpus of its own; the `paper-matrix` preset writes the
groups `link` (both link states with client variety), `client` (healthy
link, single client conditions) and `multi` (healthy link, simultaneous
read and write buffer limits).  `read_corpus`, and so `extract` and
`eval`, reads a directory that has subdirectories but neither its own
labels file nor a given one as groups: each subdirectory is read as a
flat corpus, in name order, and never as groups itself.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError, IoFailure
from .preprocess import DEFAULT_FAULT_REGISTRY, parse_fields, parse_integer, read_artifact, read_text, write_text
from .rng import SplitMix64, derive_seed
from .simulate import (
    HEALTHY_LINK,
    ClientParams,
    CwndProfile,
    LinkParams,
    link_is_healthy,
    simulate_flow,
)
from .trace import TracePair, write_pair

FAULT_NAMES = tuple(DEFAULT_FAULT_REGISTRY)
BUFFER_LEVELS = (16384, 32768, 65536)  # against a ~100 KB per-direction pipe
_PROFILES = (CwndProfile.CUBICLIKE, CwndProfile.BICLIKE, CwndProfile.RENOLIKE)
DEFAULT_TRANSFER_BYTES = 2 * 1024 * 1024
_LABELS_FILE = "labels.csv"
_LABELS_HEADER = "id,link,client"
_DOWN, _UP = ".down.csv", ".up.csv"

# The ClientParams fields each registry fault sets: a flag to False, a
# buffer to the episode's buffer size; a '+' compound sets the fields of
# each of its faults.  Read back, a fault's first field marks it unless
# an earlier fault set that field too (sack_disabled absorbs DSACK).
_FAULT_FIELDS = {
    "sack_disabled": ("sack_enabled", "dsack_enabled"),
    "dsack_disabled": ("dsack_enabled",),
    "read_buf": ("read_buffer",),
    "write_buf": ("write_buffer",),
}
_DEFAULT_CLIENT = ClientParams()


@dataclass(frozen=True)
class Scenario:
    id: str
    link: LinkParams
    client: ClientParams
    transfer_bytes: int
    seed: int
    group: str = ""  # corpus subdirectory ('' = flat)

    @property
    def link_label(self) -> str:
        return "HEALTHY" if link_is_healthy(self.link) else "FAULTY"

    @property
    def client_label(self) -> str:
        """HEALTHY, or the registry faults `_FAULT_FIELDS` reads off the
        client, sorted by name and joined by '+' as `eval` spells them: a
        fault whose first field differs from the ClientParams default and
        was not set by an earlier fault."""
        faults, claimed = [], set()
        for fault, names in _FAULT_FIELDS.items():
            if names[0] not in claimed and getattr(self.client, names[0]) != getattr(_DEFAULT_CLIENT, names[0]):
                faults.append(fault)
                claimed.update(names)
        return "+".join(sorted(faults)) or "HEALTHY"

    def simulate(self) -> TracePair:
        try:
            return simulate_flow(self.link, self.client, self.transfer_bytes, self.seed)
        except ConfigError as exc:
            raise ConfigError(f"scenario {self.id!r}: {exc}") from exc


def client_for(condition: str, level: int, profile: CwndProfile, seed: int) -> ClientParams:
    """The client of a condition: HEALTHY, a registry fault, or faults joined by '+'."""
    buf = BUFFER_LEVELS[level % len(BUFFER_LEVELS)]
    fields = {}
    for fault in () if condition == "HEALTHY" else condition.split("+"):
        if fault not in _FAULT_FIELDS:
            raise ConfigError(f"unknown client condition {condition!r}")
        for name in _FAULT_FIELDS[fault]:
            fields[name] = False if isinstance(getattr(_DEFAULT_CLIENT, name), bool) else buf
    return ClientParams(cwnd_growth_profile=profile, seed=seed, **fields)


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


def _episode(cid, link, condition, i, client_seed, seed, transfer_bytes, group="") -> Scenario:
    """Episode i of a preset condition: its client takes the i-th TCP profile and buffer level."""
    client = client_for(condition, i, _PROFILES[i % 3], client_seed)
    return Scenario(cid, link, client, transfer_bytes, seed, group)


def preset_healthy(seed: int, transfer_bytes: int = DEFAULT_TRANSFER_BYTES) -> list[Scenario]:
    client_seed, episode_seed = derive_seed(seed, "client", 0), derive_seed(seed, "episode", 0)
    return [_episode("healthy_000", HEALTHY_LINK, "HEALTHY", 0, client_seed, episode_seed, transfer_bytes)]


def preset_paper_matrix(
    per_class: int, seed: int, transfer_bytes: int = DEFAULT_TRANSFER_BYTES
) -> list[Scenario]:
    """Full condition grid, per_class episodes per condition, in the
    groups `link`, `client` and `multi` (module docstring)."""
    conditions = ["HEALTHY", *FAULT_NAMES, "read_buf+write_buf"]
    episodes = []  # (id, link, condition, index, group)
    for state in ("HEALTHY", "FAULTY"):
        for i in range(per_class):
            cid = f"link_{state.lower()}_{i:03d}"
            link = HEALTHY_LINK if state == "HEALTHY" else faulty_link(derive_seed(seed, cid), i)
            episodes.append((cid, link, conditions[i % len(conditions)], i, "link"))
    for cond in conditions:
        group = "multi" if "+" in cond else "client"
        episodes += [(f"cf_{cond.replace('+', '_and_')}_{i:03d}", HEALTHY_LINK, cond, i, group) for i in range(per_class)]
    return [
        _episode(cid, link, cond, i, derive_seed(seed, cid, "client"), derive_seed(seed, cid, "episode"), transfer_bytes, group)
        for cid, link, cond, i, group in episodes
    ]


def _plain_name(value) -> str:
    """A scenario id, which names its trace files and its labels row: a
    non-empty printable string with no leading '.' and no '/', '\\' or ','."""
    if not isinstance(value, str) or not value.isprintable() or value[:1] in ("", ".") or set(value) & set("/\\,"):
        raise ValueError(f"id {value!r} is not a plain name (empty, leading '.', '/', '\\', ',' or a control character)")
    return value


_SCENARIO_KEYS = dict.fromkeys(("link", "client", "bytes", "seed", "id"), object)
_LINK_KEYS = {f.name: object for f in fields(LinkParams)}
_CLIENT_KEYS = {f.name: object for f in fields(ClientParams)}


def _scenario_from_dict(raw) -> list[Scenario]:
    raw = parse_fields(raw, "scenario", _SCENARIO_KEYS)
    link = LinkParams(**parse_fields(raw.get("link", {}), "link", _LINK_KEYS))
    client = ClientParams(**parse_fields(raw.get("client", {}), "client", _CLIENT_KEYS))
    transfer_bytes = parse_integer(raw.get("bytes", DEFAULT_TRANSFER_BYTES), "bytes", minimum=1)
    seed = parse_integer(raw.get("seed", 0), "seed")
    return [Scenario(_plain_name(raw.get("id", "scenario_000")), link, client, transfer_bytes, seed)]


def scenario_from_json(path) -> list[Scenario]:
    return read_artifact(path, "scenario", _scenario_from_dict)


def _pair_files(directory: Path, pair_id: str) -> tuple[Path, Path]:
    return directory / f"{pair_id}{_DOWN}", directory / f"{pair_id}{_UP}"


def emit_corpus(scenarios: list[Scenario], outdir) -> None:
    """Simulate scenarios into a corpus (module docstring), one
    subdirectory per group.  A group's directory is made once its first
    pair has simulated, so a scenario that fails first leaves none."""
    outdir = Path(outdir)
    by_group: dict[str, list[Scenario]] = {}
    for sc in scenarios:
        by_group.setdefault(sc.group, []).append(sc)
    for group, members in sorted(by_group.items()):
        target = outdir / group if group else outdir
        lines = [_LABELS_HEADER]
        for sc in members:
            pair = sc.simulate()
            if len(lines) == 1:
                try:
                    target.mkdir(parents=True, exist_ok=True)
                except OSError as exc:
                    raise IoFailure(str(exc)) from exc
            write_pair(pair, *_pair_files(target, sc.id))
            lines.append(f"{sc.id},{sc.link_label},{sc.client_label}")
        write_text(target / _LABELS_FILE, "\n".join(lines) + "\n")


def read_labels(path) -> dict[str, tuple[str, str]]:
    lines = [ln for ln in read_text(path).split("\n") if ln.strip()]
    if not lines or lines[0].strip() != _LABELS_HEADER:
        raise ConfigError(f"{path}: labels file must start with '{_LABELS_HEADER}'")
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


def read_corpus(tracedir, labels_file=None) -> list[tuple[str, Path, Path, str, str]]:
    """Each pair of a corpus, flat or grouped (module docstring), with its
    labels row: (pair id, down path, up path, link tag, client tag)."""
    tracedir = Path(tracedir)
    if not labels_file and not os.path.exists(tracedir / _LABELS_FILE):
        try:
            groups = sorted(path for path in tracedir.iterdir() if path.is_dir())
        except OSError:  # read as flat, which names the missing labels file
            groups = []
        if groups:
            return [row for group in groups for row in _read_flat(group, group / _LABELS_FILE)]
    return _read_flat(tracedir, labels_file or tracedir / _LABELS_FILE)


def _read_flat(tracedir: Path, labels_file) -> list[tuple[str, Path, Path, str, str]]:
    """The pairs of a flat corpus in file-name order.  A row without both
    traces, a trace without its partner, a pair without a row and a
    directory without pairs are ConfigErrors."""
    labels = read_labels(labels_file)
    try:
        names = set(os.listdir(tracedir))
    except OSError:
        names = set()  # read as holding no traces; the checks below name what is missing
    for pair_id in sorted(labels):
        missing = [name for name in (f"{pair_id}{_DOWN}", f"{pair_id}{_UP}") if name not in names]
        if missing:
            raise ConfigError(f"{labels_file}: row {pair_id!r} has no trace {' or '.join(missing)} in {tracedir}")
    for suffix, other in ((_DOWN, _UP), (_UP, _DOWN)):
        for name in sorted(names):
            partner = name[: -len(suffix)] + other
            if name.endswith(suffix) and partner not in names:
                raise ConfigError(f"orphan trace {name}: missing partner {partner}")
    ids = [name[: -len(_DOWN)] for name in sorted(names) if name.endswith(_DOWN)]
    if not ids:
        raise ConfigError(f"no trace pairs found in {tracedir}")
    for pair_id in ids:
        if pair_id not in labels:
            raise ConfigError(f"no label row for trace pair {pair_id!r}")
    return [(pair_id, *_pair_files(tracedir, pair_id), *labels[pair_id]) for pair_id in ids]
