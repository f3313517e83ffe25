"""The four benchmark workloads of the netdiag operator pipeline.

Every workload is a closed loop with one caller.  The harness calls
`set_up(workdir)` (timed as set-up, repeated), then for each operation
`prepare(k)` (untimed), `run(args)` (timed) and `verify(k, args,
result)` (untimed; raises `CheckFailed` on a wrong output).  After the
loop come `probes()`, untimed (name, run, check) calls outside the
loop, and `outcome()`, which returns the behaviour-fingerprint material
and the accuracy figures.

All inputs derive from the run seed through `derive`, which is the
benchmark's own hash, so netdiag receives only generated inputs.  Calls
into netdiag go through module attributes (`trace.read_pair`, not a
bound name) so that the traced run can replace them with span wrappers.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from netdiag import classifiers, features, preprocess, scenarios, simulate, trace
from netdiag.cli import load_config

KIB = 1024
MIB = 1024 * KIB

# Exit codes `netdiag diagnose` documents for a successful verdict.
VERDICT_EXIT_CODES = {"healthy": 0, "link_fault": 10, "client_fault": 20}


@dataclass(frozen=True)
class Sizes:
    synth_per_class: int
    synth_bytes: int
    corpus_bytes: int  # transfers behind diagnose and train
    diagnose_train_per_class: int
    diagnose_heldout_per_class: int
    cli_pairs: int  # held-out pairs diagnosed through the CLI after the loop
    train_per_class: int
    train_jobs: int


SIZES = {
    "full": Sizes(
        synth_per_class=1,
        synth_bytes=2 * MIB,
        corpus_bytes=256 * KIB,
        diagnose_train_per_class=12,
        diagnose_heldout_per_class=6,
        cli_pairs=8,
        train_per_class=20,
        train_jobs=8,
    ),
    # Small enough for the smoke test; per-fault CV needs >= 3 rows per class.
    "tiny": Sizes(
        synth_per_class=1,
        synth_bytes=32 * KIB,
        corpus_bytes=32 * KIB,
        diagnose_train_per_class=3,
        diagnose_heldout_per_class=1,
        cli_pairs=2,
        train_per_class=3,
        train_jobs=2,
    ),
}


class CheckFailed(Exception):
    """A workload output differs from what the check expects."""


def derive(seed: int, *labels) -> int:
    """Child seed of the run seed; independent of netdiag's own RNG."""
    text = ":".join(str(part) for part in (seed, *labels))
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "little") >> 1


def digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _signature_databases(per_class: int, seed: int, nbytes: int):
    """Link database from every group and client database from the
    client group, simulated and extracted in memory."""
    catalog = features.default_catalog()
    link_rows, client_rows = [], []
    for sc in scenarios.preset_paper_matrix(per_class, seed, nbytes):
        values = features.extract_signature(sc.simulate(), catalog).values
        link_rows.append((values, sc.link_label))
        if sc.group == "client":
            client_rows.append((values, sc.client_label))
    names, version = catalog.feature_names, catalog.version
    return (
        preprocess.encode_labels(link_rows, names, preprocess.LabelKind.LINK, version),
        preprocess.encode_labels(client_rows, names, preprocess.LabelKind.CLIENT, version),
    )


@dataclass(frozen=True)
class HeldOutPair:
    pair_id: str
    group: str
    down: Path
    up: Path
    link_faulty: bool
    client_faults: frozenset

    def verdict_correct(self, verdict) -> bool:
        """The exact-verdict rule of `evaluation.evaluate_verdicts`."""
        if self.link_faulty:
            return verdict.link is classifiers.LinkState.FAULTY
        return verdict.link is classifiers.LinkState.HEALTHY and verdict.client_faults == self.client_faults


def _held_out_pairs(corpus: Path) -> list[HeldOutPair]:
    pairs = []
    for group_dir in sorted(p for p in corpus.iterdir() if p.is_dir()):
        labels = scenarios.read_labels(group_dir / "labels.csv")
        for pair_id, (link, client) in sorted(labels.items()):
            faults = frozenset() if client == "HEALTHY" else frozenset(client.split("+"))
            pairs.append(
                HeldOutPair(
                    pair_id=pair_id,
                    group=group_dir.name,
                    down=group_dir / f"{pair_id}.down.csv",
                    up=group_dir / f"{pair_id}.up.csv",
                    link_faulty=link == "FAULTY",
                    client_faults=faults,
                )
            )
    return pairs


class Synth:
    """Operation k emits scenario k of the paper-matrix grid of round
    k // grid as a one-pair corpus; each round draws a new grid seed."""

    name = "synth"

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.sizes = sizes
        self.block = len(self._grid(0))
        self._round = (-1, [])
        self._corpus_hash = hashlib.sha256()
        self._flow_stats: list = []
        capture = simulate.simulate_flow_with_stats

        def simulate_and_record(*args, **kwargs):
            result = capture(*args, **kwargs)
            self._flow_stats.append(result[1])
            return result

        simulate.simulate_flow_with_stats = simulate_and_record

    def _grid(self, round_index: int):
        seed = derive(self.seed, "synth", round_index)
        return scenarios.preset_paper_matrix(self.sizes.synth_per_class, seed, self.sizes.synth_bytes)

    def set_up(self, workdir: Path) -> None:
        self.workdir = workdir
        warmup = scenarios.preset_healthy(derive(self.seed, "synth", "warmup"), self.sizes.synth_bytes)
        scenarios.emit_corpus(warmup, workdir / "warmup")
        shutil.rmtree(workdir / "warmup")

    def prepare(self, k: int):
        round_index, i = divmod(k, self.block)
        if self._round[0] != round_index:
            self._round = (round_index, self._grid(round_index))
        self._flow_stats.clear()
        return self._round[1][i], self.workdir / f"op{k}"

    def run(self, args):
        sc, outdir = args
        scenarios.emit_corpus([sc], outdir)

    def verify(self, k: int, args, result) -> None:
        sc, outdir = args
        target = outdir / sc.group
        try:
            _check(len(self._flow_stats) == 1, f"{sc.id}: expected one simulated pair")
            for direction, stats in self._flow_stats[0].items():
                _check(
                    stats.delivered_bytes == stats.transfer_bytes == sc.transfer_bytes,
                    f"{sc.id}/{direction}: delivered {stats.delivered_bytes} of {sc.transfer_bytes} bytes",
                )
            files = sorted(p.name for p in target.iterdir())
            expected = sorted([f"{sc.id}.down.csv", f"{sc.id}.up.csv", "labels.csv"])
            _check(files == expected, f"{sc.id}: corpus holds {files}")
            labels = scenarios.read_labels(target / "labels.csv")
            _check(labels == {sc.id: (sc.link_label, sc.client_label)}, f"{sc.id}: labels {labels}")
            if k < self.block:
                for name in expected:
                    self._corpus_hash.update(f"{sc.group}/{name}\n".encode("utf-8"))
                    self._corpus_hash.update((target / name).read_bytes())
        finally:
            shutil.rmtree(outdir, ignore_errors=True)

    def probes(self) -> list:
        return []

    def outcome(self) -> dict:
        return {"fingerprint": {"corpus_sha256": self._corpus_hash.hexdigest()}}


class Diagnose:
    """Operation k reads held-out pair k mod n from disk and diagnoses it
    with a bundle trained in set-up at a different derived seed.  After
    the loop, `python -m netdiag.cli diagnose` runs on a sample of the
    pairs, one subprocess at a time, and must agree with the loop."""

    name = "diagnose"

    def __init__(self, seed: int, sizes: Sizes, src: Path):
        self.seed = seed
        self.sizes = sizes
        self.catalog = features.default_catalog()
        self._first: dict[int, object] = {}
        self.env = {k: v for k, v in os.environ.items() if k != "NETDIAG_CONFIG"}
        self.env["PYTHONPATH"] = str(src)

    def set_up(self, workdir: Path) -> None:
        train_seed = derive(self.seed, "train")
        link_db, client_db = _signature_databases(
            self.sizes.diagnose_train_per_class, train_seed, self.sizes.corpus_bytes
        )
        config = load_config(None, train_seed)
        lpd = classifiers.train_lpd(link_db, config.lpd, link_profile=config.link_profile)
        cfd = classifiers.train_cfd(client_db, config.cfd, seed=config.seed)
        self.bundle = workdir / "bundle"
        classifiers.save_bundle(self.bundle, lpd, cfd, config.catalog_version)
        self.lpd, self.cfd, _ = classifiers.load_bundle(self.bundle)
        heldout = scenarios.preset_paper_matrix(
            self.sizes.diagnose_heldout_per_class, derive(self.seed, "heldout"), self.sizes.corpus_bytes
        )
        scenarios.emit_corpus(heldout, workdir / "heldout")
        self.pairs = _held_out_pairs(workdir / "heldout")
        self.block = len(self.pairs)

    def prepare(self, k: int) -> HeldOutPair:
        return self.pairs[k % self.block]

    def run(self, pair: HeldOutPair):
        return classifiers.diagnose(self.lpd, self.cfd, trace.read_pair(pair.down, pair.up), self.catalog)

    def verify(self, k: int, pair: HeldOutPair, verdict) -> None:
        i = k % self.block
        if i not in self._first:
            self._first[i] = verdict
        _check(verdict == self._first[i], f"{pair.pair_id}: verdict changed between passes")

    def probes(self) -> list:
        """One CLI diagnosis per sampled pair and as many bare `import
        netdiag` runs, the start-up every CLI call pays."""
        step = max(1, self.block // self.sizes.cli_pairs)
        sample = list(range(0, self.block, step))[: self.sizes.cli_pairs]
        calls = [("cli.call", partial(self._cli_diagnose, i), partial(self._check_cli, i)) for i in sample]
        imports = [("cli.import", self._bare_import, self._check_import)] * len(sample)
        return calls + imports

    def _subprocess(self, *args):
        return subprocess.run([sys.executable, *args], env=self.env, capture_output=True, text=True, timeout=60)

    def _cli_diagnose(self, i: int):
        pair = self.pairs[i]
        return self._subprocess("-m", "netdiag.cli", "diagnose", "--bundle", str(self.bundle),
                                "--down", str(pair.down), "--up", str(pair.up))

    def _check_cli(self, i: int, proc) -> None:
        pair_id, verdict = self.pairs[i].pair_id, self._first[i]
        _check("Traceback" not in proc.stderr, f"{pair_id}: traceback on stderr:\n{proc.stderr}")
        _check(proc.returncode in VERDICT_EXIT_CODES.values(), f"{pair_id}: exit code {proc.returncode}")
        if verdict.link is classifiers.LinkState.FAULTY:
            code = VERDICT_EXIT_CODES["link_fault"]
        else:
            code = VERDICT_EXIT_CODES["client_fault" if verdict.client_faults else "healthy"]
        _check(proc.returncode == code, f"{pair_id}: exit code {proc.returncode}, verdict implies {code}")
        expected = json.loads(json.dumps(verdict.to_dict()))
        _check(json.loads(proc.stdout) == expected, f"{pair_id}: CLI verdict differs from in-process")

    def _bare_import(self):
        return self._subprocess("-c", "import netdiag")

    @staticmethod
    def _check_import(proc) -> None:
        _check(proc.returncode == 0 and "Traceback" not in proc.stderr, f"import netdiag failed:\n{proc.stderr}")

    def outcome(self) -> dict:
        verdicts = [self._first[i] for i in range(self.block)]
        correct = [p.verdict_correct(v) for p, v in zip(self.pairs, verdicts)]
        multi = [c for p, c in zip(self.pairs, correct) if p.group == "multi"]
        return {
            "fingerprint": {
                "verdicts_sha256": digest([[p.pair_id, v.to_dict()] for p, v in zip(self.pairs, verdicts)])
            },
            "verdict_accuracy": sum(correct) / len(correct),
            "compound_fault_accuracy": sum(multi) / len(multi),
        }


class Train:
    """Operation k is the `netdiag train` path for both stages, in
    process, with the CLI default config at job seed k mod jobs."""

    name = "train"
    # The databases come from one fixed generator seed and only the job
    # seeds from the run seed: the LPD solver's work differs up to 6x
    # between database draws (3k to 21k pair updates per job over run
    # seeds 21-30), which no run length averages out, while job seeds
    # move it by a few per cent.
    database_seed = derive(0, "train")

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.sizes = sizes
        self.block = sizes.train_jobs
        self._first: dict[int, dict] = {}

    def set_up(self, workdir: Path) -> None:
        self.workdir = workdir
        link_db, client_db = _signature_databases(
            self.sizes.train_per_class, self.database_seed, self.sizes.corpus_bytes
        )
        self.link_db = workdir / "link.csv"
        self.client_db = workdir / "client.csv"
        preprocess.save_database(link_db, self.link_db)
        preprocess.save_database(client_db, self.client_db)
        self.configs = [load_config(None, derive(self.seed, "job", j)) for j in range(self.block)]

    def prepare(self, k: int):
        return self.configs[k % self.block], self.workdir / f"bundle{k}"

    def run(self, args):
        config, bundle = args
        link_db = preprocess.load_database(self.link_db)
        lpd = classifiers.train_lpd(link_db, config.lpd, link_profile=config.link_profile)
        classifiers.save_lpd_part(bundle, lpd, config.catalog_version)
        client_db = preprocess.load_database(self.client_db)
        cfd = classifiers.train_cfd(client_db, config.cfd, seed=config.seed)
        classifiers.save_cfd_part(bundle, cfd, config.catalog_version)
        return lpd, cfd

    @staticmethod
    def _chosen(lpd, cfd) -> dict:
        def subset(report):
            return [report.chosen_q, list(report.chosen_indices)]

        return {
            "lpd": subset(lpd.selection),
            "cfd": {m.fault_name: subset(m.selection) for m in cfd.modules},
        }

    def verify(self, k: int, args, result) -> None:
        bundle = args[1]
        try:
            chosen = self._chosen(*result)
            lpd, cfd, _ = classifiers.load_bundle(bundle)
            _check(self._chosen(lpd, cfd) == chosen, f"job {k}: saved bundle differs from the trained one")
        finally:
            shutil.rmtree(bundle, ignore_errors=True)
        report = result[0].selection
        chosen["cv_accuracy"] = report.cv_accuracy[report.candidate_sizes.index(report.chosen_q)]
        j = k % self.block
        if j not in self._first:
            self._first[j] = chosen
        _check(chosen == self._first[j], f"job seed {j}: chosen subsets changed between passes")

    def probes(self) -> list:
        return []

    def outcome(self) -> dict:
        jobs = [self._first[j] for j in range(self.block)]
        return {
            "fingerprint": {"chosen_subsets": [{"lpd": j["lpd"], "cfd": j["cfd"]} for j in jobs]},
            "train_cv_accuracy": sum(j["cv_accuracy"] for j in jobs) / len(jobs),
        }


def make(name: str, seed: int, sizes: Sizes, src: Path):
    if name == "diagnose":
        return Diagnose(seed, sizes, src)
    return {"synth": Synth, "train": Train}[name](seed, sizes)
