"""Operator command line.

Subcommands: extract, train, diagnose, eval, synth.  Machine-readable
JSON goes to stdout; human summaries go to stderr (silenced by
--quiet).  Exit codes: 0 healthy/ok, 2 usage or config error, 3
training failure, 4 catalog mismatch, 10 link fault found, 20 client
fault(s) found.  The files each subcommand reads, and how a malformed
one fails, are the input contract of `netdiag.preprocess`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import classifiers as clf
from .errors import (
    BadHeader,
    CatalogMismatch,
    ConfigError,
    EmptyTrace,
    IoFailure,
    MalformedRow,
    NetdiagError,
    UnknownLabel,
)
from .evaluation import GroundTruth, evaluate_verdicts, render_report
from .features import default_catalog, extract_signature
from .preprocess import (
    DEFAULT_FAULT_REGISTRY,
    HEALTHY_CLIENT,
    LINK_FAULTY,
    LabelKind,
    encode_labels,
    load_database,
    parse_fields,
    parse_integer,
    parse_real,
    parse_registry,
    read_artifact,
    read_tag,
    save_database,
    write_artifact,
    write_text,
)
from .scenarios import (
    DEFAULT_TRANSFER_BYTES,
    emit_corpus,
    preset_healthy,
    preset_paper_matrix,
    read_corpus,
    scenario_from_json,
)
from .svm import KernelSpec
from .trace import read_pair

ENV_CONFIG = "NETDIAG_CONFIG"

_USAGE_ERRORS = (
    ConfigError,
    BadHeader,
    MalformedRow,
    EmptyTrace,
    UnknownLabel,
    IoFailure,
)


@dataclass(frozen=True)
class CliConfig:
    catalog_version: str
    seed: int
    fault_registry: dict[str, int]
    link_profile: str
    lpd: clf.PipelineConfig
    cfd: dict[str, clf.PipelineConfig]


_CONFIG_KEYS = {"catalog_version": str, "link_profile": str, **dict.fromkeys(("seed", "fault_registry", "lpd", "cfd"), object)}
_PIPELINE_KEYS = dict.fromkeys(("kernel", "C", "max_iter", "tol", "candidate_sizes", "cv_folds", "fp_penalty"), object)


def _parse_pipeline(raw, where: str, base: clf.PipelineConfig) -> clf.PipelineConfig:
    raw = parse_fields(raw, where, _PIPELINE_KEYS)
    svm = base.svm
    if "kernel" in raw:
        kernel = parse_fields(raw["kernel"], f"{where}.kernel", {"variant": object, "sigma": object})
        svm = replace(svm, kernel=KernelSpec(kernel.get("variant", "quadratic"), kernel.get("sigma")))
    svm = replace(
        svm,
        C=parse_real(raw.get("C", svm.C), f"{where}.C"),
        max_iter=parse_integer(raw.get("max_iter", svm.max_iter), f"{where}.max_iter"),
        tol=parse_real(raw.get("tol", svm.tol), f"{where}.tol"),
    )
    sizes = raw.get("candidate_sizes", list(base.candidate_sizes))
    if not isinstance(sizes, list) or not sizes:
        raise TypeError(f"{where}.candidate_sizes must be a non-empty list of integers")
    return replace(
        base,
        svm=svm,
        candidate_sizes=tuple(parse_integer(q, f"{where}.candidate_sizes", minimum=1) for q in sizes),
        cv_folds=parse_integer(raw.get("cv_folds", base.cv_folds), f"{where}.cv_folds", minimum=2),
        # A negative penalty would make the CV objective reward false alarms.
        fp_penalty=parse_real(raw.get("fp_penalty", base.fp_penalty), f"{where}.fp_penalty", minimum=0.0),
    )


def _config_from_dict(raw, seed_override: int | None) -> CliConfig:
    raw = parse_fields(raw, "config", _CONFIG_KEYS)
    seed = parse_integer(raw.get("seed", 0), "seed")
    registry = parse_registry(raw.get("fault_registry", DEFAULT_FAULT_REGISTRY))
    seed = seed if seed_override is None else seed_override
    lpd = _parse_pipeline(raw.get("lpd", {}), "lpd", clf.default_lpd_config(seed=seed))
    cfd_raw = dict(parse_fields(raw.get("cfd", {}), "cfd", dict.fromkeys(["default", *registry], object)))
    default_raw = cfd_raw.pop("default", {})
    cfd = {}
    for name in registry:
        base = _parse_pipeline(default_raw, "cfd.default", clf.default_cf_config(name, seed=seed))
        cfd[name] = _parse_pipeline(cfd_raw.get(name, {}), f"cfd.{name}", base)
    return CliConfig(
        catalog_version=raw.get("catalog_version", "v1"),
        seed=seed,
        fault_registry=registry,
        link_profile=raw.get("link_profile", "default"),
        lpd=lpd,
        cfd=cfd,
    )


def load_config(path: str | None, seed_override: int | None) -> CliConfig:
    source = path or os.environ.get(ENV_CONFIG)
    if source:
        return read_artifact(source, "config", lambda raw: _config_from_dict(raw, seed_override))
    return _config_from_dict({}, seed_override)


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def cmd_extract(args, config: CliConfig) -> int:
    catalog = default_catalog()
    if config.catalog_version != catalog.version:
        raise CatalogMismatch(
            f"configured catalog {config.catalog_version!r} unavailable; this build provides {catalog.version!r}"
        )
    kind = LabelKind(args.kind)
    rows = []
    for pair_id, down, up, link_tag, client_tag in read_corpus(args.traces, args.labels):
        tag = link_tag if kind is LabelKind.LINK else client_tag
        if kind is LabelKind.CLIENT and "+" in tag:
            raise ConfigError(
                f"pair {pair_id!r} carries multiple faults {tag!r}; single-fault rows only for training"
            )
        sig = extract_signature(read_pair(down, up), catalog)
        rows.append((sig.values, tag))
    db = encode_labels(rows, catalog.feature_names, kind, catalog.version, config.fault_registry)
    if args.append:
        existing = load_database(args.append)
        if existing.catalog_version != db.catalog_version:
            raise CatalogMismatch(
                f"mixed catalog versions: {existing.catalog_version!r} vs {db.catalog_version!r}"
            )
        # The new rows carry labels of the config's kind and registry; rows
        # stored under another kind or registry would be read wrongly.
        if existing.label_kind is not db.label_kind:
            raise ConfigError(
                f"cannot append {kind.value} rows to the {existing.label_kind.value} database {args.append}"
            )
        if existing.fault_registry != db.fault_registry:
            raise ConfigError(
                f"configured fault registry {db.fault_registry} differs from {existing.fault_registry}"
                f" of the database {args.append}"
            )
        db = replace(
            existing,
            X=np.vstack([existing.X, db.X]),
            y=np.concatenate([existing.y, db.y]),
        )
    save_database(db, args.out)
    _say(args, f"extracted {db.n} signature rows x {db.m} features -> {args.out}")
    _emit({"rows": db.n, "features": db.m, "database": str(args.out)})
    return 0


def _train_report(args, name: str, model, selection) -> dict:
    """The summary of one trained module, the LPD or a CFD module: its
    kernel, chosen size and that size's CV accuracy, and solver telemetry.
    It is said in one stderr line, with a warning naming the module when
    the solver hit the iteration cap."""
    meta = model.training_meta
    report = {
        "kernel": model.kernel.variant,
        "chosen_q": selection.chosen_q,
        "cv_accuracy": selection.cv_accuracy[selection.candidate_sizes.index(selection.chosen_q)],
        "converged": meta.converged,
        "updates": meta.updates,
        "final_kkt_residual": meta.final_kkt_residual,
        "n_sv": int(model.support_vectors.shape[0]),
    }
    _say(
        args,
        f"{name}: kernel={report['kernel']} q={report['chosen_q']} cv_acc={report['cv_accuracy']:.4f} "
        f"converged={meta.converged} updates={meta.updates} kkt={meta.final_kkt_residual:.3g} n_sv={report['n_sv']}",
    )
    if not meta.converged:
        _say(args, f"warning: {name}: solver hit the iteration cap; model kept")
    return report


def cmd_train(args, config: CliConfig) -> int:
    db = load_database(args.db)
    if db.catalog_version != config.catalog_version:
        raise CatalogMismatch(
            f"database catalog {db.catalog_version!r} != configured {config.catalog_version!r}"
        )
    bundle = Path(args.out)
    if args.stage == "lpd":
        lpd = clf.train_lpd(db, config.lpd, link_profile=config.link_profile)
        clf.save_lpd_part(bundle, lpd, config.catalog_version)
        _emit({"stage": "lpd", "bundle": str(bundle), **_train_report(args, "lpd", lpd.model, lpd.selection)})
        return 0
    network = clf.train_cfd(db, config.cfd, seed=config.seed)
    clf.save_cfd_part(bundle, network, config.catalog_version)
    modules = {m.fault_name: _train_report(args, f"cfd/{m.fault_name}", m.model, m.selection) for m in network.modules}
    _emit({"stage": "cfd", "bundle": str(bundle), "modules": modules})
    return 0


def cmd_diagnose(args, config: CliConfig) -> int:
    lpd, cfd, _ = clf.load_bundle(args.bundle)
    verdict = clf.diagnose(lpd, cfd, read_pair(args.down, args.up), default_catalog())
    _emit(verdict.to_dict())
    _say(args, verdict.summary())
    if verdict.link is clf.LinkState.FAULTY:
        return 10
    return 20 if verdict.client_faults else 0


def _ground_truth(link_tag: str, client_tag: str, registry: dict[str, int]) -> GroundTruth:
    """The truth of one labels row, its tags read by the rule of `extract`;
    a client tag may join several of the registry's faults with '+'."""
    faults = frozenset() if client_tag == "HEALTHY" else frozenset(client_tag.split("+"))
    if any(read_tag(name, LabelKind.CLIENT, registry) == HEALTHY_CLIENT for name in faults):
        raise UnknownLabel(client_tag)
    return GroundTruth(read_tag(link_tag, LabelKind.LINK, {}) == LINK_FAULTY, faults)


def cmd_eval(args, config: CliConfig) -> int:
    lpd, cfd, _ = clf.load_bundle(args.bundle)
    labeled = [
        (read_pair(down, up), _ground_truth(link_tag, client_tag, cfd.fault_registry))
        for _, down, up, link_tag, client_tag in read_corpus(args.traces, args.labels)
    ]
    report = evaluate_verdicts(labeled, lpd, cfd, default_catalog())
    out = Path(args.out)
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot write {out}: {exc}") from exc
    write_artifact(out.with_suffix(".json"), report)
    write_text(out.with_suffix(".txt"), render_report(report))
    _say(args, render_report(report).rstrip("\n"))
    _emit(report)
    return 0


def cmd_synth(args, config: CliConfig) -> int:
    for option, value in (("--bytes", args.bytes), ("--per-class", args.per_class)):
        if value < 1:
            raise ConfigError(f"{option} must be at least 1, got {value}")
    if args.preset == "healthy":
        scenarios = preset_healthy(config.seed, args.bytes)
    elif args.preset == "paper-matrix":
        scenarios = preset_paper_matrix(args.per_class, config.seed, args.bytes)
    else:
        scenarios = scenario_from_json(args.scenario)
    emit_corpus(scenarios, args.out)
    _say(args, f"wrote {len(scenarios)} scenario pairs to {args.out}")
    _emit({"scenarios": len(scenarios), "outdir": str(args.out)})
    return 0


def _add_global_options(parser, config=None, seed=None, quiet=False) -> None:
    parser.add_argument("--config", default=config, help=f"JSON config path (or ${ENV_CONFIG})")
    parser.add_argument("--seed", type=int, default=seed, help="override config seed")
    parser.add_argument("--quiet", action="store_true", default=quiet, help="suppress stderr summaries")


def build_parser() -> argparse.ArgumentParser:
    # The options are accepted before and after the subcommand name.  The
    # subcommand's copies suppress their defaults, so they cannot overwrite
    # a value given before the name.
    common = argparse.ArgumentParser(add_help=False)
    _add_global_options(common, *[argparse.SUPPRESS] * 3)

    parser = argparse.ArgumentParser(prog="netdiag", description=__doc__)
    _add_global_options(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", parents=[common], help="trace pairs -> signature database")
    p.add_argument("--traces", required=True, help="directory of <id>.down.csv/<id>.up.csv")
    p.add_argument("--labels", default=None, help="labels.csv (default: <traces>/labels.csv)")
    p.add_argument("--kind", choices=["link", "client"], required=True)
    p.add_argument("--out", required=True, help="output database file")
    p.add_argument("--append", default=None, help="existing database to append to")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", parents=[common], help="signature database -> model bundle")
    p.add_argument("--db", required=True)
    p.add_argument("--stage", choices=["lpd", "cfd"], required=True)
    p.add_argument("--out", required=True, help="bundle directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("diagnose", parents=[common], help="trace pair -> verdict")
    p.add_argument("--bundle", required=True)
    p.add_argument("--down", required=True)
    p.add_argument("--up", required=True)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("eval", parents=[common], help="labeled trace corpus -> accuracy report")
    p.add_argument("--bundle", required=True)
    p.add_argument("--traces", required=True)
    p.add_argument("--labels", default=None)
    p.add_argument("--out", required=True, help="report path prefix (.json/.txt)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", parents=[common], help="emit synthetic trace corpora")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=["healthy", "paper-matrix"])
    source.add_argument("--scenario", help="scenario JSON file")
    p.add_argument("--out", required=True)
    p.add_argument("--per-class", type=int, default=11, dest="per_class")
    p.add_argument("--bytes", type=int, default=DEFAULT_TRANSFER_BYTES)
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, args.seed)
        return args.func(args, config)
    except CatalogMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NetdiagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if args.command == "train" else 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
