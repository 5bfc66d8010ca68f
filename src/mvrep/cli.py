"""Command line interface.

Subcommands: generate (full multiview pipeline for one room), hpr (single
viewpoint visibility filter), fuse (training list composition), critical
(embedding critical-set report), stats (manifest summary table).

A room input ending in ``.ply`` is read as PLY; any other is a text room
file or a room directory.  ``generate --with-labels`` needs a label column,
which only text rooms and ``Annotations/`` directories carry.

Exit codes: 0 success, 1 input/data error, 2 configuration error.  All
diagnostics go to stderr.  ``generate`` flags can also be given in a flat
``key=value`` config file (``--config`` or the MVREP_CONFIG environment
variable); explicit flags win over the file.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections import defaultdict
from dataclasses import fields, replace
from pathlib import Path

# critical_set stays importable from here: perfbench/tracing.py wraps the
# names this module looks up, this one among them.
from .critical import FeatureBank, critical_set, verify_subset_invariance  # noqa: F401
from .geometry import FovSpec
from .hpr import visible_points
from .io import (
    MANIFEST_SUFFIX,
    CloudFormatError,
    area_of,
    format_lines,
    parse_ply,
    parse_s3dis_room,
    read_manifest,
    replacing,
    write_json,
    write_partial_set,
)
from .pipeline import PipelineConfig, fuse_training_set, generate_multiview, write_outputs
from .viewpoints import GridConfig

__all__ = ["main"]


class ConfigError(ValueError):
    """Bad flag value, bad config file, or inconsistent configuration."""


def _float_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise ConfigError(f"expected a comma-separated number list, got {text!r}") from None
    if not values:
        raise ConfigError(f"expected a non-empty number list, got {text!r}")
    return values


def _bool(text: str) -> bool:
    low = str(text).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


# Everything a generate config file or flag may set: the config object the
# key lands in ("fov", "grid", "pipeline", or "cli" for CLI-only keys), the
# field it sets there, and its caster.  Each field of the config, its fov and
# its grid is a key named as the field less "_deg", whose annotation picks its
# caster (an annotation with none fails at import).  Keys use underscores,
# flag spellings dashes.  Defaults live in the config dataclasses alone.
_CASTERS = {"float": float, "int": int, "tuple[float, ...]": _float_list}
_GENERATE_SCHEMA = {
    f.name.removesuffix("_deg"): (target, f.name, _CASTERS[f.type])
    for target, cls in (("fov", FovSpec), ("grid", GridConfig), ("pipeline", PipelineConfig))
    for f in fields(cls)
    if f.name not in ("fov", "grid")
}
_GENERATE_SCHEMA["with_labels"] = ("cli", "with_labels", _bool)


def _load_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path}: {exc}") from None
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"config file {path}: line {lineno}: expected key=value")
        key, _, value = body.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _GENERATE_SCHEMA:
            raise ConfigError(f"config file {path}: line {lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def _cast(key: str, raw, source: str):
    try:
        return _GENERATE_SCHEMA[key][2](raw)
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def _merged_generate_values(args) -> dict:
    """The generate keys that were set, cast; the config file < explicit flags."""
    config_path = args.config or os.environ.get("MVREP_CONFIG")
    file_values = _load_config_file(config_path) if config_path else {}
    values = {key: _cast(key, raw, f"config key {key}") for key, raw in file_values.items()}
    for key in _GENERATE_SCHEMA:
        cli_value = getattr(args, key, None)
        if isinstance(cli_value, str):
            cli_value = _cast(key, cli_value, f"flag --{key.replace('_', '-')}")
        if cli_value is not None:
            values[key] = cli_value
    return values


def _pipeline_config(values: dict) -> PipelineConfig:
    """Build the config from the keys that were set; the rest keep the
    dataclass defaults."""
    kwargs: dict[str, dict] = defaultdict(dict)
    for key, value in values.items():
        target, name, _ = _GENERATE_SCHEMA[key]
        kwargs[target][name] = value
    try:
        return PipelineConfig(
            fov=FovSpec(**kwargs["fov"]), grid=GridConfig(**kwargs["grid"]), **kwargs["pipeline"]
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _load_cloud(path: str, with_labels: bool = False):
    parse = parse_ply if path.endswith(".ply") else parse_s3dis_room
    return parse(path, with_labels=with_labels)


def cmd_generate(args) -> int:
    values = _merged_generate_values(args)
    config = _pipeline_config(values)
    cloud = _load_cloud(args.input, with_labels=values.get("with_labels", False))
    kept, manifest = generate_multiview(cloud, config)
    manifest = replace(manifest, source_path=str(Path(args.input).resolve()))
    manifest_path = write_outputs(cloud, kept, manifest, args.out)
    print(f"{cloud.room_id}: kept {len(kept)} partial sets, manifest {manifest_path}")
    return 0


def cmd_hpr(args) -> int:
    try:
        viewpoint = _float_list(args.viewpoint)
    except ConfigError as exc:
        raise ConfigError(f"--viewpoint: {exc}") from None
    if len(viewpoint) != 3 or not all(map(math.isfinite, viewpoint)):
        raise ConfigError(f"--viewpoint expects three finite numbers, got {args.viewpoint!r}")
    values = {}
    if args.radius_factor is not None:
        values["radius_factor"] = _cast("radius_factor", args.radius_factor, "--radius-factor")
    radius_factor = _pipeline_config(values).radius_factor
    cloud = _load_cloud(args.input)
    visible = visible_points(cloud.positions, viewpoint, radius_factor)
    write_partial_set(format_lines(cloud, visible), args.out)
    print(f"{len(visible)} of {len(cloud)} points visible, wrote {args.out}")
    return 0


def _scan_manifests(root: str):
    root_path = Path(root)
    if not root_path.is_dir():
        raise CloudFormatError(f"{root}: not a directory")
    paths = sorted(root_path.rglob(f"*{MANIFEST_SUFFIX}"))
    if not paths:
        raise CloudFormatError(f"{root}: no *{MANIFEST_SUFFIX} files found")
    return [(path, read_manifest(path)) for path in paths]


def cmd_fuse(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    if args.partial_per_area < 0:
        raise ConfigError(f"--partial-per-area must be >= 0, got {args.partial_per_area}")
    originals: dict[str, list[str]] = defaultdict(list)
    partials: dict[str, list[str]] = defaultdict(list)
    for path, manifest in _scan_manifests(args.manifests):
        area = area_of(manifest.room_id)
        if manifest.source_path:
            originals[area].append(manifest.source_path)
        for entry in manifest.entries:
            partials[area].append(str(path.parent / entry.file_path))
    files = fuse_training_set(
        dict(originals), dict(partials), args.partial_per_area, not args.no_originals, args.seed
    )
    with replacing(args.out) as fh:
        fh.write(b"".join(os.fsencode(f) + b"\n" for f in files))
    print(f"wrote {len(files)} training files to {args.out}")
    return 0


def cmd_critical(args) -> int:
    if args.k < 1:
        raise ConfigError(f"--k must be >= 1, got {args.k}")
    if args.trials < 0:
        raise ConfigError(f"--trials must be >= 0, got {args.trials}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    cloud = _load_cloud(args.input)
    bank = FeatureBank.rbf(cloud.bounds, k=args.k, seed=args.seed)
    invariance = verify_subset_invariance(
        cloud.positions, bank, trials=args.trials, seed=args.seed
    )
    report = invariance.report
    doc = {
        "room_id": cloud.room_id,
        "seed": args.seed,
        "critical": report.to_dict(),
        "invariance": invariance.to_dict(),
    }
    write_json(doc, args.out)
    print(
        f"{cloud.room_id}: |critical| = {report.critical_size} of {report.cloud_size} "
        f"points (k={report.k}), invariance "
        f"{'ok' if invariance.passed else 'FAILED'}, wrote {args.out}"
    )
    return 0


def cmd_stats(args) -> int:
    rows: dict[str, list[int]] = {}
    for _, manifest in _scan_manifests(args.manifests):
        area = area_of(manifest.room_id)
        counts = rows.setdefault(area, [0, 0])
        counts[0] += 1
        counts[1] += len(manifest.entries)
    width = max(len(a) for a in list(rows) + ["Total"])
    print(f"{'Area'.ljust(width)}  {'Original':>9}  {'MV':>9}")
    total_orig = total_mv = 0
    for area in sorted(rows):
        orig, mv = rows[area]
        total_orig += orig
        total_mv += mv
        print(f"{area.ljust(width)}  {orig:>9}  {mv:>9}")
    print(f"{'Total'.ljust(width)}  {total_orig:>9}  {total_mv:>9}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvrep", description="Multiview partial point set generation."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="run the multiview pipeline on one room")
    gen.add_argument("--input", required=True, help="room file or directory")
    gen.add_argument("--out", required=True, help="output directory")
    for key in _GENERATE_SCHEMA:
        action = {"action": "store_true"} if key == "with_labels" else {}
        gen.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None, **action)
    gen.add_argument("--config", default=None, help="key=value config file")
    gen.set_defaults(func=cmd_generate)

    hpr = sub.add_parser("hpr", help="visibility filter from one viewpoint")
    hpr.add_argument("--input", required=True)
    hpr.add_argument("--viewpoint", required=True, help="x,y,z")
    hpr.add_argument("--radius-factor", default=None, help="as for generate")
    hpr.add_argument("--out", required=True)
    hpr.set_defaults(func=cmd_hpr)

    fuse = sub.add_parser("fuse", help="compose a training file list")
    fuse.add_argument("--manifests", required=True, help="directory of manifests")
    fuse.add_argument("--partial-per-area", type=int, required=True)
    fuse.add_argument("--no-originals", action="store_true")
    fuse.add_argument("--seed", type=int, default=0)
    fuse.add_argument("--out", required=True)
    fuse.set_defaults(func=cmd_fuse)

    crit = sub.add_parser("critical", help="critical set report for one cloud")
    crit.add_argument("--input", required=True)
    crit.add_argument("--k", type=int, default=64)
    crit.add_argument("--trials", type=int, default=50)
    crit.add_argument("--seed", type=int, default=0)
    crit.add_argument("--out", required=True)
    crit.set_defaults(func=cmd_critical)

    stats = sub.add_parser("stats", help="summarize manifests per area")
    stats.add_argument("--manifests", required=True)
    stats.set_defaults(func=cmd_stats)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage to stderr; fold into our exit codes.
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
