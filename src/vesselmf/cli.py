"""Batch command-line surface: dataset discovery, per-image runs, reports.

Subcommands: ``segment`` (write vessel maps and optional stage dumps),
``eval`` (metrics report against ground truth), ``roc`` (curve points and
AUC), ``sweep`` (parameter search), ``kernel dump`` (inspect the filter
bank).  Reports are byte-identical for identical configurations: data rows
carry no timestamps, and the single metadata header line only restates the
run parameters.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .image import GrayImage, load_mask
from .kernels import KernelParams, build_bank
from .metrics import auc, evaluate_pair, roc_curve
from .pnm import read_pnm, write_pnm
from .preprocess import ClaheParams
from .segment import PipelineParams, default_min_component_size, run_pipeline
from .sweep import GridSpec, SweepError, length_search, three_round_search


class DatasetError(RuntimeError):
    pass


@dataclass
class ManifestEntry:
    id: str
    image_path: Path
    fov_mask_path: Path
    ground_truth_path: Path | None = None


@dataclass
class DatasetManifest:
    entries: list

    def __len__(self):
        return len(self.entries)


_IMAGE_SUFFIXES = (".ppm", ".pgm")


def _index_by_pattern(root: Path, pattern: re.Pattern) -> dict:
    found: dict[str, Path] = {}
    for path in sorted(root.rglob("*")):
        if path.suffix.lower() not in _IMAGE_SUFFIXES:
            continue
        m = pattern.match(path.name.lower())
        if m:
            found.setdefault(m.group(1), path)
    return found


def discover_dataset(root, layout: str) -> DatasetManifest:
    """Pair images with FOV masks and ground truth under a known layout.

    drive  NN_test.ppm / NN_test_mask.* / NN_manual1.*
    stare  imNNNN.ppm / imNNNN.mask.* (or imNNNN_mask.*) / imNNNN.ah.*
    flat   a manifest file of image,fov[,gt] paths (root may be the file
           itself or a directory containing manifest.csv)

    Missing FOV masks are an error naming the affected ids; missing ground
    truth just leaves the entry without one.
    """
    root = Path(root)
    if layout == "flat":
        return _discover_flat(root)
    if layout not in ("drive", "stare"):
        raise DatasetError(f"unknown layout {layout!r}")
    if not root.is_dir():
        raise DatasetError(f"dataset root {root} is not a directory")

    if layout == "drive":
        images = _index_by_pattern(root, re.compile(r"^(\d+_test)\.(?:ppm|pgm)$"))
        masks = _index_by_pattern(root, re.compile(r"^(\d+_test)_mask\.(?:ppm|pgm)$"))
        truths = _index_by_pattern(root, re.compile(r"^(\d+)_manual1\.(?:ppm|pgm)$"))
        truths = {f"{k}_test": v for k, v in truths.items()}
    else:
        images = _index_by_pattern(
            root, re.compile(r"^(im\d+)\.(?:ppm|pgm)$"))
        masks = _index_by_pattern(
            root, re.compile(r"^(im\d+)[._-]mask\.(?:ppm|pgm)$"))
        truths = _index_by_pattern(
            root, re.compile(r"^(im\d+)\.ah\.(?:ppm|pgm)$"))

    if not images:
        print(f"warning: no {layout} images found under {root}", file=sys.stderr)
        return DatasetManifest(entries=[])

    missing = sorted(set(images) - set(masks))
    if missing:
        raise DatasetError(f"missing FOV mask for: {', '.join(missing)}")

    entries = [
        ManifestEntry(
            id=name,
            image_path=images[name],
            fov_mask_path=masks[name],
            ground_truth_path=truths.get(name),
        )
        for name in sorted(images)
    ]
    return DatasetManifest(entries=entries)


def _discover_flat(root: Path) -> DatasetManifest:
    manifest_path = root if root.is_file() else root / "manifest.csv"
    if not manifest_path.is_file():
        raise DatasetError(f"flat layout manifest not found at {manifest_path}")
    base = manifest_path.parent
    entries = []
    seen = set()
    for line_no, raw in enumerate(manifest_path.read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) < 2:
            raise DatasetError(
                f"{manifest_path}:{line_no}: expected image,fov[,gt]"
            )
        image = base / parts[0]
        fov = base / parts[1]
        gt = base / parts[2] if len(parts) > 2 and parts[2] else None
        name = image.stem
        if name in seen:
            raise DatasetError(f"duplicate dataset id {name!r}")
        seen.add(name)
        entries.append(ManifestEntry(
            id=name, image_path=image, fov_mask_path=fov,
            ground_truth_path=gt,
        ))
    if not entries:
        print(f"warning: empty manifest {manifest_path}", file=sys.stderr)
    missing = sorted(
        e.id for e in entries
        if not e.image_path.is_file() or not e.fov_mask_path.is_file()
    )
    if missing:
        raise DatasetError(f"missing files for: {', '.join(missing)}")
    return DatasetManifest(entries=entries)


def _load_entry(entry: ManifestEntry, with_gt: bool):
    """(image, fov, gt) of one entry; errors leave naming the id to the caller."""
    image = read_pnm(entry.image_path.read_bytes())
    if isinstance(image, GrayImage):
        raise DatasetError("expected a color image")
    fov = load_mask(read_pnm(entry.fov_mask_path.read_bytes()))
    gt = None
    if with_gt:
        if entry.ground_truth_path is None:
            raise DatasetError("no ground truth available")
        gt = load_mask(read_pnm(entry.ground_truth_path.read_bytes()))
    return image, fov, gt


# ---------------------------------------------------------------------------
# argument plumbing

def _add_pipeline_flags(parser):
    g = parser.add_argument_group("pipeline")
    g.add_argument("--sigma", type=float, default=None,
                   help="Gaussian profile scale (default 0.57)")
    g.add_argument("--length", type=float, default=None,
                   help="vessel segment length L (default 8)")
    g.add_argument("--x-limit", type=float, default=None,
                   help="profile truncation half-width (default 6.99)")
    g.add_argument("--orientations", type=int, default=None,
                   help="number of kernel orientations (default 12)")
    g.add_argument("--min-size", type=int, default=None,
                   help="small-component cutoff in pixels "
                        "(default 30 scaled by image area)")
    g.add_argument("--otsu-scope", choices=["full-image", "fov-only"],
                   default=None, help="histogram scope for the threshold")
    g.add_argument("--gray", choices=["pca", "luma"], default=None,
                   help="gray conversion (luma is an unevaluated fallback)")
    g.add_argument("--clahe-tiles", type=int, default=None,
                   help="tile grid size per side (default 8)")
    g.add_argument("--clahe-clip", type=float, default=None,
                   help="clip limit as a tile-count fraction (default 0.01)")
    g.add_argument("--clahe-bins", type=int, default=None,
                   help="histogram bins per tile (default 256)")
    parser.add_argument("--config", type=Path, default=None,
                        help="key = value file of the flags above")


def _add_dataset_flags(parser):
    parser.add_argument("--dataset-dir", type=Path, required=True,
                        help="dataset root (or manifest file for --layout flat)")
    parser.add_argument("--layout", choices=["drive", "stare", "flat"],
                        default="flat")


_CONFIG_KEYS = {
    "sigma": float, "length": float, "x-limit": float, "orientations": int,
    "min-size": int, "otsu-scope": str, "gray": str, "clahe-tiles": int,
    "clahe-clip": float, "clahe-bins": int,
}


def _read_config(path: Path) -> dict:
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValueError(f"{path}: cannot read config: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ValueError(f"{path}: cannot read config: not UTF-8 text") from None
    values = {}
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{line_no}: unknown key {key!r}")
        kind, value = _CONFIG_KEYS[key], value.strip()
        try:
            values[key] = kind(value)
        except ValueError:
            raise ValueError(f"{path}:{line_no}: {key} must be "
                             f"{kind.__name__}, got {value!r}") from None
    return values


def _setting(args, config, key, default):
    arg = getattr(args, key.replace("-", "_"))
    if arg is not None:
        return arg
    if key in config:
        return config[key]
    return default


def resolve_pipeline_params(args, config=None) -> PipelineParams:
    """Merge flags over config-file values over defaults.

    ``config`` is the parsed ``--config`` file, read here when not given.
    Without a ``--min-size``, the cutoff is 30 pixels.
    """
    if config is None:
        config = _read_config(args.config) if args.config else {}
    tiles = _setting(args, config, "clahe-tiles", 8)
    return PipelineParams(
        kernel=KernelParams(
            sigma=_setting(args, config, "sigma", 0.57),
            length=_setting(args, config, "length", 8),
            x_limit=_setting(args, config, "x-limit", 6.99),
            n_orientations=_setting(args, config, "orientations", 12),
        ),
        clahe=ClaheParams(
            tiles_x=tiles,
            tiles_y=tiles,
            clip_limit=_setting(args, config, "clahe-clip", 0.01),
            bins=_setting(args, config, "clahe-bins", 256),
        ),
        min_component_size=_setting(args, config, "min-size", 30),
        otsu_scope=_setting(args, config, "otsu-scope", "full-image"),
        gray_mode=_setting(args, config, "gray", "pca"),
    )


def _resolve_sized(args):
    """The resolved params, and ``sized(image)``: those params with the
    cutoff scaled by the image's area when no ``--min-size`` is set."""
    config = _read_config(args.config) if args.config else {}
    params = resolve_pipeline_params(args, config=config)
    if _setting(args, config, "min-size", None) is not None:
        return params, lambda image: params
    return params, lambda image: replace(
        params, min_component_size=default_min_component_size(
            image.width, image.height))


def _params_meta(params: PipelineParams) -> str:
    k = params.kernel
    return (f"sigma={k.sigma} length={k.length} x_limit={k.x_limit} "
            f"orientations={k.n_orientations} min_size={params.min_component_size} "
            f"otsu_scope={params.otsu_scope} gray={params.gray_mode}")


class ThreadCountError(ValueError):
    """A worker-pool size below 1, or a VESSELMF_THREADS that is not an integer."""


def _thread_count(args) -> int:
    """Pool size from ``--threads``, else VESSELMF_THREADS, else 1."""
    if args.threads is not None:
        count, source = args.threads, "--threads"
    else:
        env = os.environ.get("VESSELMF_THREADS", "").strip()
        if not env:
            return 1
        source = "VESSELMF_THREADS"
        try:
            count = int(env)
        except ValueError:
            raise ThreadCountError(
                f"{source} must be an integer, got {env!r}") from None
    if count < 1:
        raise ThreadCountError(f"{source} must be at least 1, got {count}")
    return count


def _fmt(value, digits=4) -> str:
    return "NA" if value is None else f"{value:.{digits}f}"


def _process_entries(manifest, worker, threads):
    """Run ``worker`` per entry, preserving manifest order in the results."""
    if threads <= 1:
        return [worker(e) for e in manifest.entries]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, manifest.entries))


def _run_entries(args, output, with_gt=False, threads=1, on_stage=None):
    """Run the pipeline on every dataset entry and ``output`` on each result.

    The params, ``--config`` included, are resolved and checked and the bank
    is built once, before any image is read; per entry only the default
    ``--min-size`` follows the image area.  ``output(entry_id, result, fov,
    gt)`` writes or scores one result; ``on_stage(entry_id)``, when given,
    returns that entry's ``run_pipeline`` stage callback.  Failures print as
    ``error: <id>: ...`` in manifest order, then one ``failed:`` line.
    Returns the ``(id, output value, params)`` of each entry that succeeded,
    in manifest order, and the exit code.
    """
    params, sized_for = _resolve_sized(args)
    bank = build_bank(params.kernel)
    manifest = discover_dataset(args.dataset_dir, args.layout)

    def worker(entry):
        try:
            image, fov, gt = _load_entry(entry, with_gt)
            sized = sized_for(image)
            result = run_pipeline(image, fov, sized, bank,
                                  on_stage(entry.id) if on_stage else None)
            return entry.id, output(entry.id, result, fov, gt), sized
        except Exception as exc:
            return entry.id, exc, None

    done, failures = [], []
    for entry_id, value, sized in _process_entries(manifest, worker, threads):
        if sized is None:
            failures.append(entry_id)
            print(f"error: {entry_id}: {value}", file=sys.stderr)
        else:
            done.append((entry_id, value, sized))
    if failures:
        print(f"failed: {', '.join(failures)}", file=sys.stderr)
    return done, 1 if failures else 0


# ---------------------------------------------------------------------------
# subcommands

def cmd_segment(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    def write_maps(entry_id, result, fov, gt):
        (out_dir / f"{entry_id}_vessels.pgm").write_bytes(
            write_pnm(result.vessel_map))
        if args.dump_mfr:
            (out_dir / f"{entry_id}_mfr.pgm").write_bytes(
                write_pnm(result.mfr_image))

    _, code = _run_entries(
        args, write_maps,
        on_stage=_stage_writer(out_dir) if args.dump_stages else None)
    return code


def _stage_writer(out_dir: Path):
    """Per-entry ``run_pipeline`` callback: each intermediate image goes to
    ``<id>_stages/<name>.pgm``."""
    def for_entry(entry_id):
        stage_dir = out_dir / f"{entry_id}_stages"
        stage_dir.mkdir(parents=True, exist_ok=True)
        return lambda name, image: (stage_dir / f"{name}.pgm").write_bytes(
            write_pnm(image))
    return for_entry


def cmd_eval(args) -> int:
    threads = _thread_count(args)
    scope_fov = args.metrics_scope == "fov"

    def score(entry_id, result, fov, gt):
        return evaluate_pair(result.vessel_map, gt, response=result.mfr_image,
                             scope=fov if scope_fov else None)

    done, code = _run_entries(args, score, with_gt=True, threads=threads)
    rows = [(entry_id, report) for entry_id, report, _ in done]
    meta = _params_meta(done[-1][2]) if done else ""
    report_path = Path(args.report)
    report_path.parent.mkdir(parents=True, exist_ok=True)
    if args.format == "json":
        _write_eval_json(report_path, rows, meta)
    else:
        _write_eval_csv(report_path, rows, meta)
    return code


def _average(values):
    present = [v for v in values if v is not None]
    return float(np.mean(present)) if present else None


def _eval_table(rows):
    table = [
        (name, r.specificity, r.sensitivity, r.accuracy, r.rmsd,
         r.mad_diff, r.auc)
        for name, r in rows
    ]
    if table:
        cols = list(zip(*[row[1:] for row in table]))
        table.append(("Average",) + tuple(_average(c) for c in cols))
    return table


def _write_eval_csv(path: Path, rows, meta: str):
    lines = [f"# vesselmf eval {meta}".rstrip(),
             "image,specificity,sensitivity,accuracy,rmsd,mad_diff,auc"]
    for name, *vals in _eval_table(rows):
        lines.append(",".join([name] + [_fmt(v) for v in vals]))
    path.write_text("\n".join(lines) + "\n")


def _write_eval_json(path: Path, rows, meta: str):
    table = _eval_table(rows)
    payload = {
        "meta": meta,
        "rows": [
            {
                "image": name,
                "specificity": spec, "sensitivity": sens, "accuracy": acc,
                "rmsd": rmsd_, "mad_diff": mad_diff, "auc": auc_,
            }
            for name, spec, sens, acc, rmsd_, mad_diff, auc_ in table
        ],
    }
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def cmd_roc(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    def write_curve(entry_id, result, fov, gt):
        curve = roc_curve(result.mfr_image, gt)
        curve_lines = ["fpr,tpr"] + [
            f"{fpr:.6f},{tpr:.6f}" for fpr, tpr in curve.points
        ]
        (out_dir / f"{entry_id}_roc.csv").write_text(
            "\n".join(curve_lines) + "\n")
        return auc(curve)

    done, code = _run_entries(args, write_curve, with_gt=True)
    meta = _params_meta(done[-1][2]) if done else ""
    lines = [f"# vesselmf roc {meta}".rstrip(), "image,auc"]
    lines += [f"{name},{_fmt(a)}" for name, a, _ in done]
    if done:
        lines.append(f"Average,{_fmt(_average([a for _, a, _ in done]))}")
    (out_dir / "roc_summary.csv").write_text("\n".join(lines) + "\n")
    return code


def _parse_grid(spec: str, form: str = "lo:hi:step", kind=float) -> list:
    """The ``kind`` values of a colon-separated grid ``spec`` of ``form``."""
    parts = spec.split(":")
    try:
        if len(parts) != form.count(":") + 1:
            raise ValueError
        values = [kind(part) for part in parts]
    except ValueError:
        raise ValueError(f"grid {spec!r} must be {form}") from None
    return values


def cmd_sweep(args) -> int:
    _, sized_for = _resolve_sized(args)
    if args.l_grid:
        lengths = GridSpec(*_parse_grid(args.l_grid, "lo:hi", int),
                           step=1).values()
    else:
        grid_x = GridSpec(*_parse_grid(args.round1_x))
        grid_sigma = GridSpec(*_parse_grid(args.round1_sigma))
    manifest = discover_dataset(args.dataset_dir, args.layout)
    if len(manifest) == 0:
        print("error: sweep needs a non-empty dataset", file=sys.stderr)
        return 2
    dataset = []
    for entry in manifest.entries:
        try:
            dataset.append(_load_entry(entry, with_gt=True))
        except Exception as exc:
            raise DatasetError(f"{entry.id}: {exc}") from exc
    base = sized_for(dataset[0][0])
    if args.l_grid:
        result = length_search(dataset, lengths, base)
    else:
        result = three_round_search(dataset, grid_x, grid_sigma,
                                    length=base.kernel.length, base=base)

    report_path = Path(args.report)
    report_path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["x_limit,sigma,L,mean_accuracy"]
    lines += [
        f"{x:.6g},{s:.6g},{length:.6g},{acc:.6f}"
        for x, s, length, acc in result.evaluations
    ]
    report_path.write_text("\n".join(lines) + "\n")
    bx, bs, bl, bacc = result.best
    print(f"best: x_limit={bx:.6g} sigma={bs:.6g} L={bl:.6g} "
          f"mean_accuracy={bacc:.6f}")
    return 0


def cmd_kernel(args) -> int:
    params = resolve_pipeline_params(args).kernel
    bank = build_bank(params)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, kernel in enumerate(bank.kernels):
        text = "\n".join(
            " ".join(f"{w: .10e}" for w in row) for row in kernel.weights
        )
        (out_dir / f"kernel_{i:02d}.txt").write_text(
            f"# theta = {kernel.theta} degrees\n{text}\n")
        lo, hi = kernel.weights.min(), kernel.weights.max()
        heat = (kernel.weights - lo) / (hi - lo) if hi > lo \
            else np.zeros_like(kernel.weights)
        (out_dir / f"kernel_{i:02d}.pgm").write_bytes(
            write_pnm(GrayImage.from_array(heat)))
    print(f"wrote {len(bank.kernels)} kernels to {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vesselmf",
        description="Matched-filter retinal vessel segmentation. Images "
                    "must be PNM (P2/P3/P5/P6); convert TIFF/GIF datasets "
                    "first, e.g. with ImageMagick.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("segment", help="write per-image vessel maps")
    _add_dataset_flags(p)
    _add_pipeline_flags(p)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--dump-mfr", action="store_true",
                   help="also write the normalized filter response")
    p.add_argument("--dump-stages", action="store_true",
                   help="write every intermediate stage image")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("eval", help="metrics report against ground truth")
    _add_dataset_flags(p)
    _add_pipeline_flags(p)
    p.add_argument("--report", type=Path, required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--metrics-scope", choices=["full", "fov"], default="full")
    p.add_argument("--threads", type=int, default=None,
                   help="worker pool size (or VESSELMF_THREADS)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("roc", help="ROC curve points and AUC per image")
    _add_dataset_flags(p)
    _add_pipeline_flags(p)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_roc)

    p = sub.add_parser("sweep", help="parameter grid search")
    _add_dataset_flags(p)
    _add_pipeline_flags(p)
    p.add_argument("--report", type=Path, required=True)
    p.add_argument("--round1-x", default="0.5:10:0.5",
                   help="round-1 x_limit grid as lo:hi:step")
    p.add_argument("--round1-sigma", default="0.5:10:0.5",
                   help="round-1 sigma grid as lo:hi:step")
    p.add_argument("--l-grid", default=None,
                   help="integer length scan lo:hi instead of the (x, sigma) search")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("kernel", help="inspect the kernel bank")
    p.add_argument("action", choices=["dump"])
    _add_pipeline_flags(p)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_kernel)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DatasetError, SweepError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
