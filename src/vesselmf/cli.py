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
from .segment import PipelineParams, run_pipeline
from .sweep import (GridSpec, PreparedDataset, SweepError, length_search,
                    prepare_image, three_round_search)


class DatasetError(RuntimeError):
    pass


@dataclass
class ManifestEntry:
    id: str
    image_path: Path
    fov_mask_path: Path
    ground_truth_path: Path | None = None


# layout -> filename stems (image, FOV mask, ground truth) whose group is
# the id, and the image id that a ground-truth id belongs to
_LAYOUTS = {
    "drive": (r"(\d+_test)", r"(\d+_test)_mask", r"(\d+)_manual1", "{}_test"),
    "stare": (r"(im\d+)", r"(im\d+)[._-]mask", r"(im\d+)\.ah", "{}"),
}


def _index_by_stem(root: Path, stem: str) -> dict:
    pattern = re.compile(rf"^{stem}\.(?:ppm|pgm)$")
    found: dict[str, Path] = {}
    for path in sorted(root.rglob("*")):
        m = pattern.match(path.name.lower())
        if m:
            found.setdefault(m.group(1), path)
    return found


def discover_dataset(root, layout: str) -> list[ManifestEntry]:
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
    if layout not in _LAYOUTS:
        raise DatasetError(f"unknown layout {layout!r}")
    if not root.is_dir():
        raise DatasetError(f"dataset root {root} is not a directory")

    image_stem, mask_stem, truth_stem, truth_id = _LAYOUTS[layout]
    images = _index_by_stem(root, image_stem)
    masks = _index_by_stem(root, mask_stem)
    truths = {truth_id.format(k): v
              for k, v in _index_by_stem(root, truth_stem).items()}
    if not images:
        print(f"warning: no {layout} images found under {root}", file=sys.stderr)
        return []

    missing = sorted(set(images) - set(masks))
    if missing:
        raise DatasetError(f"missing FOV mask for: {', '.join(missing)}")
    return [
        ManifestEntry(id=name, image_path=images[name],
                      fov_mask_path=masks[name],
                      ground_truth_path=truths.get(name))
        for name in sorted(images)
    ]


def _discover_flat(root: Path) -> list[ManifestEntry]:
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
    return entries


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

# flag name (also its --config key) -> (type, default, help, choices).
# sigma 0.57 and L 8 are the paper's DRIVE point; the rest are the
# library's.
_PIPELINE_FLAGS = {
    "sigma": (float, 0.57, "Gaussian profile scale", None),
    "length": (float, 8, "vessel segment length L", None),
    "x-limit": (float, KernelParams.x_limit,
                "profile truncation half-width", None),
    "orientations": (int, KernelParams.n_orientations,
                     "number of kernel orientations", None),
    "min-size": (int, None, "small-component cutoff in pixels (default 30 "
                 "at 565x584, scaled by image area)", None),
    "otsu-scope": (str, PipelineParams.otsu_scope,
                   "histogram scope for the threshold",
                   ["full-image", "fov-only"]),
    "clahe-tiles": (int, ClaheParams.tiles, "tile grid size per side", None),
    "clahe-clip": (float, ClaheParams.clip_limit,
                   "clip limit as a tile-count fraction", None),
    "clahe-bins": (int, ClaheParams.bins, "histogram bins per tile", None),
}


def _add_pipeline_flags(parser):
    g = parser.add_argument_group("pipeline")
    for name, (kind, default, text, choices) in _PIPELINE_FLAGS.items():
        if default is not None:
            text = f"{text} (default {default})"
        g.add_argument(f"--{name}", type=kind, choices=choices, default=None,
                       help=text)
    parser.add_argument("--config", type=Path, default=None,
                        help="key = value file of the flags above")


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
        if key not in _PIPELINE_FLAGS:
            raise ValueError(f"{path}:{line_no}: unknown key {key!r}")
        kind, value = _PIPELINE_FLAGS[key][0], value.strip()
        try:
            values[key] = kind(value)
        except ValueError:
            raise ValueError(f"{path}:{line_no}: {key} must be "
                             f"{kind.__name__}, got {value!r}") from None
    return values


def resolve_pipeline_params(args) -> PipelineParams:
    """Merge flags over config-file values over the table's defaults; an
    unset ``--min-size`` stays None, the pipeline's area rule."""
    s = {name: flag[1] for name, flag in _PIPELINE_FLAGS.items()}
    s.update(_read_config(args.config) if args.config else {})
    for name in _PIPELINE_FLAGS:
        value = getattr(args, name.replace("-", "_"))
        if value is not None:
            s[name] = value
    return PipelineParams(
        kernel=KernelParams(sigma=s["sigma"], length=s["length"],
                            x_limit=s["x-limit"],
                            n_orientations=s["orientations"]),
        clahe=ClaheParams(tiles=s["clahe-tiles"], clip_limit=s["clahe-clip"],
                          bins=s["clahe-bins"]),
        min_component_size=s["min-size"],
        otsu_scope=s["otsu-scope"],
    )


def _num(value) -> str:
    """An integral value as that integer (8.0 -> 8), else str(value)."""
    return str(int(value)) if float(value).is_integer() else str(value)


def _params_meta(params: PipelineParams) -> str:
    k = params.kernel
    min_size = params.min_component_size
    return (f"sigma={_num(k.sigma)} length={_num(k.length)} "
            f"x_limit={_num(k.x_limit)} orientations={k.n_orientations} "
            f"min_size={'auto' if min_size is None else min_size} "
            f"otsu_scope={params.otsu_scope}")


def _fmt(value, digits=4) -> str:
    return "NA" if value is None else f"{value:.{digits}f}"


def _run_entries(args, params, output, with_gt=False, threads=1,
                 on_stage=None):
    """Run the pipeline at ``params`` on every dataset entry and ``output``
    on each result.

    The bank is built once, before any image is read; every entry runs at
    the same params.  ``output(entry_id, result, fov, gt)`` writes or scores
    one result; ``on_stage(entry_id)``, when given, returns that entry's
    ``run_pipeline`` stage callback.  Failures print as ``error: <id>:
    ...`` in manifest order, then one ``failed:`` line.  Returns the ``(id,
    output value)`` of each entry that succeeded, in manifest order, and
    the exit code; no ``output`` may return an exception.
    """
    bank = build_bank(params.kernel)
    manifest = discover_dataset(args.dataset_dir, args.layout)

    def worker(entry):
        try:
            image, fov, gt = _load_entry(entry, with_gt)
            result = run_pipeline(image, fov, params, bank,
                                  on_stage(entry.id) if on_stage else None)
            return entry.id, output(entry.id, result, fov, gt)
        except Exception as exc:
            return entry.id, exc

    if threads <= 1:
        # Serial on the calling thread: a one-worker pool raised the peak
        # RSS of single-threaded segment runs by about 15%.
        results = [worker(entry) for entry in manifest]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(worker, manifest))
    done, failures = [], []
    for entry_id, value in results:
        if isinstance(value, Exception):
            failures.append(entry_id)
            print(f"error: {entry_id}: {value}", file=sys.stderr)
        else:
            done.append((entry_id, value))
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
        args, resolve_pipeline_params(args), write_maps,
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
    if args.threads < 1:
        raise ValueError(f"--threads must be at least 1, got {args.threads}")
    params = resolve_pipeline_params(args)
    scope_fov = args.metrics_scope == "fov"

    def score(entry_id, result, fov, gt):
        report = evaluate_pair(result.vessel_map, gt, response=result.mfr_image,
                               scope=fov if scope_fov else None)
        return tuple(getattr(report, c) for c in _EVAL_COLUMNS[1:])

    report_path = Path(args.report)
    report_path.parent.mkdir(parents=True, exist_ok=True)
    rows, code = _run_entries(args, params, score, with_gt=True,
                              threads=args.threads)
    meta = _params_meta(params)
    if args.format == "json":
        _write_eval_json(report_path, rows, meta)
    else:
        _write_csv(report_path, f"# vesselmf eval {meta}", _EVAL_COLUMNS,
                   rows)
    return code


def _average(values):
    present = [v for v in values if v is not None]
    return float(np.mean(present)) if present else None


_EVAL_COLUMNS = ("image", "specificity", "sensitivity", "accuracy", "rmsd",
                 "mad_diff", "auc")


def _table(rows):
    """The (name, values) rows as (name, *values), then the Average of each
    value column; no Average row for no rows."""
    table = [(name, *values) for name, values in rows]
    if table:
        table.append(("Average",) + tuple(
            _average(c) for c in zip(*(values for _, values in rows))))
    return table


def _write_csv(path: Path, header: str, columns, rows):
    lines = [header, ",".join(columns)]
    lines += [",".join([name] + [_fmt(v) for v in values])
              for name, *values in _table(rows)]
    path.write_text("\n".join(lines) + "\n")


def _write_eval_json(path: Path, rows, meta: str):
    payload = {"meta": meta, "rows": [dict(zip(_EVAL_COLUMNS, row))
                                      for row in _table(rows)]}
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def cmd_roc(args) -> int:
    params = resolve_pipeline_params(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    def write_curve(entry_id, result, fov, gt):
        points = roc_curve(result.mfr_image, gt)
        curve_lines = ["fpr,tpr"] + [
            f"{fpr:.6f},{tpr:.6f}" for fpr, tpr in points
        ]
        (out_dir / f"{entry_id}_roc.csv").write_text(
            "\n".join(curve_lines) + "\n")
        return (auc(points),)

    done, code = _run_entries(args, params, write_curve, with_gt=True)
    _write_csv(out_dir / "roc_summary.csv",
               f"# vesselmf roc {_params_meta(params)}", ("image", "auc"), done)
    return code


def _grid(spec: str, flag: str, kernel: KernelParams, name: str,
          kind=float) -> GridSpec:
    """The grid ``flag`` gives as ``spec``: lo:hi:step, or lo:hi at step 1
    for an int ``kind``.  The kernel with ``name`` at the grid's lo and at
    its hi must be valid.  Every error names ``flag``."""
    form = "lo:hi" if kind is int else "lo:hi:step"
    try:
        values = [kind(part) for part in spec.split(":")]
    except ValueError:
        values = []
    try:
        if len(values) != form.count(":") + 1:
            raise ValueError(f"grid {spec!r} must be {form}")
        grid = GridSpec(*values, step=1) if kind is int else GridSpec(*values)
        for value in (grid.lo, grid.hi):
            replace(kernel, **{name: value})
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None
    return grid


def cmd_sweep(args) -> int:
    params = resolve_pipeline_params(args)
    kernel = params.kernel
    if args.l_grid:
        grid_l = _grid(args.l_grid, "--l-grid", kernel, "length", int)
    else:
        grid_x = _grid(args.round1_x, "--round1-x", kernel, "x_limit")
        grid_sigma = _grid(args.round1_sigma, "--round1-sigma", kernel,
                           "sigma")
    report_path = Path(args.report)
    report_path.parent.mkdir(parents=True, exist_ok=True)
    images = []
    for entry in discover_dataset(args.dataset_dir, args.layout):
        try:
            image, fov, gt = _load_entry(entry, with_gt=True)
            images.append(prepare_image(image, fov, gt, params))
        except Exception as exc:
            raise DatasetError(f"{entry.id}: {exc}") from exc
    prepared = PreparedDataset(params, images)
    if args.l_grid:
        result = length_search(prepared, grid_l.values())
    else:
        result = three_round_search(prepared, grid_x, grid_sigma)

    lines = ["x_limit,sigma,L,mean_accuracy"]
    lines += [
        f"{x:.6g},{s:.6g},{length:.6g},{_fmt(acc, 6)}"
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

    def command(name, func, text, out_flag, dataset=True):
        p = sub.add_parser(name, help=text)
        if dataset:
            p.add_argument("--dataset-dir", type=Path, required=True,
                           help="dataset root (or manifest file for --layout flat)")
            p.add_argument("--layout", choices=["drive", "stare", "flat"],
                           default="flat")
        _add_pipeline_flags(p)
        p.add_argument(out_flag, type=Path, required=True)
        p.set_defaults(func=func)
        return p

    p = command("segment", cmd_segment, "write per-image vessel maps", "--out")
    p.add_argument("--dump-mfr", action="store_true",
                   help="also write the normalized filter response")
    p.add_argument("--dump-stages", action="store_true",
                   help="write every intermediate stage image")

    p = command("eval", cmd_eval, "metrics report against ground truth",
                "--report")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--metrics-scope", choices=["full", "fov"], default="full")
    p.add_argument("--threads", type=int, default=1,
                   help="worker pool size (default 1)")

    command("roc", cmd_roc, "ROC curve points and AUC per image", "--out")

    p = command("sweep", cmd_sweep, "parameter grid search", "--report")
    p.add_argument("--round1-x", default="0.5:10:0.5",
                   help="round-1 x_limit grid as lo:hi:step")
    p.add_argument("--round1-sigma", default="0.5:10:0.5",
                   help="round-1 sigma grid as lo:hi:step")
    p.add_argument("--l-grid", default=None,
                   help="integer length scan lo:hi instead of the (x, sigma) search")

    p = command("kernel", cmd_kernel, "inspect the kernel bank", "--out",
                dataset=False)
    p.add_argument("action", choices=["dump"])

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DatasetError, SweepError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # An output path that cannot be created or written.
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
