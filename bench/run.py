#!/usr/bin/env python3
"""Benchmark of the vesselmf batch CLI on seeded phantoms.

Run from the repository root, one workload per process:

    python3 bench/run.py --workload drive_eval --seed 1 --seconds 25 --trace 0

Workloads (``WORKLOADS`` below; BENCHMARK.json gives the reason for each):

  drive_eval           ``vesselmf eval --threads 2 --metrics-scope fov
                       --format json`` at sigma 0.57, L 8, 12 orientations on
                       a flat manifest of two 565x584 P6 phantoms with P5 FOV
                       masks and P5 ground truth.
  stare_segment_ascii  ``vesselmf segment --dump-mfr --dump-stages`` at sigma
                       1.57, L 9 on 700x605 ASCII P3 phantoms with P2 FOV
                       masks; one image per invocation, two images in turn.
  phantom_sweep        ``vesselmf sweep`` (``three_round_search``) on the
                       acceptance criterion-9 set: four 64x64 phantoms,
                       fov_radius 26, 6 orientations, L 7, min size 8,
                       round-1 x 5:9:2 and sigma 0.5:3:0.5.

Load model: closed loop, one client.  Each invocation calls
``vesselmf.cli.main`` in this process and starts when the previous one has
returned.  drive_eval uses the CLI's own worker pool at two threads; every
other invocation is single-threaded, and the BLAS/OpenMP pools are pinned to
one thread, so the process never runs more threads than the eval pool.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` is the separate
traced run that gives the per-layer metrics.  It cycles through an untraced
invocation at two threads, one at one thread (for ``cli.t2_speedup``) and
one with every layer's functions wrapped in spans (``spans.py``); the
untraced ones also give the tracing overhead.  A single-threaded
tracemalloc probe of the response follows.

Every invocation's outputs are checked.  A nonzero exit, an ``NA`` row, a
missing output, a failed check or an exception fails the invocation; the
command then prints its result anyway and exits 1.  The last stdout line is
one JSON object with the keys correct, attempted, failed and metrics; the
line before it records the machine, the seed, the output digests and the
percentile behind ``invocation_s_tail``.
"""

import os
import sys
import time
from pathlib import Path

# The pools must be pinned before numpy is first imported.
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _name in BLAS_ENV:
    os.environ[_name] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "vesselmf" / "__init__.py").is_file():
    sys.exit(f"error: no vesselmf sources under {SRC}; run from a checkout")
sys.path.insert(0, str(SRC))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import vesselmf  # noqa: E402
from vesselmf import (  # noqa: E402
    BinaryImage, KernelParams, PipelineParams, RgbImage, build_bank,
    clahe, evaluate_pair, generate_phantom, load_mask, max_response,
    normalize_response, pca_grayscale, read_pnm, run_pipeline, write_pnm,
)
from vesselmf import cli  # noqa: E402
from vesselmf.sweep import GridSpec, _window  # noqa: E402

from spans import Tracer, covered, self_time, write_jsonl  # noqa: E402

if Path(vesselmf.__file__).resolve().parent != (SRC / "vesselmf").resolve():
    sys.exit(f"error: imported vesselmf from {vesselmf.__file__}, not {SRC}")

SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s", "images_per_s": "1/s", "combos_per_s": "1/s",
    "invocation_s_tail": "s", "accuracy": "frac", "auc": "frac",
    "peak_rss_mb": "MB", "ok_frac": "frac",
}

PER_LAYER_UNITS = {
    "response.max_response_ms": "ms", "response.share": "frac",
    "response.effective_gmac_per_s": "GMAC/s", "response.peak_alloc_mb": "MB",
    "pnm.read_ms": "ms", "pnm.read_mb_per_s": "MB/s",
    "pnm.write_share": "frac", "pnm.read_calls": "count",
    "pnm.write_calls": "count",
    "preprocess.pca_grayscale_ms": "ms", "preprocess.clahe_ms": "ms",
    "preprocess.calls_per_image": "count",
    "kernels.build_bank_calls": "count", "kernels.build_bank_ms": "ms",
    "sweep.evaluate_combo_share": "frac", "sweep.evaluate_combo_calls": "count",
    "sweep.distinct_combo_frac": "frac",
    "segment.run_pipeline_calls": "count", "segment.threshold_ms": "ms",
    "segment.binarize_ms": "ms", "segment.length_filter_ms": "ms",
    "segment.self_ms": "ms",
    "image.quantize_levels_calls": "count",
    "metrics.evaluate_pair_share": "frac", "metrics.roc_curve_share": "frac",
    "cli.load_entry_ms": "ms", "cli.self_ms": "ms",
    "cli.worker_busy_frac": "frac", "cli.t2_speedup": "x",
    "trace.overhead_frac": "frac",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cropped_phantom(size, seed, width, height, **kwargs):
    """(rgb, fov, gt) of a square phantom cropped to width x height."""
    p = generate_phantom(size=size, seed=seed, **kwargs)
    return (RgbImage.from_array(p.rgb.data[:height, :width]),
            BinaryImage.from_array(p.fov.data[:height, :width]),
            BinaryImage.from_array(p.vessels.data[:height, :width]))


def write_triple(work: Path, stem: str, triple, fmt="binary", with_gt=True):
    """Write image, FOV (and GT) files; return the flat-manifest line."""
    rgb, fov, gt = triple
    names = [f"{stem}.ppm", f"{stem}_fov.pgm"] + ([f"{stem}_gt.pgm"] if with_gt else [])
    for name, image in zip(names, (rgb, fov, gt)):
        (work / name).write_bytes(write_pnm(image, fmt))
    return ",".join(names)


def discover(manifest: Path, expected: int):
    found = len(cli.discover_dataset(manifest, "flat"))
    if found != expected:
        raise RuntimeError(f"{manifest}: discovered {found} entries, expected {expected}")


def truncate_first_image(manifest: Path) -> Path:
    """Copy of ``manifest`` whose first image is cut to half its bytes."""
    lines = manifest.read_text().splitlines()
    first = lines[0].split(",")
    data = (manifest.parent / first[0]).read_bytes()
    cut = f"truncated_{first[0]}"
    (manifest.parent / cut).write_bytes(data[: len(data) // 2])
    copy = manifest.with_name(f"truncated_{manifest.name}")
    copy.write_text("\n".join([",".join([cut] + first[1:])] + lines[1:]) + "\n")
    return copy


@dataclass
class Outcome:
    """What one invocation produced, as seen by the output checks."""

    images: int = 0          # images completed (image-evaluations for the sweep)
    combos: int = 0          # parameter combinations evaluated
    digest: str = ""         # SHA-256 of the checked output
    errors: list = field(default_factory=list)


class Workload:
    """Inputs, command line and output checks of one workload."""

    name = ""
    threads = 1              # the CLI worker pool this workload's command uses
    dataset_size = 1         # dataset images one invocation processes
    # Span whose calls are the requests behind invocation_s_tail; None means
    # the invocation itself is the request.
    request_span = None

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke
        self.calls = 0
        self.digests: dict[str, str] = {}
        self.scores: dict[str, tuple] = {}
        self.extra: dict = {}

    # Each workload also defines setup(work) to write its inputs,
    # next_call(out, threads) -> (argv, key naming the input), check(key, rc,
    # stdout, out) -> Outcome, and probe() -> (rgb, KernelParams).

    def truncate(self):
        self.manifest = truncate_first_image(self.manifest)

    def record(self, key, outcome: Outcome, score):
        """Keep the first passing digest per input; flag any later change."""
        if outcome.errors:
            return
        first = self.digests.setdefault(key, outcome.digest)
        if first != outcome.digest:
            outcome.errors.append(f"{key}: output digest changed between invocations")
        elif key not in self.scores:
            self.scores[key] = score()


class DriveEval(Workload):
    name = "drive_eval"
    threads = 2
    dataset_size = 2

    def setup(self, work: Path):
        size, width, height = (96, 93, 96) if self.smoke else (584, 565, 584)
        lines = []
        for i in range(self.dataset_size):
            triple = cropped_phantom(size, self.seed * 100 + i, width, height)
            lines.append(write_triple(work, f"d{i}", triple))
            if i == 0:
                self.probe_rgb = triple[0]
        self.ids = [f"d{i}" for i in range(self.dataset_size)]
        self.manifest = work / "manifest.csv"
        self.manifest.write_text("\n".join(lines) + "\n")
        discover(self.manifest, self.dataset_size)

    def probe(self):
        return self.probe_rgb, KernelParams(sigma=0.57, length=8, n_orientations=12)

    def next_call(self, out, threads):
        return ["eval", "--dataset-dir", str(self.manifest), "--layout", "flat",
                "--report", str(out / "report.json"), "--format", "json",
                "--metrics-scope", "fov", "--threads", str(threads),
                "--sigma", "0.57", "--length", "8", "--orientations", "12"], "report"

    def check(self, key, rc, stdout, out):
        outcome = Outcome(images=self.dataset_size, combos=1)
        if rc != 0:
            outcome.errors.append(f"eval exited {rc}")
        data = (out / "report.json").read_bytes()
        rows = json.loads(data)["rows"]
        names = [row["image"] for row in rows]
        if names != self.ids + ["Average"]:
            outcome.errors.append(f"report rows {names}, expected {self.ids} + Average")
        na = [row["image"] for row in rows if None in row.values()]
        if na:
            outcome.errors.append(f"NA values in rows {na}")
        outcome.digest = sha256(data)
        average = rows[-1]
        self.record(key, outcome, lambda: (average["accuracy"], average["auc"]))
        return outcome


class StareSegmentAscii(Workload):
    name = "stare_segment_ascii"
    pool = 2                 # distinct images, segmented in turn

    def setup(self, work: Path):
        size, width, height = (96, 96, 84) if self.smoke else (700, 700, 605)
        self.inputs = {}
        for i in range(self.pool):
            triple = cropped_phantom(size, self.seed * 100 + 50 + i, width, height)
            line = write_triple(work, f"s{i}", triple, fmt="ascii", with_gt=False)
            manifest = work / f"s{i}.csv"
            manifest.write_text(line + "\n")
            discover(manifest, 1)
            self.inputs[f"s{i}"] = (manifest, triple)

    def truncate(self):
        manifest, triple = self.inputs["s0"]
        self.inputs["s0"] = (truncate_first_image(manifest), triple)

    def probe(self):
        return self.inputs["s0"][1][0], KernelParams(sigma=1.57, length=9)

    def next_call(self, out, threads):
        key = f"s{self.calls % self.pool}"
        self.calls += 1
        manifest = self.inputs[key][0]
        return ["segment", "--dataset-dir", str(manifest), "--layout", "flat",
                "--out", str(out), "--dump-mfr", "--dump-stages",
                "--sigma", "1.57", "--length", "9"], key

    def check(self, key, rc, stdout, out):
        outcome = Outcome(images=1, combos=1)
        if rc != 0:
            outcome.errors.append(f"segment exited {rc}")
        _, fov, gt = self.inputs[key][1]
        stages = list((out / f"{key}_stages").glob("*.pgm"))
        if len(stages) != 7:
            outcome.errors.append(f"{key}: {len(stages)} stage dumps, expected 7")
        data = (out / f"{key}_vessels.pgm").read_bytes()
        mfr = read_pnm((out / f"{key}_mfr.pgm").read_bytes())
        vessels = load_mask(read_pnm(data))
        if vessels.data.shape != fov.data.shape:
            outcome.errors.append(f"{key}: vessel map shape {vessels.data.shape}")
        elif (vessels.data & ~fov.data).any():
            outcome.errors.append(f"{key}: vessel map not inside the FOV")
        outcome.digest = sha256(data)

        def score():
            report = evaluate_pair(vessels, gt, response=mfr, scope=fov)
            return report.accuracy, report.auc

        self.record(key, outcome, score)
        return outcome


_BEST = re.compile(r"best: x_limit=(\S+) sigma=(\S+) L=(\S+) mean_accuracy=(\S+)")


def sweep_argmax(entries):
    """Highest accuracy; ties to the smallest (x, sigma), as the search does."""
    top = max(e[3] for e in entries)
    return min((e for e in entries if e[3] == top), key=lambda e: (e[0], e[1]))


class PhantomSweep(Workload):
    """The criterion-9 phantoms (noise seeds 1-4), in an order drawn from the
    workload seed.  The search path depends on the noise draw: other draws
    give 285 to 525 log entries at 21 to 31 ms per combination, which would
    make throughput a property of the seed.  Reordering keeps the log
    identical, since the mean of four k/4096 accuracies is exact in any
    order.  One combination is the request behind invocation_s_tail."""

    name = "phantom_sweep"
    dataset_size = 4
    request_span = "sweep.evaluate_combo"
    round1_x = GridSpec(5.0, 9.0, 2.0)
    round1_sigma = GridSpec(0.5, 3.0, 0.5)

    def setup(self, work: Path):
        size, radius = (32, 12) if self.smoke else (64, 26)
        if self.smoke:      # six combinations: one x, two then three sigmas
            self.round1_x = GridSpec(5.0, 5.0, 1.0)
            self.round1_sigma = GridSpec(1.0, 1.02, 0.02)
        lines = []
        self.dataset = []
        order = np.random.default_rng(self.seed).permutation(self.dataset_size)
        for i in order:
            triple = cropped_phantom(size, 1 + int(i), size, size, fov_radius=radius)
            lines.append(write_triple(work, f"w{i}", triple))
            self.dataset.append(triple)
        self.manifest = work / "manifest.csv"
        self.manifest.write_text("\n".join(lines) + "\n")
        discover(self.manifest, self.dataset_size)

    def probe(self):
        return self.dataset[0][0], KernelParams(sigma=0.5, length=7, x_limit=5.0,
                                                n_orientations=6)

    def next_call(self, out, threads):
        rx, rs = self.round1_x, self.round1_sigma
        return ["sweep", "--dataset-dir", str(self.manifest), "--layout", "flat",
                "--report", str(out / "sweep.csv"),
                "--round1-x", f"{rx.lo:g}:{rx.hi:g}:{rx.step:g}",
                "--round1-sigma", f"{rs.lo:g}:{rs.hi:g}:{rs.step:g}",
                "--length", "7", "--orientations", "6", "--min-size", "8"], "sweep"

    def expected_entries(self, entries) -> int:
        """n1 + n2 + n3 from the search's own window arithmetic."""
        rx, rs = self.round1_x, self.round1_sigma

        def window_count(best, radius, step):
            return (len(_window(best[0], radius, step, rx.lo, rx.hi).values())
                    * len(_window(best[1], radius, step, rs.lo, rs.hi).values()))

        n1 = len(rx.values()) * len(rs.values())
        n2 = window_count(sweep_argmax(entries[:n1]), 0.5, 0.1)
        n3 = window_count(sweep_argmax(entries[n1:n1 + n2]), 0.1, 0.01)
        return n1 + n2 + n3

    def check(self, key, rc, stdout, out):
        if rc != 0:
            return Outcome(errors=[f"sweep exited {rc}"])
        data = (out / "sweep.csv").read_bytes()
        entries = [tuple(float(v) for v in line.split(","))
                   for line in data.decode().splitlines()[1:]]
        outcome = Outcome(images=self.dataset_size * len(entries),
                          combos=len(entries), digest=sha256(data))
        expected = self.expected_entries(entries)
        if len(entries) != expected:
            outcome.errors.append(f"{len(entries)} log entries, expected {expected}")
        match = _BEST.search(stdout)
        best = tuple(float(v) for v in match.groups()) if match else None
        if best not in entries:
            outcome.errors.append(f"best {best} is not a log entry")
        self.extra["best"] = best
        self.record(key, outcome, lambda: (best[3], self.best_auc(best)))
        return outcome

    def best_auc(self, best) -> float:
        """Mean full-image AUC over the dataset at the winning parameters."""
        params = PipelineParams(
            kernel=KernelParams(sigma=best[1], length=best[2], x_limit=best[0],
                                n_orientations=6),
            min_component_size=8)
        bank = build_bank(params.kernel)
        aucs = []
        for rgb, fov, gt in self.dataset:
            result = run_pipeline(rgb, fov, params, bank)
            aucs.append(evaluate_pair(result.vessel_map, gt,
                                      response=normalize_response(result.mfr)).auc)
        return float(np.mean(aucs))


WORKLOADS = {w.name: w for w in (DriveEval, StareSegmentAscii, PhantomSweep)}


# ---------------------------------------------------------------------------
# measurement

@dataclass
class Call:
    wall: float
    threads: int
    traced: bool
    outcome: Outcome


def invoke(wl: Workload, work: Path, threads: int, tracer: Tracer | None) -> Call:
    """Run one CLI invocation in-process, then check what it wrote."""
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    argv, key = wl.next_call(out, threads)
    os.environ["VESSELMF_THREADS"] = str(threads)
    stdout, stderr = io.StringIO(), io.StringIO()
    root = tracer.invocation(argv[0]) if tracer else contextlib.nullcontext()
    rc, wall, errors = None, 0.0, []
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            with root:
                start = time.perf_counter()
                try:
                    rc = cli.main(argv)
                finally:
                    wall = time.perf_counter() - start
        except (Exception, SystemExit):
            errors.append(traceback.format_exc(limit=4))
    try:
        outcome = wl.check(key, rc, stdout.getvalue(), out) if not errors else Outcome()
    except Exception as exc:
        outcome = Outcome(errors=[f"output check failed: {exc!r}"])
    outcome.errors[:0] = errors
    if outcome.errors and stderr.getvalue():
        outcome.errors.append(stderr.getvalue().strip()[-500:])
    return Call(wall, threads, tracer is not None, outcome)


def measure(wl, work, seconds, cycle) -> list[Call]:
    """Closed loop for ``seconds`` over (threads, tracer or None) in turn;
    at least one pass over ``cycle``."""
    calls = []
    end = time.perf_counter() + seconds
    while not calls or time.perf_counter() < end:
        for threads, tracer in cycle:
            calls.append(invoke(wl, work, threads, tracer))
    return calls


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing numpy, scipy and the CLI."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import vesselmf.cli"
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
    return time.perf_counter() - start


def set_up(wl: Workload, work: Path):
    """Build the inputs SETUP_REPEATS times; keep the last; median time."""
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        start = time.perf_counter()
        wl.setup(work)
        times.append(time.perf_counter() - start)
    return times


def tail(samples):
    """(value, percentile, count) at the highest percentile with at least
    ten samples beyond it.  With 11 samples or fewer that is the fastest."""
    samples = sorted(samples)
    n = len(samples)
    index = max(n - 11, 0)
    return samples[index], 100.0 * (index + 1) / n, n


def rate(calls, attr):
    ok = [c for c in calls if not c.outcome.errors]
    if not ok:
        return 0.0
    return statistics.median(getattr(c.outcome, attr) / c.wall for c in ok)


def mean_score(wl, index):
    values = [s[index] for s in wl.scores.values() if s[index] is not None]
    return float(np.mean(values)) if values else 0.0


def end_to_end(wl, calls, setup_s, requests):
    failed = sum(1 for c in calls if c.outcome.errors)
    value, percentile, samples = tail(requests)
    metrics = {
        "setup_s": setup_s,
        "images_per_s": rate(calls, "images"),
        "combos_per_s": rate(calls, "combos"),
        "invocation_s_tail": value,
        "accuracy": mean_score(wl, 0),
        "auc": mean_score(wl, 1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - failed / len(calls),
    }
    detail = {"walls_s": [round(c.wall, 4) for c in calls],
              "tail_percentile": percentile, "tail_samples": samples,
              "failed_frac": failed / len(calls)}
    return metrics, detail


def trace_targets():
    """(module, function, span name, request id, sizes) for every layer."""
    combo_ids = itertools.count()

    def macs(args):
        image, bank = args[0], args[1]
        rows, cols = bank.kernels[0].weights.shape
        return len(bank.kernels) * image.height * image.width * rows * cols

    def combo(args):
        k = args[1].kernel
        return (k.x_limit, k.sigma, k.length)

    return [
        ("vesselmf.response", "max_response", "response.max_response", None, macs),
        ("vesselmf.response", "normalize_response", "response.normalize_response",
         None, None),
        ("vesselmf.pnm", "read_pnm", "pnm.read_pnm", None, lambda a: len(a[0])),
        ("vesselmf.pnm", "write_pnm", "pnm.write_pnm", None, None),
        ("vesselmf.preprocess", "pca_grayscale", "preprocess.pca_grayscale", None, None),
        ("vesselmf.preprocess", "clahe", "preprocess.clahe", None, None),
        ("vesselmf.kernels", "build_bank", "kernels.build_bank", None, None),
        ("vesselmf.sweep", "three_round_search", "sweep.three_round_search", None, None),
        ("vesselmf.sweep", "evaluate_combo", "sweep.evaluate_combo",
         lambda a: f"combo-{next(combo_ids)}", combo),
        ("vesselmf.segment", "run_pipeline", "segment.run_pipeline", None, None),
        ("vesselmf.segment", "build_histogram", "segment.build_histogram", None, None),
        ("vesselmf.segment", "otsu_threshold", "segment.otsu_threshold", None, None),
        ("vesselmf.segment", "binarize", "segment.binarize", None, None),
        ("vesselmf.segment", "length_filter", "segment.length_filter", None, None),
        ("vesselmf.segment", "apply_mask", "segment.apply_mask", None, None),
        ("vesselmf.segment", "complement", "segment.complement", None, None),
        ("vesselmf.image", "quantize_levels", "image.quantize_levels", None, None),
        ("vesselmf.image", "load_mask", "image.load_mask", None, None),
        ("vesselmf.metrics", "evaluate_pair", "metrics.evaluate_pair", None, None),
        ("vesselmf.metrics", "roc_curve", "metrics.roc_curve", None, None),
        ("vesselmf.metrics", "confusion", "metrics.confusion", None, None),
        ("vesselmf.cli", "discover_dataset", "cli.discover_dataset", None, None),
        ("vesselmf.cli", "resolve_pipeline_params", "cli.resolve_pipeline_params",
         None, None),
        ("vesselmf.cli", "_load_entry", "cli.load_entry", lambda a: a[0].id, None),
        ("vesselmf.cli", "_dump_stages", "cli.dump_stages", None, None),
    ]


def peak_alloc_mb(wl: Workload) -> float:
    """tracemalloc peak of one single-threaded max_response call."""
    rgb, kernel = wl.probe()
    enhanced = clahe(pca_grayscale(rgb))
    bank = build_bank(kernel)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        max_response(enhanced, bank)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / 1e6


def per_layer(wl: Workload, tracer: Tracer, traced: list[Call],
              untraced: list[Call]):
    spans = tracer.by_name()
    kids = tracer.children()
    invocations = tracer.invocations
    n_inv = len(invocations)
    thread_time = sum(wl.threads * inv.duration for inv in invocations)
    images = wl.dataset_size * n_inv

    def durations(name):
        return [s.duration for s in spans.get(name, ())]

    def ms(name):
        d = durations(name)
        return 1000.0 * statistics.median(d) if d else 0.0

    def share(name):
        return sum(durations(name)) / thread_time

    def per_call(name):
        return len(spans.get(name, ())) / n_inv

    response = spans.get("response.max_response", ())
    response_s = sum(durations("response.max_response"))
    macs = sum(s.info or 0 for s in response)
    reads = spans.get("pnm.read_pnm", ())
    read_s = sum(durations("pnm.read_pnm"))

    combos = spans.get("sweep.evaluate_combo", ())
    distinct = sum(len({s.info for s in combos if s.root == inv.id})
                   for inv in invocations)

    busy = 0.0
    for inv in invocations:
        per_thread = {}
        for s in kids.get(inv.id, ()):
            if s.rid is not None:
                per_thread.setdefault(s.thread, []).append((s.start, s.end))
        busy += sum(covered(iv, inv.start, inv.end) for iv in per_thread.values())

    pipelines = spans.get("segment.run_pipeline", ())

    def walls(threads):
        return [c.wall for c in untraced if c.threads == threads]

    def ips(calls):
        return rate(calls, "images")

    default_calls = [c for c in untraced if c.threads == wl.threads]
    metrics = {
        "response.max_response_ms": ms("response.max_response"),
        "response.share": response_s / thread_time,
        "response.effective_gmac_per_s": macs / response_s / 1e9 if response_s else 0.0,
        "response.peak_alloc_mb": peak_alloc_mb(wl),
        "pnm.read_ms": ms("pnm.read_pnm"),
        "pnm.read_mb_per_s": sum(s.info or 0 for s in reads) / read_s / 1e6 if read_s else 0.0,
        "pnm.write_share": share("pnm.write_pnm"),
        "pnm.read_calls": per_call("pnm.read_pnm"),
        "pnm.write_calls": per_call("pnm.write_pnm"),
        "preprocess.pca_grayscale_ms": ms("preprocess.pca_grayscale"),
        "preprocess.clahe_ms": ms("preprocess.clahe"),
        "preprocess.calls_per_image": len(spans.get("preprocess.pca_grayscale", ())) / images,
        "kernels.build_bank_calls": per_call("kernels.build_bank"),
        "kernels.build_bank_ms": ms("kernels.build_bank"),
        "sweep.evaluate_combo_share": share("sweep.evaluate_combo"),
        "sweep.evaluate_combo_calls": per_call("sweep.evaluate_combo"),
        "sweep.distinct_combo_frac": distinct / len(combos) if combos else 0.0,
        "segment.run_pipeline_calls": per_call("segment.run_pipeline"),
        "segment.threshold_ms": ms("segment.build_histogram") + ms("segment.otsu_threshold"),
        "segment.binarize_ms": ms("segment.binarize"),
        "segment.length_filter_ms": ms("segment.length_filter"),
        "segment.self_ms": 1000.0 * statistics.median(
            self_time(s, kids) for s in pipelines) if pipelines else 0.0,
        "image.quantize_levels_calls": per_call("image.quantize_levels"),
        "metrics.evaluate_pair_share": share("metrics.evaluate_pair"),
        "metrics.roc_curve_share": share("metrics.roc_curve"),
        "cli.load_entry_ms": ms("cli.load_entry"),
        "cli.self_ms": 1000.0 * statistics.median(self_time(inv, kids) for inv in invocations),
        "cli.worker_busy_frac": busy / thread_time,
        "cli.t2_speedup": statistics.median(walls(1)) / statistics.median(walls(2))
        if walls(1) and walls(2) else 0.0,
        "trace.overhead_frac": 1.0 - ips(traced) / ips(default_calls)
        if ips(default_calls) else 0.0,
    }
    detail = {"traced_invocations": n_inv, "spans": len(tracer.spans),
              "untraced_images_per_s": ips(default_calls),
              "traced_images_per_s": ips(traced),
              "missing_functions": sorted(tracer.missing)}
    return metrics, detail


def machine():
    model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {name: os.environ[name] for name in BLAS_ENV},
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny images, for the benchmark's own test")
    p.add_argument("--truncate-first-image", action="store_true",
                   help="feed a manifest copy whose first image is cut in half")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload](args.seed, args.smoke)
    work = ROOT / ".bench_work" / f"{wl.name}-{os.getpid()}"
    try:
        import_times = [import_seconds() for _ in range(SETUP_REPEATS)]
        setup_times = set_up(wl, work / "in")
        if args.truncate_first_image:
            wl.truncate()
        setup_s = statistics.median(import_times) + statistics.median(setup_times)
        if args.trace:
            # Untraced calls at 2 and 1 threads between traced ones, so
            # drift in machine speed falls on both sides of each ratio.
            tracer = Tracer(trace_targets())
            calls = measure(wl, work, args.seconds,
                            ((2, None), (1, None), (wl.threads, tracer)))
            metrics, detail = per_layer(
                wl, tracer, [c for c in calls if c.traced],
                [c for c in calls if not c.traced])
            units = PER_LAYER_UNITS
            trace_dir = ROOT / ".bench_out"
            trace_dir.mkdir(exist_ok=True)
            detail["trace_file"] = str(
                (trace_dir / f"{wl.name}-trace.jsonl").relative_to(ROOT))
            write_jsonl(trace_dir / f"{wl.name}-trace.jsonl", tracer)
        else:
            tracer = None
            if wl.request_span:
                tracer = Tracer([t for t in trace_targets() if t[2] == wl.request_span])
            calls = measure(wl, work, args.seconds, ((wl.threads, tracer),))
            requests = [c.wall for c in calls]
            if tracer:
                requests = [s.duration for s in tracer.spans]
                if not requests:
                    calls[-1].outcome.errors.append(f"no {wl.request_span} calls seen")
                    requests = [c.wall for c in calls]
            metrics, detail = end_to_end(wl, calls, setup_s, requests)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    failures = [e for c in calls for e in c.outcome.errors]
    detail.update({
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(), "invocations": len(calls),
        "import_repeats_s": import_times,
        "setup_repeats_s": setup_times,
        "outputs_sha256": wl.digests, "scores": wl.scores, **wl.extra,
        "failures": failures[:5],
    })
    for name, value in metrics.items():
        print(f"{name:32s} {value:.6g} {units[name]}")
    print(json.dumps({"detail": detail}, default=str))
    failed = sum(1 for c in calls if c.outcome.errors)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
