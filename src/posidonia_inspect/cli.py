"""Command line front end for the inspection pipeline.

Every subcommand is a thin, validated wrapper over one library call and
writes files in the module's native formats.  Exit codes: 0 on success,
1 when inputs fail validation, 2 when the work itself errors out.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

from .darkpatch import detect_dark_patches, report_lines
from .dataset import SplitSpec, split, split_sizes
from .imaging import equalize_histogram, gamma_correct, read_pnm, write_pnm
from .mission import run_mission, write_mission_log
from .presets import SCENARIO_PRESETS, gen_lawnmower
from .segmentation import NUM_CLASSES, BaselineSegmenter, mean_iou, read_mask, write_mask
from .world import OracleSegmenter, Scenario, load_scenario, render

log = logging.getLogger("posinspect")


class CommandError(Exception):
    """Bad input or configuration; reported and mapped to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; 2 is reserved for runtime errors
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _floats(text: str, count: int, what: str) -> tuple[float, ...]:
    parts = [p for p in text.replace(",", " ").split() if p]
    try:
        values = tuple(float(p) for p in parts)
    except ValueError:
        raise CommandError(f"{what} must be numeric, got {text!r}") from None
    if len(values) != count:
        raise CommandError(f"{what} needs {count} values, got {len(values)}")
    return values


def _load_scenario_arg(name: str) -> Scenario:
    if name in SCENARIO_PRESETS:
        return SCENARIO_PRESETS[name]()
    if not os.path.isfile(name):
        presets = ", ".join(sorted(SCENARIO_PRESETS))
        raise CommandError(f"scenario not found: {name} (no such file; presets: {presets})")
    return _read(load_scenario, name, "scenario")


def _read(reader, path: str, what: str, text: bool = False):
    """``reader``'s result for the input file at ``path`` (opened as UTF-8 if
    ``text``); any failure, bad UTF-8 included, is a CommandError that
    names the file once: a message that already names it gets no prefix."""
    if not os.path.isfile(path):
        raise CommandError(f"{what} not found: {path}")
    try:
        if not text:
            return reader(path)
        with open(path, "r", encoding="utf-8") as fh:
            return reader(fh)
    except (OSError, ValueError) as exc:
        message = str(exc)
        raise CommandError(message if path in message else f"{path}: {message}") from exc


def _out_dir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# Subcommands


def cmd_survey_run(args) -> int:
    if args.max_ticks < 1:
        raise CommandError("--max-ticks must be positive")
    scenario = _load_scenario_arg(args.scenario)
    if args.seed is not None:
        try:
            scenario = replace(scenario, mission=replace(scenario.mission, seed=args.seed))
        except ValueError as exc:
            raise CommandError(f"--seed: {exc}") from exc
    backend = (
        OracleSegmenter(scenario) if args.backend == "oracle" else BaselineSegmenter()
    )
    out = _out_dir(args.out)

    mission_log = run_mission(scenario, backend, max_ticks=args.max_ticks)
    names = write_mission_log(scenario, mission_log, out)
    log.info("wrote %s to %s", ", ".join(names), out)

    kinds = Counter(e.kind for e in mission_log.events)
    print(
        "patches found {} tracked {} skipped {}".format(
            kinds.get("PATCH_DETECTED", 0),
            kinds.get("POSIDONIA_FOUND", 0),
            kinds.get("PATCH_SKIPPED_EXPLORED", 0),
        )
    )
    if not mission_log.completed:
        print(f"mission did not complete within {args.max_ticks} ticks", file=sys.stderr)
        return 2
    return 0


def cmd_detect(args) -> int:
    img = _read(read_pnm, args.image, "image")
    try:
        report = detect_dark_patches(img, vehicle_depth=args.depth)
    except ValueError as exc:  # a non-finite --depth
        raise CommandError(str(exc)) from exc
    for line in report_lines(report):
        print(line)
    log.info("%d patches, %d excluded", len(report.patches), report.excluded_count)
    return 0


def cmd_enhance(args) -> int:
    img = _read(read_pnm, args.image, "image")
    try:
        enhanced = gamma_correct(equalize_histogram(img), args.gamma)
    except ValueError as exc:  # a gamma that is not positive and finite
        raise CommandError(str(exc)) from exc
    write_pnm(enhanced, args.out)
    return 0


def cmd_render(args) -> int:
    scenario = _load_scenario_arg(args.scenario)
    x, y, yaw, altitude = _floats(args.pose, 4, "--pose")
    try:
        img, mask = render(scenario, x, y, yaw, altitude)
    except ValueError as exc:
        raise CommandError(f"--pose: {exc}") from exc
    write_pnm(img, args.out)
    if args.mask_out:
        write_mask(mask, args.mask_out)
    return 0


def cmd_eval_iou(args) -> int:
    for d in (args.gt_dir, args.pred_dir):
        if not os.path.isdir(d):
            raise CommandError(f"not a directory: {d}")
    names = sorted(
        set(os.listdir(args.gt_dir)) & set(os.listdir(args.pred_dir))
    )
    names = [n for n in names if n.endswith(".pgm")]
    if not names:
        raise CommandError("no common .pgm mask files between the directories")
    classes = None
    if args.classes:
        try:
            codes = tuple(int(v) for v in args.classes.split(","))
        except ValueError:
            raise CommandError(f"--classes must be comma-separated integers, got {args.classes!r}") from None
        if any(not 0 <= c < NUM_CLASSES for c in codes):
            raise CommandError(f"class codes must lie in [0, {NUM_CLASSES - 1}]")
        repeated = sorted({c for c in codes if codes.count(c) > 1})
        if repeated:
            raise CommandError(f"--classes repeats class code {', '.join(map(str, repeated))}")
        classes = codes
    pairs = [
        (_read(read_mask, os.path.join(args.gt_dir, n), "mask"),
         _read(read_mask, os.path.join(args.pred_dir, n), "mask"))
        for n in names
    ]
    try:
        score = mean_iou(pairs, classes)
    except ValueError as exc:
        raise CommandError(str(exc)) from exc
    print(f"mean {score:.6f}")
    return 0


def cmd_dataset_split(args) -> int:
    lines = _read(list, args.list, "list file", text=True)
    items = [line.rstrip("\n") for line in lines if line.strip()]
    train_frac, val_frac = _floats(args.fractions, 2, "--fractions")
    try:
        spec = SplitSpec(train_frac, val_frac, seed=args.seed)
    except ValueError as exc:
        raise CommandError(str(exc)) from exc
    n_train, n_val, n_test = split_sizes(len(items), spec)
    print(f"{n_train} {n_val} {n_test}")
    if args.out:
        out = _out_dir(args.out)
        for name, part in zip(("train", "val", "test"), split(items, spec)):
            (out / f"{name}.txt").write_text("".join(f"{it}\n" for it in part))
    return 0


def cmd_gen_lawnmower(args) -> int:
    bounds = _floats(args.bounds, 4, "--bounds")
    try:
        waypoints = gen_lawnmower(bounds, args.spacing)
    except ValueError as exc:
        raise CommandError(str(exc)) from exc
    for x, y in waypoints:
        print(f"{x:.3f} {y:.3f}")
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="posinspect", description=__doc__)
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("survey-run", help="run a full mission and write its artifacts")
    p.add_argument("--scenario", required=True,
                   help=f"scenario file or preset ({', '.join(sorted(SCENARIO_PRESETS))})")
    p.add_argument("--backend", choices=("oracle", "baseline"), default="oracle")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--max-ticks", type=int, default=20000)
    p.set_defaults(func=cmd_survey_run)

    p = sub.add_parser("detect", help="report dark patches in one image")
    p.add_argument("image", help="PPM/PGM image")
    p.add_argument("--depth", type=float, default=0.0, help="vehicle depth for threshold scaling")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("enhance", help="equalize and gamma-correct one image")
    p.add_argument("image", help="PPM/PGM image")
    p.add_argument("--gamma", type=float, default=1.5,
                   help="power-law exponent; 1.5 is a working value for the "
                   "rock-enhancement path, not validated against field imagery")
    p.add_argument("--out", required=True, help="output PPM path")
    p.set_defaults(func=cmd_enhance)

    p = sub.add_parser("render", help="render one seafloor camera frame")
    p.add_argument("--scenario", required=True)
    p.add_argument("--pose", required=True, help="x,y,yaw,altitude")
    p.add_argument("--out", required=True, help="output PPM path")
    p.add_argument("--mask-out", default=None, help="also write the ground-truth PGM")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("eval-iou", help="mean IoU between two mask directories")
    p.add_argument("gt_dir")
    p.add_argument("pred_dir")
    p.add_argument("--classes", default=None, help="comma-separated class codes")
    p.set_defaults(func=cmd_eval_iou)

    p = sub.add_parser("dataset-split", help="deterministic train/val/test split")
    p.add_argument("list", help="text file, one item per line")
    p.add_argument("--fractions", default="0.7,0.2", help="train,val fractions")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write train/val/test lists here")
    p.set_defaults(func=cmd_dataset_split)

    p = sub.add_parser("gen-lawnmower", help="print lawnmower waypoints")
    p.add_argument("--bounds", required=True, help="x0,y0,x1,y1")
    p.add_argument("--spacing", type=float, required=True)
    p.set_defaults(func=cmd_gen_lawnmower)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - boundary: report, do not crash
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
