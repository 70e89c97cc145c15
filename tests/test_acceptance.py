"""End-to-end acceptance checks, one test per release criterion.

Each test prints a single PASS/FAIL line (bypassing capture) so a full
run reads as a checklist.  Runtime bounds are part of the assertions.
"""

import filecmp
import math
import time
from collections import Counter

import numpy as np
import pytest

import oracles
from posidonia_inspect.camera import (
    CameraModel,
    footprint_half_extents,
    pixel_grid_world,
)
from posidonia_inspect.darkpatch import DetectorConfig, detect_dark_patches
from posidonia_inspect.dataset import SplitSpec, split, split_sizes
from posidonia_inspect.geometry import alpha_shape, convex_hull, polygon_area
from posidonia_inspect.imaging import (
    Raster,
    WaterModel,
    attenuate,
    equalize_histogram,
    gamma_correct,
)
from posidonia_inspect.mission import run_mission, write_mission_log
from posidonia_inspect.presets import (
    blocks_scenario,
    five_patch_scenario,
    ring_meadow_scenario,
)
from posidonia_inspect.segmentation import (
    NUM_CLASSES,
    BaselineSegmenter,
    iou,
    mean_iou,
)
from posidonia_inspect.world import OracleSegmenter, render


@pytest.fixture()
def announce(capsys):
    def _announce(label: str, ok: bool, elapsed: float, limit: float) -> None:
        status = "PASS" if ok and elapsed < limit else "FAIL"
        with capsys.disabled():
            print(f"[acceptance] {label}: {status} ({elapsed:.2f}s < {limit:.0f}s)")
        assert ok, label
        assert elapsed < limit, f"{label} exceeded {limit}s ({elapsed:.2f}s)"

    return _announce


def test_01_iou_matches_pixel_oracle(announce):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    ok = True
    pairs = []
    for _ in range(200):
        a = rng.integers(0, NUM_CLASSES, size=(32, 32)).astype(np.uint8)
        b = rng.integers(0, NUM_CLASSES, size=(32, 32)).astype(np.uint8)
        pairs.append((a, b))
        for code in range(NUM_CLASSES):
            if iou(a, b, code) != oracles.iou_by_sets(a, b, code):
                ok = False
    identical = [(a, a) for a, _ in pairs]
    ok = ok and mean_iou(identical) == 1.0
    announce("01 iou equals pixel-set oracle", ok, time.perf_counter() - t0, 1.0)


def test_02_split_reproduction(announce):
    t0 = time.perf_counter()
    spec = SplitSpec()
    ok = split_sizes(6949, spec) == (4865, 1389, 695)
    for n in range(3, 10_001):
        train, val, test = split_sizes(n, spec)
        if min(train, val, test) < 0 or train + val + test != n:
            ok = False
            break
    for n in (3, 10, 100, 6949):
        items = [f"i{k}" for k in range(n)]
        parts = split(items, spec)
        if sorted(parts[0] + parts[1] + parts[2]) != sorted(items):
            ok = False
    announce("02 split sizes 6949 -> 4865/1389/695", ok, time.perf_counter() - t0, 1.0)


def test_03_attenuation_identities(announce):
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    ok = True

    img = Raster(rng.random((24, 32, 3)))
    half = WaterModel((math.log(2),) * 3, (0.0, 0.0, 0.0))
    ok = ok and np.abs(attenuate(img, half, 1.0).data - img.data / 2).max() <= 1e-12
    ok = ok and np.array_equal(attenuate(img, half, 0.0).data, img.data)
    clear = WaterModel((0.0, 0.0, 0.0), (0.1, 0.2, 0.3))
    ok = ok and np.array_equal(attenuate(img, clear, 4.0).data, img.data)

    for _ in range(100):
        data = rng.random((16, 16, 3))
        water = WaterModel(tuple(rng.uniform(0.01, 1.0, 3)), tuple(rng.uniform(0, 1, 3)))
        path = float(rng.uniform(0.0, 5.0))
        out = attenuate(Raster(data), water, path).data
        veil = np.asarray(water.backscatter_veil)
        if not (np.abs(out - veil) <= np.abs(data - veil) + 1e-12).all():
            ok = False
            break
    announce("03 attenuation identities and veil contraction", ok,
             time.perf_counter() - t0, 1.0)


def test_04_alpha_shape_hull_limit(announce):
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    ok = True
    for _ in range(50):
        n = int(rng.integers(3, 51))
        points = rng.uniform(-50.0, 50.0, size=(n, 2))
        deltas = points[:, None, :] - points[None, :, :]
        diameter = float(np.sqrt((deltas**2).sum(-1)).max())
        if diameter == 0.0:
            continue
        shapes = alpha_shape(points, 1e6 * diameter)
        hull = convex_hull(points)
        if len(shapes) != 1:
            ok = False
            break
        got = {(float(x), float(y)) for x, y in shapes[0].vertices}
        want = {(float(x), float(y)) for x, y in hull.vertices}
        if got != want:
            ok = False
            break
        area = polygon_area(shapes[0])
        brute = oracles.brute_hull_area(points)
        if abs(area - brute) > 1e-9 * max(1.0, abs(brute)):
            ok = False
            break
    announce("04 alpha shape converges to convex hull", ok,
             time.perf_counter() - t0, 5.0)


def test_05_dark_patch_scene(announce):
    t0 = time.perf_counter()
    height = width = 200
    yy, xx = np.mgrid[0:height, 0:width]
    config = DetectorConfig()
    ok = True

    img = np.full((height, width, 3), 0.8)
    disk = (xx - 60.0) ** 2 + (yy - 140.0) ** 2 <= 100.0
    img[disk] = 0.05
    painted = int(disk.sum())
    clean = detect_dark_patches(Raster(img), config)
    ok = ok and len(clean.patches) == 1
    if ok:
        patch = clean.patches[0]
        ok = ok and math.hypot(patch.centroid[0] - 60.0, patch.centroid[1] - 140.0) <= 2.0
        ok = ok and abs(patch.area_px - painted) <= 0.05 * painted

    centered = np.full((height, width, 3), 0.8)
    mid = (width - 1) / 2.0
    centered[(xx - mid) ** 2 + (yy - mid) ** 2 <= 100.0] = 0.05
    report_c = detect_dark_patches(Raster(centered), config)
    ok = ok and len(report_c.patches) == 0 and report_c.excluded_count == 1

    rng = np.random.default_rng(505)
    speckled = img.copy()
    spots = rng.choice(height * width, size=500, replace=False)
    speckled.reshape(-1, 3)[spots] = 1.0
    report_s = detect_dark_patches(Raster(speckled), config)
    ok = ok and len(report_s.patches) == 1
    if ok:
        ps, pc = report_s.patches[0], clean.patches[0]
        ok = ok and math.hypot(ps.centroid[0] - pc.centroid[0],
                               ps.centroid[1] - pc.centroid[1]) <= 0.5
        ok = ok and abs(ps.area_px - pc.area_px) <= 0.01 * pc.area_px
    announce("05 dark patch detect/exclude/speckle", ok, time.perf_counter() - t0, 2.0)


def test_06_footprint_geometry(announce):
    t0 = time.perf_counter()
    camera = CameraModel()
    ok = True
    for altitude in (2.0, 5.0, 10.0):
        want_w = 2 * altitude * math.tan(math.radians(camera.hfov_deg) / 2)
        want_h = 2 * altitude * math.tan(math.radians(camera.vfov_deg) / 2)
        half_r, half_f = footprint_half_extents(camera, altitude)
        ok = ok and abs(2 * half_r - want_w) <= 1e-9
        ok = ok and abs(2 * half_f - want_h) <= 1e-9
        gx, gy = pixel_grid_world(camera, 10.0, 20.0, 0.0, altitude)
        # yaw 0 points the frame forward along +x: lateral span lies on y
        ok = ok and abs((gy.max() - gy.min()) - want_w) <= want_w / camera.width
        ok = ok and abs((gx.max() - gx.min()) - want_h) <= want_h / camera.height

    scenario = blocks_scenario()
    img, gt = render(scenario, 40.0, 40.0, 0.7, 5.0)
    pred = OracleSegmenter(scenario).segment(img)
    ok = ok and np.array_equal(pred.data, gt.data)
    ok = ok and mean_iou([(gt, pred)]) == 1.0
    announce("06 footprint dims and oracle IoU 1.0", ok, time.perf_counter() - t0, 2.0)


def test_07_five_patch_mission(announce, tmp_path):
    t0 = time.perf_counter()
    ok = True

    doubled = five_patch_scenario(passes=2)
    log = run_mission(doubled, OracleSegmenter(doubled), max_ticks=15000)
    ok = ok and log.completed
    waypoint_times = [e.time for e in log.events if e.kind == "WAYPOINT_REACHED"]
    ok = ok and len(waypoint_times) >= 6
    if ok:
        split_time = waypoint_times[5]
        first = Counter(e.kind for e in log.events if e.time <= split_time)
        second = Counter(e.kind for e in log.events if e.time > split_time)
        ok = ok and first.get("DESCEND_START", 0) == 5
        ok = ok and first.get("ROCKS_ONLY", 0) == 2
        ok = ok and first.get("TRACK_CLOSED", 0) == 3
        ok = ok and first.get("PATCH_SKIPPED_EXPLORED", 0) == 0
        ok = ok and second.get("PATCH_SKIPPED_EXPLORED", 0) >= 5
        ok = ok and second.get("DESCEND_START", 0) == 0
        total = Counter(e.kind for e in log.events)
        ok = ok and total.get("MISSION_COMPLETE", 0) == 1

    names = []
    for run_dir in ("a", "b"):
        scenario = five_patch_scenario()
        single = run_mission(scenario, OracleSegmenter(scenario), max_ticks=8000)
        out = tmp_path / run_dir
        names = write_mission_log(scenario, single, out)
    ok = ok and all(
        filecmp.cmp(tmp_path / "a" / n, tmp_path / "b" / n, shallow=False)
        for n in names
    )
    announce("07 five-patch mission and re-dive suppression", ok,
             time.perf_counter() - t0, 60.0)


def test_08_boundary_tracking_quality(announce):
    t0 = time.perf_counter()
    scenario = ring_meadow_scenario()
    log = run_mission(scenario, OracleSegmenter(scenario), max_ticks=6000)
    radii = [
        math.hypot(r.x - 60.0, r.y - 78.0)
        for r in log.rows
        if r.phase == "TRACK_BOUNDARY"
    ]
    ok = len(radii) > 0
    if ok:
        inside = sum(1 for r in radii if abs(r - 20.0) <= 3.0)
        ok = inside / len(radii) >= 0.90
    track_ends = [e.kind for e in log.events if e.kind in ("TRACK_CLOSED", "TRACK_LOST")]
    ok = ok and track_ends == ["TRACK_CLOSED"]
    announce("08 boundary track stays in 20 +/- 3 m band", ok,
             time.perf_counter() - t0, 30.0)


def test_09_enhancement_monotonicity(announce):
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    ok = True
    # equalization remaps intensity: the gray channel directly, the HSV
    # value channel (max of RGB) for color input
    for k in range(100):
        if k % 2 == 0:
            data = rng.random((16, 24, 1))
            v_in = data[:, :, 0]
            v_out = equalize_histogram(Raster(data)).data[:, :, 0]
        else:
            data = rng.random((16, 24, 3))
            v_in = data.max(axis=2)
            v_out = equalize_histogram(Raster(data)).data.max(axis=2)
        order = np.argsort(v_in, axis=None, kind="stable")
        if np.diff(v_out.flat[order]).min() < -1e-12:
            ok = False
            break
    img = Raster(rng.random((32, 32, 3)))
    for g in (0.5, 1.5, 2.2):
        back = gamma_correct(gamma_correct(img, g), 1.0 / g)
        ok = ok and np.abs(back.data - img.data).max() <= 1e-9
    announce("09 equalization order and gamma round trip", ok,
             time.perf_counter() - t0, 2.0)


def test_10_baseline_segmenter_iou(announce):
    t0 = time.perf_counter()
    scenario = blocks_scenario()
    rng = np.random.default_rng(1010)
    poses = []
    for cx, cy in ((20.0, 20.0), (60.0, 20.0), (20.0, 60.0), (60.0, 60.0)):
        for _ in range(3):
            poses.append((cx + rng.uniform(-8, 8), cy + rng.uniform(-8, 8),
                          rng.uniform(0, 2 * math.pi)))
    for bx, by in ((40.0, 20.0), (40.0, 60.0), (20.0, 40.0), (60.0, 40.0),
                   (40.0, 40.0), (40.0, 40.0), (30.0, 40.0), (40.0, 30.0)):
        poses.append((bx + rng.uniform(-2, 2), by + rng.uniform(-2, 2),
                      rng.uniform(0, 2 * math.pi)))

    baseline = BaselineSegmenter()
    inter = np.zeros(NUM_CLASSES)
    union = np.zeros(NUM_CLASSES)
    for x, y, yaw in poses:
        img, gt = render(scenario, x, y, yaw, 5.0)
        pred = baseline.segment(img)
        for code in range(NUM_CLASSES):
            a, b = gt.data == code, pred.data == code
            inter[code] += np.count_nonzero(a & b)
            union[code] += np.count_nonzero(a | b)
    ok = (union > 0).all() and (inter / union >= 0.7).all()
    announce("10 baseline per-class IoU >= 0.7", ok, time.perf_counter() - t0, 10.0)
