import json
import re

import pytest

from posidonia_inspect.cli import main
from posidonia_inspect.presets import empty_scenario
from posidonia_inspect.world import save_scenario


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestParsing:
    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(["--help"], capsys)
        assert code == 0
        assert "survey-run" in out

    def test_no_subcommand_is_validation_error(self, capsys):
        code, _, _ = run_cli([], capsys)
        assert code == 1

    def test_unknown_flag_is_validation_error(self, capsys):
        code, _, err = run_cli(
            ["gen-lawnmower", "--bounds", "0,0,1,1", "--spacing", "1", "--bogus"],
            capsys,
        )
        assert code == 1
        assert "--bogus" in err


class TestGenLawnmower:
    def test_prints_waypoints(self, capsys):
        code, out, _ = run_cli(
            ["gen-lawnmower", "--bounds", "0,0,100,60", "--spacing", "30"], capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "0.000 0.000"
        assert lines[1] == "100.000 0.000"
        assert len(lines) == 6

    def test_bad_bounds(self, capsys):
        code, _, err = run_cli(
            ["gen-lawnmower", "--bounds", "10,0,10,5", "--spacing", "1"], capsys
        )
        assert code == 1
        assert "bounds" in err

    def test_non_numeric_bounds(self, capsys):
        code, _, _ = run_cli(
            ["gen-lawnmower", "--bounds", "a,b,c,d", "--spacing", "1"], capsys
        )
        assert code == 1

    @pytest.mark.parametrize("bounds, spacing, why", [
        ("0,0,1e300,60", "1e-300", "survey lines"),
        ("0,0,1,inf", "1", "finite"),
    ])
    def test_endless_survey_is_validation_error(self, bounds, spacing, why, capsys):
        code, out, err = run_cli(
            ["gen-lawnmower", "--bounds", bounds, "--spacing", spacing], capsys
        )
        assert code == 1
        assert out == ""
        assert why in err


class TestDatasetSplit:
    def test_reference_counts(self, tmp_path, capsys):
        listing = tmp_path / "list.txt"
        listing.write_text("".join(f"img_{i}\n" for i in range(6949)))
        code, out, _ = run_cli(["dataset-split", str(listing)], capsys)
        assert code == 0
        assert out.strip() == "4865 1389 695"

    def test_writes_partition(self, tmp_path, capsys):
        listing = tmp_path / "list.txt"
        items = [f"img_{i}" for i in range(40)]
        listing.write_text("".join(f"{it}\n" for it in items))
        out_dir = tmp_path / "splits"
        code, _, _ = run_cli(
            ["dataset-split", str(listing), "--out", str(out_dir), "--seed", "3"],
            capsys,
        )
        assert code == 0
        parts = [
            (out_dir / name).read_text().splitlines()
            for name in ("train.txt", "val.txt", "test.txt")
        ]
        assert sorted(parts[0] + parts[1] + parts[2]) == sorted(items)
        assert len(parts[0]) == 28 and len(parts[1]) == 8 and len(parts[2]) == 4

    def test_missing_list(self, capsys):
        code, _, err = run_cli(["dataset-split", "/no/such/list.txt"], capsys)
        assert code == 1
        assert "/no/such/list.txt" in err

    def test_bad_fractions(self, tmp_path, capsys):
        listing = tmp_path / "list.txt"
        listing.write_text("a\nb\n")
        code, _, _ = run_cli(
            ["dataset-split", str(listing), "--fractions", "0.9,0.9"], capsys
        )
        assert code == 1


    def test_negative_seed_is_validation_error(self, tmp_path, capsys):
        listing = tmp_path / "list.txt"
        listing.write_text("a\nb\n")
        out_dir = tmp_path / "ds"
        code, out, err = run_cli(
            ["dataset-split", str(listing), "--seed", "-1", "--out", str(out_dir)], capsys
        )
        assert code == 1
        assert "seed" in err
        assert out == ""
        assert not out_dir.exists()


class TestSurveyRun:
    def test_empty_preset(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code, out, _ = run_cli(
            ["survey-run", "--scenario", "empty", "--out", str(out_dir)], capsys
        )
        assert code == 0
        assert out.strip() == "patches found 0 tracked 0 skipped 0"
        for name in ("trajectory.csv", "events.txt", "polygons.rings", "map.ppm"):
            assert (out_dir / name).stat().st_size > 0

    def test_scenario_file_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "empty.scn"
        save_scenario(empty_scenario(), path)
        code, out, _ = run_cli(
            ["survey-run", "--scenario", str(path), "--out", str(tmp_path / "r"),
             "--seed", "11"],
            capsys,
        )
        assert code == 0
        assert "patches found 0" in out

    def test_missing_scenario_names_path(self, capsys):
        code, _, err = run_cli(
            ["survey-run", "--scenario", "/no/such.scn", "--out", "/tmp/x"], capsys
        )
        assert code == 1
        assert "/no/such.scn" in err

    def test_exhausted_budget_is_runtime_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["survey-run", "--scenario", "empty", "--out", str(tmp_path / "r"),
             "--max-ticks", "5"],
            capsys,
        )
        assert code == 2
        assert "did not complete" in err

    @pytest.mark.parametrize("section, key", [("mission", "seed"), ("water", "rng_seed")])
    def test_seed_outside_int64_is_validation_error(self, section, key, tmp_path, capsys):
        path = tmp_path / "empty.scn"
        save_scenario(empty_scenario(), path)
        text, n = re.subn(
            rf"(\[{section}\][^[]*\n){key} = \S+", rf"\g<1>{key} = 99999999999999999999999",
            path.read_text(),
        )
        assert n == 1
        path.write_text(text)
        code, _, err = run_cli(
            ["survey-run", "--scenario", str(path), "--out", str(tmp_path / "r")], capsys
        )
        assert code == 1
        assert f"[{section}]" in err and key in err

    @pytest.mark.parametrize("seed", ["99999999999999999999999", "-1"])
    def test_seed_flag_outside_int64_is_validation_error(self, seed, tmp_path, capsys):
        code, _, err = run_cli(
            ["survey-run", "--scenario", "empty", "--out", str(tmp_path / "r"),
             "--seed", seed],
            capsys,
        )
        assert code == 1
        assert "--seed" in err

    @pytest.mark.parametrize("ticks", ["0", "-3"])
    def test_nonpositive_budget_is_validation_error(self, ticks, tmp_path, capsys):
        code, _, err = run_cli(
            ["survey-run", "--scenario", "empty", "--out", str(tmp_path / "r"),
             "--max-ticks", ticks],
            capsys,
        )
        assert code == 1
        assert "--max-ticks" in err


class TestImagingCommands:
    @pytest.fixture()
    def patch_frame(self, tmp_path, capsys):
        path = tmp_path / "frame.ppm"
        code, _, _ = run_cli(
            ["render", "--scenario", "five-patch", "--pose", "50,36,0,13",
             "--out", str(path)],
            capsys,
        )
        assert code == 0
        return path

    def test_detect_reports_offset_patch(self, patch_frame, capsys):
        code, out, _ = run_cli(["detect", str(patch_frame), "--depth", "2"], capsys)
        assert code == 0
        assert out.startswith("patch 1 centroid")

    def test_detect_centered_patch_excluded(self, tmp_path, capsys):
        path = tmp_path / "centered.ppm"
        run_cli(
            ["render", "--scenario", "five-patch", "--pose", "50,30,0,13",
             "--out", str(path)],
            capsys,
        )
        code, out, _ = run_cli(["detect", str(path), "--depth", "2"], capsys)
        assert code == 0
        assert out == ""

    @pytest.mark.parametrize("depth", ["nan", "inf", "-inf"])
    def test_detect_rejects_non_finite_depth(self, patch_frame, depth, capsys):
        code, out, err = run_cli(["detect", str(patch_frame), f"--depth={depth}"], capsys)
        assert code == 1
        assert "finite" in err and out == ""

    def test_enhance_writes_image(self, patch_frame, tmp_path, capsys):
        out_path = tmp_path / "enhanced.ppm"
        code, _, _ = run_cli(
            ["enhance", str(patch_frame), "--gamma", "1.5", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        assert out_path.read_bytes().startswith(b"P6")

    def test_enhance_rejects_bad_gamma(self, patch_frame, tmp_path, capsys):
        code, _, _ = run_cli(
            ["enhance", str(patch_frame), "--gamma", "-1",
             "--out", str(tmp_path / "x.ppm")],
            capsys,
        )
        assert code == 1

    def test_render_with_mask(self, tmp_path, capsys):
        img = tmp_path / "f.ppm"
        mask = tmp_path / "f.pgm"
        code, _, _ = run_cli(
            ["render", "--scenario", "blocks", "--pose", "20,20,0,5",
             "--out", str(img), "--mask-out", str(mask)],
            capsys,
        )
        assert code == 0
        assert mask.read_bytes().startswith(b"P5")

    def test_render_rejects_bad_pose(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["render", "--scenario", "blocks", "--pose", "1,2,3",
             "--out", str(tmp_path / "f.ppm")],
            capsys,
        )
        assert code == 1

    @pytest.mark.parametrize("pose", ["nan,0,0,5", "10,10,0,nan", "0,inf,0,5", "0,0,-inf,5"])
    def test_render_rejects_non_finite_pose(self, pose, tmp_path, capsys):
        out = tmp_path / "f.ppm"
        code, _, err = run_cli(
            ["render", "--scenario", "empty", "--pose", pose, "--out", str(out)], capsys
        )
        assert code == 1
        assert "finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("pose", ["50,26,0,1e300", "1e300,0,0,5"])
    def test_render_rejects_pose_too_far_for_the_map(self, pose, tmp_path, capsys):
        # the footprint overflows; its cell index would be garbage
        out = tmp_path / "f.ppm"
        code, _, err = run_cli(
            ["render", "--scenario", "five-patch", "--pose", pose, "--out", str(out)], capsys
        )
        assert code == 1
        assert "int64" in err
        assert not out.exists()

    def test_render_rejects_non_positive_altitude(self, tmp_path, capsys):
        out = tmp_path / "f.ppm"
        code, _, err = run_cli(
            ["render", "--scenario", "empty", "--pose", "10,10,0,0", "--out", str(out)], capsys
        )
        assert code == 1
        assert "altitude" in err
        assert not out.exists()


class TestEvalIou:
    def test_identical_dirs(self, tmp_path, capsys):
        img = tmp_path / "f.ppm"
        mask_gt = tmp_path / "gt"
        mask_pred = tmp_path / "pred"
        mask_gt.mkdir(), mask_pred.mkdir()
        run_cli(
            ["render", "--scenario", "blocks", "--pose", "40,40,0,5",
             "--out", str(img), "--mask-out", str(mask_gt / "a.pgm")],
            capsys,
        )
        (mask_pred / "a.pgm").write_bytes((mask_gt / "a.pgm").read_bytes())
        code, out, _ = run_cli(["eval-iou", str(mask_gt), str(mask_pred)], capsys)
        assert code == 0
        assert out.strip() == "mean 1.000000"

    def test_missing_dir(self, tmp_path, capsys):
        code, _, _ = run_cli(["eval-iou", str(tmp_path), "/no/such/dir"], capsys)
        assert code == 1

    def test_no_common_masks(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        code, _, _ = run_cli(["eval-iou", str(a), str(b)], capsys)
        assert code == 1

    def test_bad_classes(self, tmp_path, capsys):
        a = tmp_path / "a"
        a.mkdir()
        code, _, _ = run_cli(
            ["eval-iou", str(a), str(a), "--classes", "0,9"], capsys
        )
        assert code == 1


class TestDatasetMasks:
    ANN = (
        '[{"image": "x01", "width": 16, "height": 12,'
        ' "regions": [{"class": 1, "points": [[2, 2], [10, 2], [10, 8], [2, 8]]}]}]'
    )

    def test_writes_masks(self, tmp_path, capsys):
        ann = tmp_path / "ann.json"
        ann.write_text(self.ANN)
        out_dir = tmp_path / "masks"
        code, out, _ = run_cli(
            ["dataset-masks", str(ann), "--out", str(out_dir)], capsys
        )
        assert code == 0
        assert out.strip() == "wrote 1 masks"
        assert (out_dir / "x01.pgm").read_bytes().startswith(b"P5")

    def test_bad_json(self, tmp_path, capsys):
        ann = tmp_path / "ann.json"
        ann.write_text("{not json")
        code, _, _ = run_cli(
            ["dataset-masks", str(ann), "--out", str(tmp_path / "m")], capsys
        )
        assert code == 1

    @pytest.mark.parametrize("entry", [
        {"image": "../pe/escaped"},  # a path out of --out
        {"class": True},
        {"width": True},
        {"regions": 5},
    ], ids=["path-image", "bool-class", "bool-width", "int-regions"])
    def test_bad_entry_writes_nothing(self, tmp_path, capsys, entry):
        # the region fits a one-pixel-wide frame, so only the entry is at fault
        obj = {"image": "x01", "width": 16, "height": 12,
               "regions": [{"class": 1, "points": [[0, 2], [1, 2], [1, 8]]}]}
        if "class" in entry:
            obj["regions"][0].update(entry)
        else:
            obj.update(entry)
        work = tmp_path / "work"
        work.mkdir()
        ann = work / "ann.json"
        ann.write_text(json.dumps([obj]))
        code, _, err = run_cli(
            ["dataset-masks", str(ann), "--out", str(work / "masks")], capsys
        )
        assert code == 1
        assert str(ann) in err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["ann.json", "work"]

    def test_duplicate_image_names_write_nothing(self, tmp_path, capsys):
        ann = tmp_path / "ann.json"
        regions = [{"class": 1, "points": [[0, 0], [3, 0], [3, 3]]}]
        ann.write_text(json.dumps([
            {"image": name, "width": 4, "height": 4, "regions": regions}
            for name in ("a", "b", "a")
        ]))
        out_dir = tmp_path / "masks"
        code, out, err = run_cli(["dataset-masks", str(ann), "--out", str(out_dir)], capsys)
        assert code == 1
        assert out == ""
        assert f"{ann}: duplicate image names: a" in err
        assert not out_dir.exists()


class TestDatasetAugment:
    def test_deterministic_outputs(self, tmp_path, capsys):
        img = tmp_path / "f.ppm"
        run_cli(
            ["render", "--scenario", "blocks", "--pose", "40,40,0.4,5",
             "--out", str(img)],
            capsys,
        )
        outs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            code, _, _ = run_cli(
                ["dataset-augment", str(img), "--seed", "7", "--out", str(out_dir)],
                capsys,
            )
            assert code == 0
            outs.append((out_dir / "f_aug.ppm").read_bytes())
        assert outs[0] == outs[1]

    def test_negative_seed_is_validation_error(self, tmp_path, capsys):
        img = tmp_path / "f.ppm"
        img.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        out_dir = tmp_path / "o"
        code, out, err = run_cli(
            ["dataset-augment", str(img), "--seed", "-1", "--out", str(out_dir)], capsys
        )
        assert code == 1
        assert "--seed" in err
        assert out == ""
        assert not out_dir.exists()

    def test_missing_mask(self, tmp_path, capsys):
        img = tmp_path / "f.ppm"
        img.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        code, _, _ = run_cli(
            ["dataset-augment", f"{img}:/no/mask.pgm", "--out", str(tmp_path / "o")],
            capsys,
        )
        assert code == 1


class TestInputFiles:
    """A missing, unreadable, non-UTF-8 or malformed input exits 1 with one
    ``error:`` line that names the file once."""

    TRUNCATED_PPM = b"P6\n4 4\n255\n\x00"
    TRUNCATED_PGM = b"P5\n4 4\n3\n\x00"

    def assert_names_once(self, code, out, err, path):
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.count(str(path)) == 1

    @pytest.mark.parametrize("command", ["detect", "enhance"])
    def test_truncated_image(self, tmp_path, capsys, command):
        img = tmp_path / "bad.ppm"
        img.write_bytes(self.TRUNCATED_PPM)
        out_args = ["--out", str(tmp_path / "o.ppm")] if command == "enhance" else []
        code, out, err = run_cli([command, str(img), *out_args], capsys)
        self.assert_names_once(code, out, err, img)
        assert err == f"error: truncated PNM payload in {img}\n"

    def test_truncated_mask_in_eval_iou(self, tmp_path, capsys):
        gt, pred = tmp_path / "gt", tmp_path / "pred"
        gt.mkdir(), pred.mkdir()
        (gt / "a.pgm").write_bytes(self.TRUNCATED_PGM)
        (pred / "a.pgm").write_bytes(self.TRUNCATED_PGM)
        code, out, err = run_cli(["eval-iou", str(gt), str(pred)], capsys)
        self.assert_names_once(code, out, err, gt / "a.pgm")

    @pytest.mark.parametrize("bad", ["image", "mask"])
    def test_truncated_input_in_dataset_augment(self, tmp_path, capsys, bad):
        img, mask = tmp_path / "f.ppm", tmp_path / "f.pgm"
        img.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        mask.write_bytes(b"P5\n1 1\n3\n\x00")
        (img if bad == "image" else mask).write_bytes(
            self.TRUNCATED_PPM if bad == "image" else self.TRUNCATED_PGM)
        code, out, err = run_cli(
            ["dataset-augment", f"{img}:{mask}", "--out", str(tmp_path / "o")], capsys)
        self.assert_names_once(code, out, err, img if bad == "image" else mask)
        assert not (tmp_path / "o").exists()

    def test_non_utf8_list_in_dataset_split(self, tmp_path, capsys):
        listing = tmp_path / "list.txt"
        listing.write_bytes(b"a\n\xff\xfe\n")
        code, out, err = run_cli(["dataset-split", str(listing)], capsys)
        self.assert_names_once(code, out, err, listing)
        assert "codec can't decode" in err

    def test_non_utf8_annotations_in_dataset_masks(self, tmp_path, capsys):
        ann = tmp_path / "ann.json"
        ann.write_bytes(b'[{"image": "\xff"}]')
        out_dir = tmp_path / "masks"
        code, out, err = run_cli(["dataset-masks", str(ann), "--out", str(out_dir)], capsys)
        self.assert_names_once(code, out, err, ann)
        assert "codec can't decode" in err
        assert not out_dir.exists()

    def test_malformed_annotations_in_dataset_masks(self, tmp_path, capsys):
        ann = tmp_path / "ann.json"
        ann.write_text("{not json")
        code, out, err = run_cli(["dataset-masks", str(ann), "--out", str(tmp_path / "m")], capsys)
        self.assert_names_once(code, out, err, ann)
        assert err == (f"error: {ann}: Expecting property name enclosed in double quotes: "
                       "line 1 column 2 (char 1)\n")

    def test_non_utf8_scenario(self, tmp_path, capsys):
        scn = tmp_path / "bad.scn"
        scn.write_bytes(b"[seafloor]\nmap = \xff.pgm\n")
        code, out, err = run_cli(
            ["survey-run", "--scenario", str(scn), "--out", str(tmp_path / "r")], capsys)
        self.assert_names_once(code, out, err, scn)

    def test_scenario_map_error_names_both_files(self, tmp_path, capsys):
        (tmp_path / "cut.pgm").write_bytes(self.TRUNCATED_PGM)
        scn = tmp_path / "s.scn"
        scn.write_text("[seafloor]\nmap = cut.pgm\n[waypoints]\n1 1\n")
        code, _, err = run_cli(
            ["survey-run", "--scenario", str(scn), "--out", str(tmp_path / "r")], capsys)
        cut = tmp_path / "cut.pgm"
        assert code == 1
        assert err == f"error: {scn}: [seafloor] map: truncated PNM payload in {cut}\n"

    def test_scenario_not_found_lists_the_presets(self, capsys):
        code, _, err = run_cli(
            ["survey-run", "--scenario", "/no/such.scn", "--out", "/no/out"], capsys)
        assert code == 1
        assert err == (
            "error: scenario not found: /no/such.scn "
            "(no such file; presets: blocks, empty, five-patch, ring-meadow)\n"
        )

    @pytest.mark.parametrize("argv, message", [
        (["detect", "/no/f.ppm"], "image not found: /no/f.ppm"),
        (["dataset-split", "/no/l.txt"], "list file not found: /no/l.txt"),
        (["dataset-masks", "/no/a.json", "--out", "/no/m"], "annotations not found: /no/a.json"),
        (["dataset-augment", "/no/f.ppm", "--out", "/no/o"], "image not found: /no/f.ppm"),
    ])
    def test_missing_file(self, capsys, argv, message):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"
