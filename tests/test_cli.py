import argparse
import re
from pathlib import Path

import numpy as np
import pytest

from posidonia_inspect.cli import build_parser, main
from posidonia_inspect.imaging import Raster, equalize_histogram, gamma_correct, read_pnm, write_pnm
from posidonia_inspect.presets import empty_scenario
from posidonia_inspect.segmentation import LabelMask, write_mask
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


def test_readme_cli_block_lists_every_subcommand():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```")[1]
    documented = [line.split()[1] for line in block.splitlines() if line.startswith("posinspect ")]
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(documented) == sorted(sub.choices)


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

    @pytest.mark.parametrize("fractions, message", [
        ("0.7", "--fractions needs 2 values, got 1"),
        ("0.7,0.2,0.1", "--fractions needs 2 values, got 3"),
        ("a,b", "--fractions must be numeric, got 'a,b'"),
        ("nan,0.2", "train_fraction must be a finite number in [0, 1], got nan"),
        ("0.7,inf", "val_fraction must be a finite number in [0, 1], got inf"),
        ("-0.1,0.2", "train_fraction must be a finite number in [0, 1], got -0.1"),
        ("1.5,0", "train_fraction must be a finite number in [0, 1], got 1.5"),
        ("0.6,0.5", "train and val fractions must not exceed 1 combined"),
    ])
    def test_fractions_are_validated_before_any_output(self, tmp_path, capsys, fractions, message):
        listing = tmp_path / "list.txt"
        listing.write_text("a\nb\n")
        out_dir = tmp_path / "ds"
        code, out, err = run_cli(
            ["dataset-split", str(listing), f"--fractions={fractions}", "--out", str(out_dir)], capsys)
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not out_dir.exists()

    def test_blank_lines_are_not_items(self, tmp_path, capsys):
        listing = tmp_path / "list.txt"
        listing.write_text("\n  \n\t\n")
        out_dir = tmp_path / "ds"
        code, out, _ = run_cli(["dataset-split", str(listing), "--out", str(out_dir)], capsys)
        assert (code, out) == (0, "0 0 0\n")
        assert sorted(p.name for p in out_dir.iterdir()) == ["test.txt", "train.txt", "val.txt"]
        assert all(p.read_text() == "" for p in out_dir.iterdir())

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

    @pytest.mark.parametrize("name, channels", [("in.ppm", 3), ("in.pgm", 1)])
    def test_enhance_is_equalize_then_gamma(self, tmp_path, capsys, name, channels):
        src, out_path, want_path = tmp_path / name, tmp_path / "out", tmp_path / "want"
        write_pnm(Raster(np.random.default_rng(4).random((12, 12, channels))), src)
        code, _, _ = run_cli(["enhance", str(src), "--gamma", "1.5", "--out", str(out_path)], capsys)
        assert code == 0
        write_pnm(gamma_correct(equalize_histogram(read_pnm(src)), 1.5), want_path)
        assert out_path.read_bytes() == want_path.read_bytes()

    @pytest.mark.parametrize("gamma", ["0", "-0.5", "nan", "inf", "-inf"])
    def test_enhance_rejects_gamma_that_is_not_positive_and_finite(
            self, patch_frame, tmp_path, capsys, gamma):
        out_path = tmp_path / "x.ppm"
        code, out, err = run_cli(
            ["enhance", str(patch_frame), f"--gamma={gamma}", "--out", str(out_path)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: gamma must be a finite number > 0")
        assert not out_path.exists()

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

    def test_repeated_class_code_is_validation_error(self, tmp_path, capsys):
        gt, pred = tmp_path / "gt", tmp_path / "pred"
        gt.mkdir(), pred.mkdir()
        write_mask(LabelMask(np.array([[0, 1]], dtype=np.uint8)), gt / "a.pgm")
        write_mask(LabelMask(np.array([[1, 1]], dtype=np.uint8)), pred / "a.pgm")
        assert run_cli(["eval-iou", str(gt), str(pred), "--classes", "0,1"], capsys) == (
            0, "mean 0.250000\n", "")
        code, out, err = run_cli(["eval-iou", str(gt), str(pred), "--classes", "0,1,1"], capsys)
        assert (code, out) == (1, "")
        assert err == "error: --classes repeats class code 1\n"


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

    def test_non_utf8_list_in_dataset_split(self, tmp_path, capsys):
        listing = tmp_path / "list.txt"
        listing.write_bytes(b"a\n\xff\xfe\n")
        code, out, err = run_cli(["dataset-split", str(listing)], capsys)
        self.assert_names_once(code, out, err, listing)
        assert "codec can't decode" in err

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

    # every message of the shared PNM parser already names the file, and
    # read_pnm's maxval message does too, so none gets the path prefix
    @pytest.mark.parametrize("data, message", [
        (b"P3\n1 1\n255\n0 0 0\n", "unsupported PNM magic b'P3' in {}"),
        (b"P6\n4 4", "truncated PNM header in {}"),
        (b"P6\n4 x4\n255\n", "PNM header token b'x4' is not a decimal number in {}"),
        (b"P6\n1 1\n65535\n", "unsupported maxval 65535 in {}"),
        (b"P6\n0 0\n255\n", "PNM width and height must be positive, got 0x0 in {}"),
        (b"P6\n1 1\n100\n\x00\x00\x00", "only maxval 255 is supported, got 100 in {}"),
    ])
    def test_malformed_image_in_enhance(self, tmp_path, capsys, data, message):
        img = tmp_path / "bad.ppm"
        img.write_bytes(data)
        code, out, err = run_cli(["enhance", str(img), "--out", str(tmp_path / "o.ppm")], capsys)
        self.assert_names_once(code, out, err, img)
        assert err == f"error: {message.format(img)}\n"
        assert not (tmp_path / "o.ppm").exists()

    @pytest.mark.parametrize("data, message", [
        (b"P6\n1 1\n255\n\x00\x00\x00", "mask files are PGM (P5), got magic b'P6' in {}"),
        (b"P5\n2 1\n255\n\x01\x09", "mask {} holds codes above 3"),
        (b"P5\n0 1\n3\n", "PNM width and height must be positive, got 0x1 in {}"),
        (b"P5\n1 1\n256\n\x00", "unsupported maxval 256 in {}"),
    ])
    def test_malformed_mask_in_eval_iou(self, tmp_path, capsys, data, message):
        gt, pred = tmp_path / "gt", tmp_path / "pred"
        gt.mkdir(), pred.mkdir()
        (gt / "a.pgm").write_bytes(data)
        write_mask(LabelMask(np.zeros((1, 2), dtype=np.uint8)), pred / "a.pgm")
        code, out, err = run_cli(["eval-iou", str(gt), str(pred)], capsys)
        self.assert_names_once(code, out, err, gt / "a.pgm")
        assert err == f"error: {message.format(gt / 'a.pgm')}\n"

    @pytest.mark.parametrize("argv, message", [
        (["detect", "/no/f.ppm"], "image not found: /no/f.ppm"),
        (["dataset-split", "/no/l.txt"], "list file not found: /no/l.txt"),
    ])
    def test_missing_file(self, capsys, argv, message):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"
