import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

import refocus as r
from refocus import cli, filtering
from refocus.cli import main
from refocus.filtering import log_mu_grid
from refocus.operators import BoundaryCondition as BC

from test_filtering import _count_factor_svds
from test_sweep import _count_calls


def test_scene_values_and_shape():
    scene = r.low_frequency_scene((20, 30))
    assert scene.shape == (20, 30)
    assert scene.min() > 0.0 and scene.max() < 1.0
    color = r.low_frequency_scene_color((10, 12))
    assert color.shape == (3, 10, 12)
    assert color.min() > 0.0 and color.max() < 1.0
    # channels differ but share the slow structure
    assert not np.array_equal(color[0], color[1])


def test_parse_psf_spec_variants(tmp_path):
    assert r.parse_psf_spec("identity").weights.shape == (1, 1)
    g = r.parse_psf_spec("gaussian:1,2:0.8,1.7")
    assert g.half_support == (1, 2)
    d = r.parse_psf_spec("disk:2:1.5")
    assert d.half_support == (2, 2)
    path = tmp_path / "m.txt"
    r.save_mask(r.gaussian_mask((1, 1), 1.0), path)
    loaded = r.parse_psf_spec(f"file:{path}")
    assert loaded.half_support == (1, 1)


def test_parse_psf_spec_errors():
    for bad in ("identity:3", "gaussian:2", "disk:1", "blob:1:2", "file:",
                "gaussian:a:1", "gaussian:1:0", "gaussian:1,2,3:1", "gaussian:1:0.5,",
                "disk:1:x"):
        with pytest.raises(r.ConfigError):
            r.parse_psf_spec(bad)


def test_config_parsing_defaults_and_overrides(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# demo config\n"
        "scene = sinusoids:16x14\n"
        "psf = gaussian:1:0.8  # small blur\n"
        "rho = 0,0.01\n"
        "seed = 7\n"
    )
    config = r.load_config(cfg)
    assert config.bcs == (BC.REFLECTIVE, BC.ANTIREFLECTIVE)
    assert config.methods == ("tsd",)
    assert config.rhos == (0.0, 0.01)
    assert config.seed == 7
    config = r.load_config(cfg, overrides=["seed=9", "method=tsd,tikhonov"])
    assert config.seed == 9
    assert config.methods == ("tsd", "tikhonov")


_BASE_CFG = "scene = sinusoids:8x8\npsf = identity\n"


@pytest.mark.parametrize("text, overrides, fragment", [
    (_BASE_CFG + "scene = x\n", [], "duplicate key 'scene'"),
    (_BASE_CFG + "typo = 1\n", [], "unknown config keys: typo"),
    ("psf = identity\n", [], "missing required key 'scene'"),
    (_BASE_CFG + "bc = periodic\n", [], "bc must be a BoundaryCondition member.*periodic"),
    (_BASE_CFG + "bc = mirror\n", [], "bc must be one of reflective, antireflective"),
    (_BASE_CFG + "method = magic\n", [], "method 'magic'"),
    (_BASE_CFG + "rho = -1\n", [], "rho must be finite and >= 0, got -1"),
    (_BASE_CFG + "not a pair\n", [], "expected key=value, got 'not a pair'"),
    (_BASE_CFG, ["not a pair"], "override: expected key=value, got 'not a pair'"),
    (_BASE_CFG, ["bc=reflective,,antireflective"], "bc has an empty item"),
    (_BASE_CFG, ["rho="], "rho has an empty item"),
    (_BASE_CFG, ["mix=1,0,0"], "mix must hold 9 .* got '1,0,0'"),
    (_BASE_CFG, ["scene="], "scene must be set"),
    (_BASE_CFG, ["psf="], "psf must be set"),
], ids=["duplicate-key", "unknown-key", "missing-scene", "bc-periodic", "bc-unknown",
        "method-unknown", "rho-negative", "line-without-equals", "override-without-equals",
        "bc-empty-item", "rho-empty", "mix-not-9-entries", "scene-empty", "psf-empty"])
def test_config_errors(tmp_path, text, overrides, fragment):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text)
    with pytest.raises(r.ConfigError, match=fragment):
        r.load_config(cfg, overrides)


@pytest.mark.parametrize("field, value, fragment", [
    ("scene", "", "scene must be set"),
    ("psf", "", "psf must be set"),
    ("bcs", (), "bcs must be set"),
    ("methods", (), "methods must be set"),
    ("rhos", (), "rhos must be set"),
    # a rule's name is not a rule
    ("bcs", ("reflective",), "BoundaryCondition member, one of reflective, antireflective"),
], ids=["scene", "psf", "bcs", "methods", "rhos", "bc-name-not-member"])
def test_config_rejects_empty_fields_and_rule_names(field, value, fragment):
    kwargs = {"scene": "sinusoids:8x8", "psf": "identity", field: value}
    with pytest.raises(r.ConfigError, match=fragment):
        r.ExperimentConfig(**kwargs)


def test_config_rejects_non_numeric_rho(tmp_path):
    out = tmp_path / "never"
    for rho in ("x", None, 0.01j):
        with pytest.raises(r.ConfigError, match="rho"):
            r.ExperimentConfig(
                scene="sinusoids:8x8", psf="identity", rhos=(rho,), out=str(out)
            )
    assert not out.exists()
    config = r.ExperimentConfig(scene="s", psf="p", rhos=(np.float64(0.01), 0))
    assert config.rhos == (0.01, 0)


@pytest.mark.parametrize("scene, psf, fragment", [
    ("sinusoids:4x4", "gaussian:2:1.5", "scene too small"),
    ("sinusoids:8", "identity", "sinusoids:HxW"),
    ("sinusoids:8x8x8", "identity", "sinusoids:HxW"),
    ("sinusoids:8xa", "identity", "scene dimension must be an integer"),
], ids=["too-small", "one-side", "three-sides", "non-integer-side"])
def test_unusable_scene_rejected_before_output(tmp_path, scene, psf, fragment):
    out = tmp_path / "x"
    config = r.load_config(None, [f"scene={scene}", f"psf={psf}", f"out={out}"])
    with pytest.raises(r.ConfigError, match=fragment):
        r.run_experiment(config)
    assert not out.exists()


def test_gray_scene_with_mix_rejected(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "scene = scene.pgm\npsf = identity\n"
        "mix = 1,0,0,0,1,0,0,0,1\n"
    )
    r.write_image(tmp_path / "scene.pgm", r.low_frequency_scene((6, 6)))
    config = r.load_config(cfg, overrides=[f"scene={tmp_path / 'scene.pgm'}",
                                           f"out={tmp_path / 'x'}"])
    with pytest.raises(r.ConfigError):
        r.run_experiment(config)


@pytest.mark.parametrize("methods, code", [("tikhonov,tsd", 2), ("tikhonov", 0)])
def test_singular_mix_fails_truncation_before_output(tmp_path, capsys, methods, code):
    # truncation unmixes by M^-1; Tikhonov damps M^T M and takes a singular mix
    out = tmp_path / "x"
    sets = ["scene=sinusoids:16x16", "psf=gaussian:1:0.8", f"method={methods}",
            "bc=reflective", "rho=0.01", "mix=0.5,0.5,0,0.5,0.5,0,0,0,1"]
    assert main(["experiment", "--out", str(out)]
                + [arg for item in sets for arg in ("--set", item)]) == code
    if code:
        assert "mixing matrix is singular" in capsys.readouterr().err
        assert not out.exists()
    else:
        assert (out / "summary.csv").is_file()


@pytest.mark.parametrize("settings, error", [
    (["method=tsvd", "psf=disk:3:2.5"], r.NotSeparableError),
    # a 5^2 field of view: the operator takes the mask, the spectral support rule not
    (["bc=antireflective", "psf=gaussian:3:1.0", "scene=sinusoids:11x11"],
     r.SupportConditionError),
])
def test_unusable_basis_fails_before_output(tmp_path, settings, error):
    out = tmp_path / "x"
    config = r.load_config(None, ["scene=sinusoids:16x16", *settings, f"out={out}"])
    with pytest.raises(error):
        r.run_experiment(config)
    assert not out.exists()


def test_run_experiment_builds_each_basis_once(tmp_path, monkeypatch):
    # gaussian:1:0.8 has bitwise equal factors, so the square field of view
    # has one distinct factor and the 14 x 12 one two; the reflective tsvd
    # plan reads its singular values off the cosine spectrum, with no SVD
    for scene, distinct in (("sinusoids:14x14", 1), ("sinusoids:14x12", 2)):
        calls = dict.fromkeys(("eigen_grid_for", "assemble_dense_1d", "sort_spectrum"), 0)
        for name in calls:
            _count_calls(monkeypatch, calls, name)
        svds = _count_factor_svds(monkeypatch)
        config = r.load_config(None, [
            f"scene={scene}", "psf=gaussian:1:0.8", "bc=reflective,antireflective",
            "method=tsd,tsvd,tikhonov", "rho=0.001,0.01", f"out={tmp_path / scene}",
        ])
        r.run_experiment(config)
        monkeypatch.undo()
        operators = 2
        assert calls["eigen_grid_for"] == operators
        assert len(svds) == calls["assemble_dense_1d"] == distinct
        assert calls["sort_spectrum"] <= 2 * operators  # one per basis


def test_run_experiment_shares_one_plan_per_rule_and_basis(tmp_path, monkeypatch):
    built = []
    init = filtering._Plan.__init__
    monkeypatch.setattr(filtering._Plan, "__init__",
                        lambda plan, op, basis: built.append(basis) or init(plan, op, basis))
    config = r.load_config(None, [
        "scene=sinusoids:14x14", "psf=gaussian:1:0.8", "bc=reflective,antireflective",
        "method=tsd,tsvd,tikhonov", "rho=0.001,0.01", f"out={tmp_path / 'x'}",
    ])
    r.run_experiment(config)
    # the Picard data, tsd and tikhonov share the eigen plan of each rule
    assert sorted(built) == ["eigen", "eigen", "svd", "svd"]


def test_run_experiment_gray(tmp_path):
    out = tmp_path / "results"
    config = r.load_config(
        None,
        overrides=[
            "scene=sinusoids:16x14",
            "psf=gaussian:1:0.8",
            "method=tsd,tikhonov",
            "rho=0,0.01",
            "seed=1",
            "max_terms=100",
            f"out={out}",
        ],
    )
    result = r.run_experiment(config)
    assert result == out
    summary = (out / "summary.csv").read_text().strip().splitlines()
    assert summary[0] == "bc,method,rho,optimum_param,rre"
    assert len(summary) == 1 + 2 * 2 * 2
    for sub in ("reflective_tsd_rho0", "antireflective_tikhonov_rho0.01"):
        assert (out / sub / "curve.csv").is_file()
        assert (out / sub / "picard.csv").is_file()
        assert (out / sub / "restored.pgm").is_file()
    # tikhonov rows carry float parameters, truncation rows integers
    for line in summary[1:]:
        bc, method, rho, param, err = line.split(",")
        assert bc in ("reflective", "antireflective")
        float(rho), float(err)
        if method == "tikhonov":
            assert "e" in param
        else:
            int(param)


def test_run_experiment_rerun_is_byte_identical(tmp_path):
    base = [
        "scene=sinusoids:14x14",
        "psf=gaussian:1:0.7",
        "method=tsd",
        "rho=0.01",
        "seed=3",
        "max_terms=60",
    ]
    out1 = tmp_path / "one"
    out2 = tmp_path / "two"
    r.run_experiment(r.load_config(None, base + [f"out={out1}"]))
    r.run_experiment(r.load_config(None, base + [f"out={out2}"]))
    files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
    assert files1 == files2 and files1
    for rel in files1:
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes()


def test_run_experiment_color(tmp_path):
    out = tmp_path / "color"
    config = r.load_config(
        None,
        overrides=[
            "scene=sinusoids:12x12",
            "psf=gaussian:1:0.7",
            "method=tsd,tsvd,tikhonov",
            "rho=0.01",
            "seed=2",
            "mix=0.8,0.1,0.1,0.1,0.8,0.1,0.1,0.1,0.8",
            "max_terms=50",
            f"out={out}",
        ],
    )
    r.run_experiment(config)
    assert (out / "reflective_tsvd_rho0.01" / "restored.ppm").is_file()
    summary = (out / "summary.csv").read_text().strip().splitlines()
    assert len(summary) == 1 + 2 * 3


_MIX = "0.8,0.1,0.1,0.1,0.8,0.1,0.1,0.1,0.8"


@pytest.mark.parametrize("mix", [None, _MIX], ids=["gray", "color"])
def test_run_experiment_analyzes_each_case_once(tmp_path, monkeypatch, mix):
    # per (rho, rule): one analysis for the Picard data, then per method one of
    # the data and one of the reference; the restore reuses the sweep's state
    calls = {"spectral_analysis": 0}
    _count_calls(monkeypatch, calls, "spectral_analysis")
    overrides = ["scene=sinusoids:20x20", "psf=gaussian:1:0.8", "bc=reflective,antireflective",
                 "method=tsd,tikhonov", "rho=0.001,0.01", f"out={tmp_path}"]
    r.run_experiment(r.load_config(None, overrides + ([f"mix={mix}"] if mix else [])))
    rhos, rules, methods = 2, 2, 2
    assert calls["spectral_analysis"] == rhos * rules * (1 + 2 * methods) == 20


@pytest.mark.parametrize("mix", [None, _MIX], ids=["gray", "color"])
def test_run_experiment_restored_image_is_the_public_restore_at_the_optimum(tmp_path, mix):
    out = tmp_path / "run"
    overrides = ["scene=sinusoids:18x16", "psf=gaussian:1:0.8", "bc=reflective,antireflective",
                 "method=tsd,tsvd,tikhonov", "rho=0.01", "seed=5", f"out={out}"]
    config = r.load_config(None, overrides + ([f"mix={mix}"] if mix else []))
    r.run_experiment(config)
    # the noisy data, rebuilt through the public API as the runner builds it
    mask = r.parse_psf_spec(config.psf)
    scene = (r.low_frequency_scene_color if mix else r.low_frequency_scene)((18, 16))
    f_true = r.fov_crop(scene, mask.half_support)
    g = r.blur_oversized_scene(scene, mask)
    if mix:
        g = np.tensordot(config.mix.matrix, g, axes=1)
    noisy, _snr = r.add_noise(g, r.NoiseSpec(0.01, 5))
    mus = {f"{mu:.6e}": mu for mu in config.mu_grid()}
    assert len(mus) == config.mu_count
    rows = (out / "summary.csv").read_text().splitlines()[1:]
    assert len(rows) == 2 * 3
    for row in rows:
        bc, method, _rho, optimum, _rre = row.split(",")
        op = r.BlurOperator(mask, r.BoundaryCondition(bc), f_true.shape[-2:])
        # the summary prints a mu to 7 digits: take the grid value it names
        spec = (r.Tikhonov(mus[optimum]) if method == "tikhonov"
                else r.TruncateByCount(int(optimum)))
        name = "restored.ppm" if mix else "restored.pgm"
        expected = tmp_path / f"{bc}_{method}.{name}"
        r.write_image(expected, filtering.restore(noisy, op, method, spec, config.mix).image,
                      config.maxval)
        restored = out / f"{bc}_{method}_rho0.01" / name
        assert restored.read_bytes() == expected.read_bytes(), row


def test_cli_blur_restore_sweep(tmp_path):
    truth = tmp_path / "truth.txt"
    blurred = tmp_path / "blurred.txt"
    restored = tmp_path / "restored.txt"
    curve = tmp_path / "curve.csv"
    r.write_matrix(truth, r.low_frequency_scene((16, 15)))
    assert main([
        "blur", "--image", str(truth), "--psf", "gaussian:1:0.9",
        "--bc", "antireflective", "--out", str(blurred),
    ]) == 0
    assert main([
        "restore", "--image", str(blurred), "--psf", "gaussian:1:0.9",
        "--bc", "antireflective", "--method", "tikhonov",
        "--mu", "1e-6", "--out", str(restored),
    ]) == 0
    est = r.read_matrix(restored)
    assert r.rre(est, r.read_matrix(truth)) <= 1e-3
    assert main([
        "sweep", "--image", str(blurred), "--reference", str(truth),
        "--psf", "gaussian:1:0.9", "--bc", "antireflective",
        "--method", "tsd", "--out", str(curve), "--max-terms", "50",
    ]) == 0
    assert curve.read_text().startswith("param,rre\n")


def test_cli_tikhonov_sweep_takes_the_mu_flags(tmp_path, capsys):
    truth = tmp_path / "truth.txt"
    blurred = tmp_path / "blurred.txt"
    curve = tmp_path / "curve.csv"
    expected = tmp_path / "expected.csv"
    f = r.low_frequency_scene((12, 11))
    op = r.BlurOperator(r.gaussian_mask((1, 1), 0.9), BC.REFLECTIVE, f.shape)
    g = r.apply_blur(op, f)
    r.write_matrix(truth, f)
    r.write_matrix(blurred, g)
    assert main([
        "sweep", "--image", str(blurred), "--reference", str(truth),
        "--psf", "gaussian:1:0.9", "--bc", "reflective", "--method", "tikhonov",
        "--mu-lo", "1e-5", "--mu-hi", "0.5", "--mu-count", "7", "--out", str(curve),
    ]) == 0
    r.save_curve_csv(r.mu_sweep(g, op, f, log_mu_grid(1e-5, 0.5, 7)), expected)
    assert curve.read_bytes() == expected.read_bytes()
    capsys.readouterr()
    # a bad range is named by the key that holds the bad value
    for flag, value in (("--mu-lo", "0"), ("--mu-hi", "1e-9"), ("--mu-count", "0")):
        assert main([
            "sweep", "--image", str(blurred), "--reference", str(truth),
            "--psf", "gaussian:1:0.9", "--bc", "reflective", "--method", "tikhonov",
            flag, value, "--out", str(tmp_path / "never.csv"),
        ]) == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
    assert not (tmp_path / "never.csv").exists()


@pytest.mark.parametrize("flag, value", [("--mu-count", "0"), ("--mu-lo", "0")])
def test_cli_truncation_sweep_checks_the_mu_flags(tmp_path, capsys, flag, value):
    truth = tmp_path / "truth.txt"
    curve = tmp_path / "curve.csv"
    r.write_matrix(truth, r.low_frequency_scene((8, 8)))
    assert main([
        "sweep", "--image", str(truth), "--reference", str(truth),
        "--psf", "gaussian:1:0.9", "--bc", "reflective",
        "--method", "tsd", "--out", str(curve), flag, value,
    ]) == 2
    assert flag[2:].replace("-", "_") in capsys.readouterr().err
    assert not curve.exists()


def test_cli_sweep_rejects_bad_max_terms(tmp_path, capsys):
    truth = tmp_path / "truth.txt"
    curve = tmp_path / "curve.csv"
    r.write_matrix(truth, r.low_frequency_scene((8, 8)))
    for bad in ("0", "-3"):
        code = main([
            "sweep", "--image", str(truth), "--reference", str(truth),
            "--psf", "gaussian:1:0.9", "--bc", "reflective",
            "--method", "tsd", "--out", str(curve), "--max-terms", bad,
        ])
        assert code == 2
        assert not curve.exists()
    assert "max_terms" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--rho", "-0.5"], ["--rho", "nan"], ["--rho", "inf"], ["--psf", "gaussian:1:inf"],
    ["--psf", "disk:1:inf"], ["--psf", "gaussian:1.5:1"],
])
def test_cli_blur_rejects_bad_levels_and_widths(tmp_path, capsys, flags):
    truth = tmp_path / "truth.txt"
    blurred = tmp_path / "blurred.txt"
    r.write_matrix(truth, r.low_frequency_scene((8, 8)))
    argv = ["blur", "--image", str(truth), "--psf", "gaussian:1:0.9",
            "--bc", "reflective", "--out", str(blurred)]
    code = main(argv + flags)
    assert code == 2
    assert not blurred.exists()
    capsys.readouterr()


def test_cli_blur_matches_api(tmp_path):
    truth = tmp_path / "truth.txt"
    blurred = tmp_path / "blurred.txt"
    f = r.low_frequency_scene((10, 9))
    r.write_matrix(truth, f)
    main([
        "blur", "--image", str(truth), "--psf", "disk:1:1.0",
        "--bc", "reflective", "--out", str(blurred),
    ])
    op = r.BlurOperator(r.out_of_focus_mask((1, 1), 1.0), BC.REFLECTIVE, (10, 9))
    assert np.array_equal(r.read_matrix(blurred), r.apply_blur(op, f))


def test_cli_noisy_color_blur_working_set(tmp_path, capsys):
    # input, blurred image and write buffer: no image-sized temporary beyond those
    side = 384
    src, out = tmp_path / "scene.ppm", tmp_path / "blurred.ppm"
    r.write_image(src, r.low_frequency_scene_color((side, side)), 65535)
    argv = ["blur", "--image", str(src), "--psf", "gaussian:3:1.5",
            "--bc", "reflective", "--rho", "0.01", "--seed", "4",
            "--mix", "0.7,0.2,0.1,0.15,0.7,0.15,0.1,0.2,0.7",
            "--maxval", "65535", "--out", str(out)]
    assert main(argv) == 0  # warm-up: first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    image_bytes = 3 * side * side * 8
    assert peak <= 4 * image_bytes, f"peak {peak / image_bytes:.2f} image sizes"


# Peak bounds, in image sizes, of a restore verb at 384^2 from a 16-bit file: between the
# largest peak of the verb that frees the analysis output and the input before the write
# (gray 4.17 / 4.55, color 3.39 / 3.68) and the smallest of one that holds them (gray
# 5.04 / 5.05, color 4.39 / 4.67), reflective / anti-reflective, measured on two CPUs.
_RESTORE_PEAKS = {(False, "reflective"): 4.6, (False, "antireflective"): 4.8,
                  (True, "reflective"): 3.9, (True, "antireflective"): 4.2}


@pytest.mark.parametrize("setting", [["--method", "tsd", "--count", "5000"],
                                     ["--method", "tsd", "--threshold", "0.05"],
                                     ["--method", "tikhonov", "--mu", "1e-3"]],
                         ids=["tsd-count", "tsd-threshold", "tikhonov"])
@pytest.mark.parametrize("bc", ["reflective", "antireflective"])
@pytest.mark.parametrize("color", [False, True], ids=["gray", "color"])
def test_cli_restore_working_set(tmp_path, capsys, monkeypatch, color, bc, setting):
    # input, spectrum, filtered coefficients and the synthesis output at the peak
    side = 384
    # the transforms' line buffers are per thread: two, as on the host of the bounds
    monkeypatch.setattr(cli, "_cpus", lambda: 2)
    if color:
        src, scene = tmp_path / "scene.ppm", r.low_frequency_scene_color((side, side))
    else:
        src, scene = tmp_path / "scene.pgm", r.low_frequency_scene((side, side))
    r.write_image(src, scene, 65535)
    argv = ["restore", "--image", str(src), "--psf", "gaussian:3:1.5", "--bc", bc,
            "--maxval", "65535", "--out", str(tmp_path / f"out{src.suffix}")] + setting
    if color:
        argv += ["--mix", "0.7,0.2,0.1,0.15,0.7,0.15,0.1,0.2,0.7"]
    assert main(argv) == 0  # warm-up: first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    image_bytes = scene.size * 8
    bound = _RESTORE_PEAKS[color, bc]
    assert peak <= bound * image_bytes, f"peak {peak / image_bytes:.2f} image sizes"


def test_cli_blur_scans_its_input_for_nan_once(tmp_path, capsys, monkeypatch):
    common = ["--psf", "disk:1:1.0", "--bc", "reflective", "--rho", "0.01"]
    bad, out = tmp_path / "bad.txt", tmp_path / "bad_out.txt"
    bad.write_text("0.5 0.5 0.5\n0.5 nan 0.5\n0.5 0.5 0.5\n")
    assert main(["blur", "--image", str(bad), "--out", str(out)] + common) == 2
    assert "NaN" in capsys.readouterr().err
    assert not out.exists()
    isfinite = np.isfinite
    mix = ["--mix", "0.7,0.2,0.1,0.15,0.7,0.15,0.1,0.2,0.7"]
    for name, scene, extra in (("gray.pgm", r.low_frequency_scene((12, 10)), []),
                               ("color.ppm", r.low_frequency_scene_color((12, 10)), mix)):
        src = tmp_path / name
        r.write_image(src, scene, 255)
        image = r.read_image(src)  # the values the verb reads
        scans = []

        def spy(x, *args, **kwargs):
            same = isinstance(x, np.ndarray) and x.size == image.size
            scans.append(same and x.tobytes() == image.tobytes())
            return isfinite(x, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", spy)
        argv = ["blur", "--image", str(src), "--out", str(tmp_path / f"out_{name}")]
        assert main(argv + common + extra) == 0
        monkeypatch.setattr(np, "isfinite", isfinite)
        assert scans.count(True) == 1, name
    capsys.readouterr()


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    truth = tmp_path / "truth.txt"
    r.write_matrix(truth, r.low_frequency_scene((8, 8)))
    # conflicting filter parameters
    code = main([
        "restore", "--image", str(truth), "--psf", "identity",
        "--bc", "reflective", "--method", "tsd",
        "--count", "3", "--mu", "0.1", "--out", str(tmp_path / "o.txt"),
    ])
    assert code == 2
    # missing input file
    code = main([
        "blur", "--image", str(tmp_path / "nope.pgm"), "--psf", "identity",
        "--bc", "zero", "--out", str(tmp_path / "o.pgm"),
    ])
    assert code == 2
    # bad psf spec
    code = main([
        "blur", "--image", str(truth), "--psf", "wobble:3",
        "--bc", "zero", "--out", str(tmp_path / "o.txt"),
    ])
    assert code == 2
    capsys.readouterr()
    # a numeric failure inside the filter: the anti-reflective tsvd plan
    # decomposes its factors by LAPACK (the reflective one needs no SVD)
    def failing_svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    code = main([
        "restore", "--image", str(truth), "--psf", "gaussian:1:0.9",
        "--bc", "antireflective", "--method", "tsvd", "--count", "3",
        "--out", str(tmp_path / "o.txt"),
    ])
    assert code == 3
    assert "numeric failure" in capsys.readouterr().err
    assert not (tmp_path / "o.txt").exists()


def test_cli_verbs_run_with_one_worker_per_cpu(tmp_path, monkeypatch):
    # a verb sees one scipy.fft worker per CPU of the process's affinity,
    # or of os.cpu_count where the platform has no affinity call; main
    # hands the caller's worker count back
    truth = tmp_path / "truth.txt"
    r.write_matrix(truth, r.low_frequency_scene((8, 8)))
    seen = []
    monkeypatch.setattr(cli, "write_by_suffix",
                        lambda path, image, maxval: seen.append(scipy.fft.get_workers()))
    argv = ["blur", "--image", str(truth), "--psf", "identity", "--bc", "zero",
            "--out", str(tmp_path / "o.txt")]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    with scipy.fft.set_workers(2):
        assert main(argv) == 0
        assert scipy.fft.get_workers() == 2
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert main(argv) == 0
    assert seen == [3, 4]
    assert scipy.fft.get_workers() == 1


@pytest.mark.parametrize("image", ["truth.txt", "missing.txt"])
@pytest.mark.parametrize("settings", [
    ["--count", "3", "--mu", "0.1"], ["--threshold", "0.1", "--count", "3"], [],
], ids=["count-and-mu", "threshold-and-count", "none"])
def test_cli_restore_takes_exactly_one_setting(tmp_path, capsys, settings, image):
    r.write_matrix(tmp_path / "truth.txt", r.low_frequency_scene((8, 8)))
    out = tmp_path / "o.txt"
    code = main(["restore", "--image", str(tmp_path / image), "--psf", "identity",
                 "--bc", "reflective", "--method", "tsd", "--out", str(out)] + settings)
    err = capsys.readouterr().err
    assert code == 2
    # argparse names the flags before any file is read
    flags = [arg for arg in settings if arg.startswith("--")] or ["--count", "--threshold", "--mu"]
    assert all(flag in err for flag in flags) and "missing.txt" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [[], ["restore"]], ids=["no-verb", "restore-bare"])
def test_cli_usage_errors_return_2(capsys, argv):
    assert main(argv) == 2
    assert "usage: refocus" in capsys.readouterr().err


def test_config_file_must_be_utf8(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_bytes(b"scene = sinusoids:8x8\npsf = identity # caf\xe9\n")
    with pytest.raises(r.ConfigError, match="exp.cfg:2: byte 0xe9 is not UTF-8"):
        r.load_config(cfg)
    out = tmp_path / "x"
    assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 2
    assert "exp.cfg:2: byte 0xe9" in capsys.readouterr().err
    assert not out.exists()


def test_cli_experiment(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "scene = sinusoids:12x12\npsf = gaussian:1:0.7\n"
        "method = tsd\nrho = 0.01\nseed = 4\nmax_terms = 40\n"
    )
    out = tmp_path / "res"
    code = main([
        "experiment", "--config", str(cfg), "--out", str(out),
        "--set", "rho=0.02",
    ])
    assert code == 0
    summary = (out / "summary.csv").read_text()
    assert "2.000000e-02" in summary


def test_config_accepts_integer_like_seeds():
    config = r.ExperimentConfig(scene="sinusoids:8x8", psf="identity", seed=np.int64(3))
    assert config.seed == 3 and type(config.seed) is int
    with pytest.raises(r.ConfigError):
        r.ExperimentConfig(scene="sinusoids:8x8", psf="identity", seed=3.0)


def test_cli_rejects_non_finite_matrix(tmp_path, capsys):
    image = tmp_path / "nan.txt"
    image.write_text("0.5 0.5 0.5\n0.5 nan 0.5\n0.5 0.5 0.5\n")
    code = main([
        "restore", "--image", str(image), "--psf", "identity",
        "--bc", "reflective", "--method", "tikhonov", "--mu", "0.1",
        "--out", str(tmp_path / "o.txt"),
    ])
    assert code == 2
    assert not (tmp_path / "o.txt").exists()
    capsys.readouterr()


def test_cli_rejects_non_finite_mix(tmp_path, capsys):
    image = tmp_path / "img.ppm"
    r.write_image(image, r.low_frequency_scene_color((8, 8)))
    common = ["--image", str(image), "--psf", "gaussian:1:0.8", "--bc", "reflective",
              "--mix", "nan,0.5,0.5,0,1,0,0,0,1", "--out", str(tmp_path / "o.ppm")]
    for argv in (["blur"], ["restore", "--method", "tsd", "--count", "10"],
                 ["restore", "--method", "tikhonov", "--mu", "1e-3"]):
        assert main(argv + common) == 2
        assert "mixing matrix entries must be finite" in capsys.readouterr().err
    assert not (tmp_path / "o.ppm").exists()


@pytest.mark.parametrize(
    "field, value",
    [("max_terms", 2.5), ("max_terms", 0), ("mu_count", 2.5), ("mu_count", 0),
     ("mu_hi", np.inf), ("mu_lo", 0.0), ("mu_lo", 2.0), ("mu_lo", "x")],
)
def test_config_rejects_bad_sweep_settings_before_running(tmp_path, field, value):
    out = tmp_path / "never"
    with pytest.raises(r.ConfigError) as direct:
        r.ExperimentConfig(
            scene="sinusoids:8x8", psf="identity", out=str(out), **{field: value}
        )
    overrides = ["scene=sinusoids:8x8", "psf=identity", f"out={out}", f"{field}={value}"]
    with pytest.raises(r.ConfigError) as parsed:
        r.load_config(None, overrides)
    assert not out.exists()
    # every message names the key and the value it rejects
    for exc in (direct, parsed):
        assert field in str(exc.value) and str(value) in str(exc.value)


def test_config_stores_integer_like_sweep_settings():
    config = r.ExperimentConfig(
        scene="sinusoids:8x8", psf="identity", max_terms=np.int64(7), mu_count=np.int64(5)
    )
    assert (config.max_terms, config.mu_count) == (7, 5)
    assert type(config.max_terms) is int and type(config.mu_count) is int
    assert np.array_equal(r.ExperimentConfig("s", "p").mu_grid(), r.default_mu_grid())


def test_readme_config_block_loads(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Experiment configs", 1)[1]
    block = section.split("```", 2)[1]
    cfg = tmp_path / "readme.cfg"
    cfg.write_text(block)
    config = r.load_config(cfg)
    assert config.scene == "sinusoids:64x64" and config.psf == "gaussian:7:2"
    assert config.bcs == (BC.REFLECTIVE, BC.ANTIREFLECTIVE)
    assert config.rhos == (0.001, 0.01, 0.1) and config.seed == 42
    assert config.mix is None and config.max_terms is None
    assert np.array_equal(config.mu_grid(), r.default_mu_grid())


def test_cli_file_type_and_gray_mix_errors(tmp_path, capsys):
    truth = tmp_path / "truth.txt"
    r.write_matrix(truth, r.low_frequency_scene((8, 8)))
    common = ["--psf", "identity", "--bc", "reflective"]
    bad_suffix = ["blur", "--image", str(truth), *common, "--out", str(tmp_path / "o.png")]
    gray_mix = ["blur", "--image", str(truth), *common, "--out", str(tmp_path / "o.txt"),
                "--mix", "1,0,0,0,1,0,0,0,1"]
    for argv in (bad_suffix, gray_mix):
        assert main(argv) == 2
    assert not (tmp_path / "o.png").exists() and not (tmp_path / "o.txt").exists()
    err = capsys.readouterr().err
    assert "'.png'" in err and "grayscale" in err


def test_cli_refuses_an_output_it_cannot_write_before_any_work(tmp_path, capsys, monkeypatch):
    # blur and restore check --out first: a suffix no writer takes exits 2
    # before the image is read, and color data bound for a .txt matrix
    # exits 2 before the filter runs, each naming the output path
    truth, color = tmp_path / "truth.txt", tmp_path / "color.ppm"
    r.write_matrix(truth, r.low_frequency_scene((16, 16)))
    r.write_image(color, r.low_frequency_scene_color((16, 16)), 255)
    ran = []
    for name in ("read_by_suffix", "cross_channel_blur", "restore"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args, _name=name, _real=real:
                            ran.append(_name) or _real(*args))
    common = ["--psf", "gaussian:1:0.9", "--bc", "reflective"]
    setting = ["--method", "tsd", "--count", "3"]
    for image, out, want, read in (
        (truth, "o.png", "unsupported file type '.png'", []),
        (color, "o.txt", "cannot write color data", ["read_by_suffix"]),
    ):
        for verb in (["blur"], ["restore"] + setting):
            ran.clear()
            argv = verb + ["--image", str(image), "--out", str(tmp_path / out)] + common
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert want in err and str(tmp_path / out) in err
            assert ran == read, (verb, out)
            assert not (tmp_path / out).exists()


def test_cli_refuses_a_missing_output_directory_before_reading(tmp_path, capsys, monkeypatch):
    # blur, restore and sweep check that --out names an existing directory
    # before the image is read, so a mistyped directory costs no work
    truth = tmp_path / "truth.txt"
    r.write_matrix(truth, r.low_frequency_scene((16, 16)))
    read, real = [], cli.read_by_suffix
    monkeypatch.setattr(cli, "read_by_suffix", lambda path: read.append(path) or real(path))
    common = ["--image", str(truth), "--psf", "gaussian:1:0.9", "--bc", "reflective"]
    for verb, out in (
        (["blur"], "o.txt"),
        (["restore", "--method", "tsd", "--count", "3"], "o.txt"),
        (["sweep", "--method", "tsd", "--reference", str(truth)], "o.csv"),
    ):
        path = tmp_path / "nodir" / out
        assert main(verb + common + ["--out", str(path)]) == 2
        assert str(path) in capsys.readouterr().err
        assert read == [], verb
    assert [p.name for p in tmp_path.iterdir()] == ["truth.txt"]


def test_cli_refuses_an_output_directory_before_any_work(tmp_path, capsys, monkeypatch):
    # an --out that names an existing directory exits 2 with a refocus
    # message before the image is read, so no blur, filter or sweep runs
    truth = tmp_path / "truth.txt"
    r.write_matrix(truth, r.low_frequency_scene((16, 16)))
    ran = []
    for name in ("read_by_suffix", "cross_channel_blur", "restore", "sweep"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args, _name=name, _real=real:
                            ran.append(_name) or _real(*args))
    common = ["--image", str(truth), "--psf", "gaussian:1:0.9", "--bc", "reflective"]
    for verb, out in (
        (["blur"], "blur.txt"),
        (["restore", "--method", "tsd", "--count", "3"], "restore.txt"),
        (["sweep", "--method", "tsd", "--reference", str(truth)], "sweep.csv"),
        (["sweep", "--method", "tsd", "--reference", str(truth)], "outdir/"),
    ):
        (tmp_path / out).mkdir()
        arg = f"{tmp_path}{os.sep}{out}"
        assert main(verb + common + ["--out", arg]) == 2
        assert f"error: the output file {arg} is a directory" in capsys.readouterr().err
        assert ran == [], verb
        assert list((tmp_path / out).iterdir()) == []


@pytest.mark.parametrize(
    "setting",
    ["method=tsd,tsd", "bc=reflective,reflective", "rho=0.01,0.010000001",
     "rho=0.02,0.01,0.02", "rho=0.012345649999,0.01234565000001"],
)
def test_config_rejects_cases_sharing_an_output_name(tmp_path, setting):
    out = tmp_path / "res"
    overrides = ["scene=sinusoids:8x8", "psf=identity", f"out={out}", setting]
    with pytest.raises(r.ConfigError, match="repeats an output name"):
        r.load_config(overrides=overrides)
    assert main(["experiment", "--out", str(out)] + [
        arg for item in overrides for arg in ("--set", item)
    ]) == 2
    assert not out.exists()
    config = r.load_config(overrides=overrides[:3] + ["rho=0.01,0.0100001"])
    assert [f"{rho:g}" for rho in config.rhos] == ["0.01", "0.0100001"]
