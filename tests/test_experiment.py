from pathlib import Path

import numpy as np
import pytest

import refocus as r
from refocus.cli import main
from refocus.operators import BoundaryCondition as BC

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
                "gaussian:a:1", "gaussian:1:0"):
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


def test_config_errors(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("scene = sinusoids:8x8\npsf = identity\nscene = x\n")
    with pytest.raises(r.ConfigError):
        r.load_config(cfg)
    cfg.write_text("scene = sinusoids:8x8\npsf = identity\ntypo = 1\n")
    with pytest.raises(r.ConfigError):
        r.load_config(cfg)
    cfg.write_text("psf = identity\n")
    with pytest.raises(r.ConfigError):
        r.load_config(cfg)
    cfg.write_text("scene = sinusoids:8x8\npsf = identity\nbc = periodic\n")
    with pytest.raises(r.ConfigError):
        r.load_config(cfg)
    cfg.write_text("scene = sinusoids:8x8\npsf = identity\nmethod = magic\n")
    with pytest.raises(r.ConfigError):
        r.load_config(cfg)
    cfg.write_text("scene = sinusoids:8x8\npsf = identity\nrho = -1\n")
    with pytest.raises(r.ConfigError):
        r.load_config(cfg)
    cfg.write_text("scene = sinusoids:8x8\npsf = identity\nnot a pair\n")
    with pytest.raises(r.ConfigError):
        r.load_config(cfg)


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


def test_scene_too_small_rejected(tmp_path):
    config = r.load_config(
        None,
        overrides=[
            "scene=sinusoids:4x4",
            "psf=gaussian:2:1.5",
            f"out={tmp_path / 'x'}",
        ],
    )
    with pytest.raises(r.ConfigError):
        r.run_experiment(config)


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
    calls = dict.fromkeys(("eigen_grid_for", "assemble_dense_1d", "sort_spectrum"), 0)
    for name in calls:
        _count_calls(monkeypatch, calls, name)
    config = r.load_config(None, [
        "scene=sinusoids:14x14", "psf=gaussian:1:0.8", "bc=reflective,antireflective",
        "method=tsd,tsvd,tikhonov", "rho=0.001,0.01", f"out={tmp_path / 'x'}",
    ])
    r.run_experiment(config)
    operators = 2
    assert calls["eigen_grid_for"] == operators
    assert calls["assemble_dense_1d"] == 2 * operators  # one per axis of each svd plan
    assert calls["sort_spectrum"] <= 2 * operators  # one per basis


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


def test_cli_exit_codes(tmp_path, capsys):
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
    with pytest.raises(r.ConfigError):
        r.ExperimentConfig(
            scene="sinusoids:8x8", psf="identity", out=str(out), **{field: value}
        )
    overrides = ["scene=sinusoids:8x8", "psf=identity", f"out={out}", f"{field}={value}"]
    with pytest.raises(r.ConfigError):
        r.load_config(None, overrides)
    assert not out.exists()


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
