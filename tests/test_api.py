import refocus as r

# Every exported name stays importable from the package; removing or
# renaming one is an API break that this list makes visible.
EXPORTED = {
    "AsymmetricMaskError", "BlurOperator", "BoundaryCondition", "ColorMixing",
    "ConfigError", "EigenGrid", "ExperimentConfig", "FilterSpec", "FormatError",
    "InvalidParameterError", "NoiseSpec", "NotSeparableError", "PsfMask",
    "RampVector", "RestorationResult", "SingularMixingError", "SizeGuardError",
    "SizeMismatchError", "SupportConditionError", "SweepCurve", "Tikhonov",
    "TransformKind", "TruncateByCount", "TruncateByThreshold",
    "UnsupportedAlgebraError", "ZERO_SPECTRUM_TOL", "add_noise", "apply_blur",
    "apply_transform", "ar_apply", "ar_inverse_apply", "assemble_dense",
    "assemble_dense_1d", "blur_oversized_scene", "color_tikhonov",
    "color_truncated_sd", "color_truncated_svd", "condensed_masks",
    "cross_channel_blur", "dct3_apply", "default_mu_grid", "dense_transform",
    "dst1_apply", "eigen_from_first_column", "eigen_grid_ar", "eigen_grid_for",
    "eigen_grid_reflective", "eigen_grid_tau", "fov_crop", "gaussian_mask",
    "generating_function", "generating_function_1d", "identity_mask",
    "identity_mixing", "is_strongly_symmetric", "load_config", "load_mask",
    "low_frequency_scene", "low_frequency_scene_color", "mask_from_weights",
    "mu_sweep", "out_of_focus_mask", "pad", "parse_psf_spec", "picard_data",
    "ramp_vector", "read_config_file", "read_image", "read_matrix",
    "require_strong_symmetry", "rre", "rre_sweep", "run_experiment",
    "save_curve_csv", "save_eigen_csv", "save_mask", "save_picard_csv",
    "separable_factors", "snr_from_rho", "sort_spectrum", "spectral_analysis",
    "spectral_synthesis", "standard_normal_field", "svd_rre_sweep", "symmetrize",
    "synthesis_kind", "tau_eigenvalues", "tikhonov_restore", "truncated_sd_restore",
    "truncated_svd_restore", "two_level_apply", "write_image", "write_matrix",
}


def test_exported_names_are_pinned():
    assert set(r.__all__) == EXPORTED
    assert len(r.__all__) == len(EXPORTED)
    for name in EXPORTED:
        assert getattr(r, name) is not None


def test_star_import_binds_exactly_the_exported_names():
    namespace = {}
    exec("from refocus import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == EXPORTED
    assert r.__all__ == sorted(EXPORTED)
