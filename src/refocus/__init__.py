"""Matrix-free image deblurring with boundary-aware spectral filters."""

from types import ModuleType as _ModuleType

from .color import (
    ColorMixing,
    color_tikhonov,
    color_truncated_sd,
    color_truncated_svd,
    cross_channel_blur,
    identity_mixing,
)
from .errors import (
    AsymmetricMaskError,
    ConfigError,
    FormatError,
    InvalidParameterError,
    NotSeparableError,
    SingularMixingError,
    SizeGuardError,
    SizeMismatchError,
    SupportConditionError,
    UnsupportedAlgebraError,
)
from .experiment import (
    ExperimentConfig,
    load_config,
    low_frequency_scene,
    low_frequency_scene_color,
    parse_psf_spec,
    read_config_file,
    run_experiment,
)
from .filtering import (
    FilterSpec,
    RestorationResult,
    SweepCurve,
    Tikhonov,
    TruncateByCount,
    TruncateByThreshold,
    ZERO_SPECTRUM_TOL,
    default_mu_grid,
    mu_sweep,
    rre_sweep,
    save_curve_csv,
    svd_rre_sweep,
    tikhonov_restore,
    truncated_sd_restore,
    truncated_svd_restore,
)
from .imageio import read_image, read_matrix, write_image, write_matrix
from .metrics import (
    NoiseSpec,
    add_noise,
    picard_data,
    rre,
    save_picard_csv,
    snr_from_rho,
    standard_normal_field,
)
from .operators import (
    BlurOperator,
    BoundaryCondition,
    apply_blur,
    assemble_dense,
    assemble_dense_1d,
    blur_oversized_scene,
    fov_crop,
    pad,
)
from .psf import (
    PsfMask,
    condensed_masks,
    gaussian_mask,
    generating_function,
    generating_function_1d,
    identity_mask,
    is_strongly_symmetric,
    load_mask,
    mask_from_weights,
    out_of_focus_mask,
    require_strong_symmetry,
    save_mask,
    separable_factors,
    symmetrize,
)
from .spectrum import (
    EigenGrid,
    eigen_from_first_column,
    eigen_grid_ar,
    eigen_grid_for,
    eigen_grid_reflective,
    eigen_grid_tau,
    save_eigen_csv,
    sort_spectrum,
    spectral_analysis,
    spectral_synthesis,
    synthesis_kind,
    tau_eigenvalues,
)
from .transforms import (
    RampVector,
    TransformKind,
    apply_transform,
    ar_apply,
    ar_inverse_apply,
    dct3_apply,
    dense_transform,
    dst1_apply,
    ramp_vector,
    two_level_apply,
)

__version__ = "0.1.0"

# The import block above is the one list of public names: __all__ is every
# name bound here that does not start with "_" and is not a submodule, in
# sorted order. tests/test_api.py pins the result.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
