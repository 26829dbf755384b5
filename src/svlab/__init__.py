"""svlab: simulators and admissibility checks for stochastic systems whose
drift convolves the path's past against a signed kernel measure.

Four layers:

* `core` - grids, the signal sampler, signed matrix measures and their grid
  compilation, kernel sequences, scalar noise laws, seeding and run
  manifests;
* `discrete` / `continuous` - the summation-equation and integrodifferential
  simulators, resolvents, delay systems and gap diagnostics;
* `conditions` / `evidence` - rolling-window integrability checks and the
  three-valued tail verdicts they share;
* `corpus` / `cli` - named test signals and the batch experiment driver.
"""
from .core import (ARTIFACT_VERSION, DEFAULT_NORM, CompiledMeasure,
                   DensitySample, FiniteDiscreteLaw, GaussianLaw,
                   GeometricTail, GridError, GridSpec, HistoryUnderflow,
                   MatrixKernelSeq, MeasureError, NoiseSpec, RunManifest,
                   SignedMeasureRepr, UniformLaw,
                   canonical_json, config_digest, constant_law,
                   is_neg_identity_point_mass, neg_identity_point_mass,
                   point_mass, rng_stream, two_point_law, vector_norm)
from .evidence import (DIVERGENT, INCONCLUSIVE, SATISFIED, SUMMABLE,
                       VIOLATED, EvidenceReport, TailThresholds,
                       median_tail_verdict, tail_verdict)
from .discrete import (CertificateFailure, DiscreteSystem, IntervalUnion,
                       TruncatedMeanCertificate, default_separating_sets,
                       draw_noise, lp_partial_sums, random_summable_kernel,
                       resolvent_seq, simulate_direct, simulate_via_resolvent,
                       tail_decision, truncated_mean_certificate)
from .continuous import (ContinuousSystem, DelaySystem, RootScanResult,
                         brownian_increments, characteristic_det,
                         characteristic_root_scan, differential_resolvent,
                         functional_resolvent, grid_convolution,
                         lp_time_integral, pathwise_gap,
                         simulate_ou, simulate_sfde, simulate_sve,
                         sve_ensemble_lp_tail, trailing_window_average)
from .conditions import (ExpFilterEquivalence, WindowProfile,
                         exp_filter_equivalence,
                         diffusion_window_evidence, forcing_window_evidence,
                         gaussian_exceedance_series, irregular_window_sums,
                         profile_lp_evidence, unit_window_evidence,
                         window_fading_evidence, window_integral)
from .corpus import (ConstFamily, ExpDecayFamily, GeometricWindowFamily,
                     OscFamily, SpikeFamily, SqrtOf, resolve, zero_f)

__version__ = ARTIFACT_VERSION

__all__ = [n for n in dir() if not n.startswith("_")]
