"""Exact q-series, cyclotomic-field and Bailey-pair arithmetic for the
quantum invariants of torus knots T(2,2t+1).

Everything is exact: truncated formal series over arbitrary-precision
rationals with tracked validity windows, cyclotomic fields for values at
roots of unity, and a verifier that compares independent routes to the same
object coefficient by coefficient.
"""

from .bailey import (
    BaileyPair,
    bailey_limit_identity,
    bailey_step,
    bailey_verify,
    conjugate_identity_check,
    make_named_pair,
)
from .cyclo import CycloNum, cyclo_eval
from .cyclotomic_coeffs import c_multisum, c_product
from .hecke import hecke_u1_double, hecke_u_series, hecke_u_series_x
from .jones import (
    habiro_inverse,
    habiro_reconstruct,
    jones_hyper,
    jones_left,
    jones_morton,
    mirror,
)
from .laurent import (
    ExactnessError,
    XLaurent,
    bernoulli_b2,
    cyclotomic_polynomial,
    poch_q,
    qbinomial,
)
from .modular import bernoulli_lhs, bernoulli_rhs, chi_periodic, theta_phi
from .report import CheckReport
from .series import Mono, QSeries, WindowError, first_difference, qpochhammer
from .useries import eval_f_at_root, u_eval_at_root, u_series
from .verify import run_suite

__version__ = "0.1.0"

__all__ = [
    "BaileyPair",
    "CheckReport",
    "CycloNum",
    "ExactnessError",
    "Mono",
    "QSeries",
    "WindowError",
    "XLaurent",
    "bailey_limit_identity",
    "bailey_step",
    "bailey_verify",
    "bernoulli_b2",
    "bernoulli_lhs",
    "bernoulli_rhs",
    "c_multisum",
    "c_product",
    "chi_periodic",
    "conjugate_identity_check",
    "cyclo_eval",
    "cyclotomic_polynomial",
    "eval_f_at_root",
    "first_difference",
    "habiro_inverse",
    "habiro_reconstruct",
    "hecke_u1_double",
    "hecke_u_series",
    "hecke_u_series_x",
    "jones_hyper",
    "jones_left",
    "jones_morton",
    "make_named_pair",
    "mirror",
    "poch_q",
    "qbinomial",
    "qpochhammer",
    "run_suite",
    "theta_phi",
    "u_eval_at_root",
    "u_series",
]
