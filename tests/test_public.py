"""The public surface: every export resolves, and no result holds a float."""

import importlib
import pkgutil
from fractions import Fraction

import pytest

import qknot
from qknot import laurent, series
from qknot.bailey import make_named_pair
from qknot.cyclo import CycloNum
from qknot.cyclotomic_coeffs import c_multisum, c_multisums, c_product, c_products, c_series
from qknot.hecke import hecke_u1_double, hecke_u_series, hecke_u_series_x
from qknot.jones import habiro_inverses, habiro_reconstruct, jones_hyper, jones_left, jones_morton
from qknot.laurent import XLaurent, cyclotomic_polynomial, qbinomial
from qknot.modular import bernoulli_lhs, bernoulli_rhs, theta_phi
from qknot.series import QSeries
from qknot.useries import eval_f_at_root, u_eval_at_root, u_series

# every module but __main__, which runs the CLI when imported
MODULES = ["qknot"] + [f"qknot.{m.name}" for m in pkgutil.iter_modules(qknot.__path__) if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_the_test_only_kernels_are_gone():
    for module in (qknot, laurent, series):
        for name in ("poch_q", "qpochhammer"):
            assert not hasattr(module, name), (module.__name__, name)
    for cls in (XLaurent, QSeries):
        assert "__pow__" not in vars(cls), cls


def _coefficients(obj):
    if isinstance(obj, QSeries):
        return [c for p in obj.terms.values() for c in p.coeffs.values()]
    if isinstance(obj, XLaurent):
        return list(obj.coeffs.values())
    if isinstance(obj, CycloNum):
        return list(obj.coeffs)
    if isinstance(obj, (list, tuple)):
        return [c for item in obj for c in _coefficients(item)]
    raise TypeError(f"not a result: {obj!r}")


def _pair_terms(name, **params):
    pair = make_named_pair(name, **params)
    return [term(n, 12) for n in range(4) for term in (pair.alpha, pair.beta)]


RESULTS = {
    "u_series": lambda: u_series(2, 1, 12),
    "hecke_u_series_x": lambda: hecke_u_series_x(2, 1, 12),
    "hecke_u_series": lambda: hecke_u_series(2, 2, 12),
    "hecke_u1_double": lambda: hecke_u1_double(12),
    "theta_phi sum": lambda: theta_phi(2, 1, 120),
    "theta_phi product": lambda: theta_phi(2, 1, 120, product_side=True),
    "c_product": lambda: c_product(2, 1, 3),
    "c_products": lambda: c_products(2, 1, 3),
    "c_multisum": lambda: c_multisum(2, 1, 3),
    "c_multisums": lambda: c_multisums(2, 1, 3),
    "c_series": lambda: c_series(2, 1, 3, 8),
    "jones_morton": lambda: jones_morton(2, 5, 4),
    "jones_hyper": lambda: jones_hyper(2, 4),
    "jones_left": lambda: jones_left(2, 1, 4),
    "habiro_inverses": lambda: habiro_inverses(lambda n: jones_left(2, 1, n), 3),
    "habiro_reconstruct": lambda: habiro_reconstruct(lambda n: c_product(2, 1, n), 4),
    "eval_f_at_root": lambda: eval_f_at_root(2, 1, 5),
    "eval_f_at_root inverse": lambda: eval_f_at_root(2, 1, 5, inverse=True),
    "u_eval_at_root": lambda: u_eval_at_root(2, 1, 5),
    "bernoulli_lhs": lambda: bernoulli_lhs(2, 1, 5),
    "bernoulli_rhs": lambda: bernoulli_rhs(2, 1, 5),
    "qbinomial": lambda: qbinomial(6, 3),
    "cyclotomic_polynomial": lambda: cyclotomic_polynomial(12),
    "unit pair": lambda: _pair_terms("unit", a_exp=1),
    "jones pair": lambda: _pair_terms("jones", t=2),
    "lovejoy pair": lambda: _pair_terms("lovejoy", t=2),
    "star pair": lambda: _pair_terms("star", t=3),
    "andrews pair": lambda: _pair_terms("andrews"),
}


@pytest.mark.parametrize("name", RESULTS)
def test_no_float_reaches_a_result(name):
    coeffs = _coefficients(RESULTS[name]())
    assert coeffs, name
    assert {type(c) for c in coeffs} <= {int, Fraction}, name
