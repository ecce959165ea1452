import importlib
import math
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import randroot
from randroot.asymptotic import concentration_params, log_variance_approx
from randroot.errors import NumericError, ParameterDomainError
from randroot.families import FamilyKind, PolynomialClass
from randroot.jacobi import density_via_roots, jacobi_roots
from randroot.montecarlo import SampledPolynomial, jensen_root_bound
from randroot.quadrature import adaptive_quadrature
from randroot.verify import derivative_recurrence_residual


def test_every_all_entry_resolves():
    modules = [randroot] + [
        importlib.import_module(f"randroot.{info.name}")
        for info in pkgutil.iter_modules(randroot.__path__)
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []


def _readme_library_section() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split("## Library", 1)[1].split("\n## ", 1)[0]


def test_readme_library_names_are_the_top_level_all():
    # the rr. calls of the code block plus the names of the "exports N names" sentence
    section = _readme_library_section()
    block = section.split("```python", 1)[1].split("```", 1)[0]
    sentence = re.search(r"`randroot` exports \d+ names at the top level:(.*?)\.\s", section, re.S)
    listed = set(re.findall(r"\brr\.(\w+)", block)) | set(re.findall(r"`(\w+)`", sentence[1]))
    assert sorted(listed) == sorted(randroot.__all__)


def test_readme_export_count_is_len_all():
    count = re.search(r"`randroot` exports (\d+) names at the top level", _readme_library_section())
    assert int(count[1]) == len(randroot.__all__)


_Z_MINUS_2 = SampledPolynomial.from_coefficients([-2.0, 1.0])
_Z = SampledPolynomial.from_coefficients([0.0, 1.0])


@pytest.mark.parametrize("call,error", [
    (lambda: density_via_roots(jacobi_roots(10, 0.0, 0.0), math.nan), ParameterDomainError),
    (lambda: density_via_roots(jacobi_roots(10, 0.0, 0.0), [0.5, math.nan]), ParameterDomainError),
    (lambda: log_variance_approx(1.0, 0, 0.5), ParameterDomainError),
    (lambda: log_variance_approx(1.0, -5, 0.5), ParameterDomainError),
    (lambda: log_variance_approx(1.0, math.nan, 0.5), ParameterDomainError),
    (lambda: log_variance_approx(1.0, math.inf, 0.5), ParameterDomainError),
    (lambda: concentration_params(1.0, 0.5, -3), ParameterDomainError),
    (lambda: log_variance_approx(math.inf, 10, 0.5), ParameterDomainError),
    (lambda: derivative_recurrence_residual(3, 0.0, 0.0, math.inf), ParameterDomainError),
    (lambda: derivative_recurrence_residual(3, 0.0, 0.0, 1e200), NumericError),
    (lambda: SampledPolynomial.from_coefficients([1.0, math.nan, 2.0]), ParameterDomainError),
    (lambda: SampledPolynomial.from_coefficients([1.0, math.inf, 2.0]), ParameterDomainError),
    (lambda: jensen_root_bound(_Z_MINUS_2, 1.0, math.inf), ParameterDomainError),
    (lambda: jensen_root_bound(_Z, 1e-160, 1e160), NumericError),
    (lambda: PolynomialClass(FamilyKind.GAMMA, gamma=1.0, alpha=0.0), ParameterDomainError),
    (lambda: PolynomialClass(FamilyKind.ALPHA_BETA, gamma=1.0, alpha=0.0, beta=0.0), ParameterDomainError),
    (lambda: SampledPolynomial.from_coefficients([1.0]), ParameterDomainError),
    (lambda: adaptive_quadrature(np.exp, 0.0, 1.0, tol=0.0), NumericError),
], ids=["roots-density-nan", "roots-density-array-nan", "laplace-n0", "laplace-n-5", "laplace-n-nan",
        "laplace-n-inf", "concentration-n-3", "laplace-gamma-inf", "recurrence-x-inf",
        "recurrence-x-1e200", "coefficients-nan", "coefficients-inf", "jensen-R-inf", "jensen-not-finite",
        "gamma-with-alpha", "alpha-beta-with-gamma", "one-coefficient", "quadrature-tol-0"])
def test_bad_input_fails_loudly(call, error):
    # a NaN, a bare ValueError or a NumPy warning here would be a quiet or unnamed failure
    with pytest.raises(error):
        call()
