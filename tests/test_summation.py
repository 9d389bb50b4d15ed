"""Golden outputs do not depend on how the Python version sums floats.

CPython 3.12 made sum() compensate float sums (Neumaier), and later
versions compensate complex sums as well; pitomo supports Python >= 3.10.
Each test here replaces sum() in every pitomo module by such a
compensated sum and checks that pinned outputs keep their bits."""

import builtins
import importlib
import pkgutil
from functools import reduce
from operator import add

import pytest

import pitomo
import test_cli
import test_reconstruct


def _neumaier(values):
    s = c = 0.0
    for x in values:
        t = s + x
        c += (s - t) + x if abs(s) >= abs(x) else (x - t) + s
        s = t
    return s + c


def compensated_sum(iterable, /, start=0):
    """sum() as a compensating Python computes it: integers exactly, float
    and complex sums (per component) with Neumaier's correction."""
    items = [start, *iterable]
    if all(isinstance(x, int) for x in items):
        return builtins.sum(items)
    if any(isinstance(x, complex) for x in items):
        return complex(_neumaier(complex(x).real for x in items),
                       _neumaier(complex(x).imag for x in items))
    return _neumaier(items)


@pytest.fixture
def compensated(monkeypatch):
    names = [m.name for m in pkgutil.iter_modules(pitomo.__path__)
             if m.name != "__main__"]
    for name in names:
        monkeypatch.setattr(importlib.import_module(f"pitomo.{name}"), "sum",
                            compensated_sum, raising=False)


def test_the_shadow_compensates():
    xs = [1.0, 1e-16, 1e-16]
    assert reduce(add, xs, 0.0) == 1.0
    assert compensated_sum(xs) == 1.0000000000000002
    assert compensated_sum([1j, 1e-16j, 1e-16j]) == 1.0000000000000002j
    assert compensated_sum([2 ** 60, 1]) == 2 ** 60 + 1


def test_fit_goldens_under_compensated_sum(compensated):
    for case in test_reconstruct.EXTRACT_GOLDEN:
        test_reconstruct.test_extract_golden_outputs(*case)
    test_reconstruct.test_extract_golden_outputs_on_bundled_fixture()
    test_reconstruct.test_golden_outputs_on_bundled_fixture_below_its_calibration()


@pytest.mark.parametrize("method, digests", test_cli.RECONSTRUCT_GOLDEN)
def test_reconstruct_goldens_under_compensated_sum(compensated, tmp_path,
                                                   method, digests):
    test_cli.test_manifest_hashes_every_input_file(tmp_path, method, digests)


@pytest.mark.parametrize("seed, expected", test_cli.VERIFY_REPORT_GOLDEN)
def test_verify_goldens_under_compensated_sum(compensated, seed, expected):
    test_cli.test_verification_report_golden(seed, expected)
