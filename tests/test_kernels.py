import numpy as np
import pytest

from visform import kernels as kn


def test_eval_power_unit_distance():
    spec = kn.KernelSpec("power", s=0.5, p=2)
    assert spec.k(1.0) == pytest.approx(1.0)


def test_eval_constant_profile():
    assert kn.KernelSpec("constant").k(2.0) == pytest.approx(0.25)


def test_eval_truncated_outside_support():
    assert kn.KernelSpec("truncated", rho=1.0).k(2.0) == 0.0


def test_eval_rejects_nonpositive():
    spec = kn.KernelSpec("power", s=0.5, p=2)
    with pytest.raises(ValueError):
        spec.k(0.0)
    with pytest.raises(ValueError):
        spec.profile(np.array([-1.0]))


def test_power_scale_identity():
    spec = kn.KernelSpec("power", s=0.3, p=2)
    d, sp = 2, 0.6
    for lam in (2.0, 4.0, 10.0):
        for r in (0.1, 1.0, 7.0):
            assert spec.k(lam * r) == pytest.approx(
                lam ** (-(d + sp)) * spec.k(r), rel=1e-12)


@pytest.mark.parametrize("spec", [
    kn.KernelSpec("power", s=0.5, p=2),
    kn.KernelSpec("power-log", s=0.5, sign=1),
    kn.KernelSpec("power-log", s=0.5, sign=-1),
    kn.KernelSpec("constant"),
    kn.KernelSpec("truncated", rho=1.0),
])
def test_profiles_nonincreasing(spec):
    r = np.logspace(-3, 3, 200)
    vals = spec.profile(r)
    assert np.all(np.diff(vals) <= 1e-12)
    assert np.all(vals >= 0.0)
    assert np.all(np.isfinite(vals))


def test_parse_kernel_round_trip():
    for text in ("power:s=0.25,p=2", "powerlog:s=0.5,sign=-1", "constant",
                 "truncated:rho=1.5"):
        spec = kn.parse_kernel(text)
        assert kn.parse_kernel(spec.label()).label() == spec.label()


def test_parse_kernel_rejects_malformed():
    for bad in ("power", "power:s=", "gauss:w=1", "truncated", "power:q=1"):
        with pytest.raises(ValueError):
            kn.parse_kernel(bad)


def test_spec_validation():
    with pytest.raises(ValueError):
        kn.KernelSpec("power", s=1.5, p=2)
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        kn.KernelSpec("power", s=1.0, p=2)
    with pytest.raises(ValueError):
        kn.parse_kernel("power:s=1,p=2")
    with pytest.raises(ValueError):
        kn.KernelSpec("power", s=0.5, p=0.5)
    with pytest.raises(ValueError):
        kn.KernelSpec("power-log", s=0.5, sign=2)
    with pytest.raises(ValueError):
        kn.KernelSpec("truncated", rho=-1.0)
    with pytest.raises(ValueError):
        kn.KernelSpec("gaussian")


def test_power_log_values_at_unit_distance():
    up = kn.KernelSpec("power-log", s=0.5, sign=1)
    dn = kn.KernelSpec("power-log", s=0.5, sign=-1)
    assert up.k(1.0) == pytest.approx(np.log(2.0))
    assert dn.k(1.0) == pytest.approx(1.0 / np.log(2.0))
