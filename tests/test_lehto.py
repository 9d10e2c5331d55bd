"""Tests for the singular annulus integral."""

import math

import numpy as np
import pytest

from qcmap.field import DiskConstant
from qcmap.lehto import lehto_integral
from qcmap.modulus import AnnulusSpec


def test_constant_field_closed_form():
    # |mu| constant m on the annulus integrates to 2*pi*m*log(r2/r1)
    mu = DiskConstant(c=0.5, radius=20.0)
    a = AnnulusSpec(0, 0.1, 10.0)
    est = lehto_integral(mu, a, tol=1e-4)
    assert est.converged
    assert est.abs_error <= 1e-4
    assert est.value == pytest.approx(2 * math.pi * 0.5 * math.log(100.0), abs=1e-4)


def test_support_ending_inside_annulus():
    # the unit disk meets A(0, 0.1, 10) in A(0, 0.1, 1): 2*pi*0.5*log(10)
    est = lehto_integral(DiskConstant(c=0.5), AnnulusSpec(0, 0.1, 10.0))
    assert est.converged
    assert est.value == pytest.approx(math.pi * math.log(100.0) * 0.5, abs=1e-3)


def test_zero_field():
    mu = DiskConstant(c=0.3, center=50.0, radius=1.0)  # support far away
    est = lehto_integral(mu, AnnulusSpec(0, 0.5, 2.0), tol=1e-8)
    assert est.value == 0.0
    assert est.converged


def test_offcenter_constant_oracle():
    # midpoint quadrature against an independent high-resolution Riemann sum
    mu = DiskConstant(c=0.4, center=0.3 + 0.1j, radius=0.5)
    a = AnnulusSpec(0.1, 0.05, 2.0)
    est = lehto_integral(mu, a, tol=1e-5)

    n_r, n_t = 3000, 3000
    u = np.linspace(math.log(a.r1), math.log(a.r2), n_r + 1)
    um = 0.5 * (u[1:] + u[:-1])
    th = (np.arange(n_t) + 0.5) * 2 * math.pi / n_t
    pts = a.center + np.exp(um)[:, None] * np.exp(1j * th[None, :])
    brute = np.abs(mu.evaluate(pts)).sum() * (u[1] - u[0]) * (2 * math.pi / n_t)
    assert est.value == pytest.approx(brute, abs=5e-3)


def test_scaling_invariance():
    s = 3.7
    mu = DiskConstant(c=0.35, radius=1.0)
    mu_scaled = DiskConstant(c=0.35, radius=s)
    a = AnnulusSpec(0, 0.2, 0.9)
    a_scaled = AnnulusSpec(0, s * 0.2, s * 0.9)
    e1 = lehto_integral(mu, a, tol=1e-6)
    e2 = lehto_integral(mu_scaled, a_scaled, tol=1e-6)
    assert e1.value == pytest.approx(e2.value, abs=2e-6)


def test_monotone_in_annulus():
    mu = DiskConstant(c=0.5, radius=5.0)
    base = lehto_integral(mu, AnnulusSpec(0, 0.5, 2.0), tol=1e-6).value
    wider = lehto_integral(mu, AnnulusSpec(0, 0.25, 2.0), tol=1e-6).value
    taller = lehto_integral(mu, AnnulusSpec(0, 0.5, 4.0), tol=1e-6).value
    assert wider >= base - 1e-9
    assert taller >= base - 1e-9


def test_holder_vanishing_center_bounded():
    # mu(y) = 0.3 |y|^(1/2): integrals over A(0, r_n, 1) converge as r_n -> 0
    def mu(z):
        return 0.3 * np.sqrt(np.abs(z))

    vals = []
    for n in range(1, 16):
        a = AnnulusSpec(0, 2.0 ** -n, 1.0)
        est = lehto_integral(mu, a, tol=1e-5)
        assert est.converged
        vals.append(est.value)
    vals = np.array(vals)
    limit = 2 * math.pi * 0.3 * 2.0  # int_0^1 0.3 rho^(1/2-1) drho * 2 pi
    assert np.all(vals <= limit + 1e-3)
    assert np.all(np.diff(vals) >= -1e-9)
    # tail differences shrink like 2^(-n/2)
    diffs = np.abs(np.diff(vals))
    assert diffs[-1] < 2e-2
    assert diffs[-1] < diffs[0]


def test_nonconvergence_flag():
    def mu(z):
        return 0.45 * (1 + np.sin(4000.0 * np.abs(z)))

    est = lehto_integral(mu, AnnulusSpec(0, 0.5, 2.0), tol=1e-12,
                         max_cells=1 << 14)
    assert not est.converged
    assert est.abs_error > 1e-12
