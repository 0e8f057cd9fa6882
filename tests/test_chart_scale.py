"""Scaling the chart u -> 4^k u changes no surface: every decision reads the
unit chart, so Omega and K scale by exact powers of two and rank, dim K and
the omega command's exit code do not change."""

import contextlib
import functools
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinorminimal.cli import main
from spinorminimal.elliptic import build_context, wp_inverse
from spinorminimal.moduli import (
    _locate_a,
    klein_fourth_quadrant_root,
    square_context_e1_normalized,
    torus3_admissible_pair,
    torus4_construct,
)
from spinorminimal.numkit import NonConvergenceError, scale_parts
from spinorminimal.surface import GridSpec, enneper_data, integrate_surface
from spinorminimal.spinor import (
    INF,
    EndDivisor,
    SectionDataError,
    basis_F_sphere,
    basis_F_torus_twisted,
    basis_F_torus_untwisted,
    basis_F_torus_untwisted_paired,
    extract_K,
    omega_matrix,
)

FAMILIES = ("sphere", "twisted", "untwisted", "paired")


def _divisor(family, seed):
    """(lattice or None, ends, r) at unit scale: ends in the box [-1.5, 1.5]^2
    on the sphere and in the cell of (1, tau) on a torus, at least 0.25 apart
    from each other and from 0 and omega_r modulo the lattice; a paired
    divisor gives its half points a, whose ends are a and -a."""
    rng = np.random.default_rng(seed)
    if family == "sphere":
        while True:
            pts = rng.uniform(-1.5, 1.5, int(rng.integers(3, 6))) * (1 + 0j)
            pts += 1j * rng.uniform(-1.5, 1.5, pts.size)
            if min(abs(p - q) for i, p in enumerate(pts) for q in pts[i + 1:]) > 0.25:
                return None, tuple(pts) + (INF,), 1
    lattice = (1.0, complex(rng.uniform(-0.4, 0.4), rng.uniform(0.9, 1.6)))
    ctx, r = build_context(*lattice), int(rng.integers(1, 4))
    count = {"twisted": int(rng.integers(2, 4)), "untwisted": int(rng.integers(2, 5)), "paired": 2}
    # a paired end a keeps off every half period, where a = -a
    avoid = {"twisted": [0j], "untwisted": [0j, ctx.half_period(r)],
             "paired": [0j, ctx.omega1, ctx.omega2, ctx.omega3]}[family]
    while True:
        fr = rng.uniform(0.08, 0.92, (count[family], 2))
        pts = fr[:, 0] * 2 * ctx.omega1 + fr[:, 1] * 2 * ctx.omega3
        sing = list(pts) + ([-p for p in pts] if family == "paired" else []) + avoid
        if min(ctx.lattice_distance(p - q) for i, p in enumerate(sing)
               for q in sing[i + 1:]) > 0.25:
            return lattice, ((0j,) if family == "twisted" else ()) + tuple(pts), r


def _scaled(family, lattice, ends, r, lam):
    """The basis of F on the lattice and ends scaled by lam."""
    ends = tuple(p if p is INF else lam * p for p in ends)
    if family == "sphere":
        return basis_F_sphere(EndDivisor(ends))
    ctx = build_context(lam * lattice[0], lam * lattice[1])
    if family == "twisted":
        return basis_F_torus_twisted(ctx, EndDivisor(ends))
    if family == "untwisted":
        return basis_F_torus_untwisted(ctx, r, EndDivisor(ends))
    return basis_F_torus_untwisted_paired(ctx, r, ends)


def _bits(z):
    """The doubles of a complex array: equal values with equal signs of zero."""
    return np.ascontiguousarray(z, dtype=complex).view(np.int64).tolist()


def _K(form):
    try:
        return np.array([s.coefficients for s in extract_K(form)])
    except SectionDataError as exc:
        return str(exc)


def _omega_exit_code(family, lattice, ends, r, lam):
    argv = ["omega", "--domain", family,
            "--ends=" + ";".join("inf" if p is INF else repr(lam * p) for p in ends)]
    if lattice is not None:
        argv += [f"--omega1={lam * lattice[0]!r}", f"--omega3={lam * lattice[1]!r}", "--r", str(r)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@given(st.sampled_from(FAMILIES), st.integers(0, 2**16), st.integers(-40, 40))
@settings(max_examples=100, deadline=None)
def test_a_chart_scaled_by_a_power_of_four_changes_no_decision(family, seed, k):
    spec = _divisor(family, seed)
    forms = [omega_matrix(_scaled(family, *spec, lam)) for lam in (1.0, 4.0 ** k)]
    w = forms[0].basis[0].basis.weights
    # Omega_k = D_k Omega_0 D_k with D_k = diag(4^(k w_j)), to the bit
    factor = np.ldexp(1.0, (2 * k * (w[:, None] + w)).astype(int))
    assert _bits(forms[1].matrix.entries) == _bits(scale_parts(forms[0].matrix.entries, factor))
    assert forms[1].rank_kernel()[0] == forms[0].rank_kernel()[0]
    if family == "paired":
        return
    K0, Kk = (_K(form) for form in forms)
    if isinstance(K0, str):
        assert Kk == K0
    else:
        assert len(Kk) == len(K0)
        # each K vector is normalized at one row j0 at both scales, so row j
        # comes out times 4^(-k (w_j - w_j0))
        for v0, vk in zip(K0, Kk):
            rows = [np.ldexp(1.0, (-2 * k * (w - w0)).astype(int)) for w0 in set(w)]
            assert any(_bits(vk) == _bits(scale_parts(v0, f)) for f in rows)
    assert _omega_exit_code(family, *spec, 4.0 ** k) == _omega_exit_code(family, *spec, 1.0)


@pytest.mark.parametrize("k", [0, -15, 15])
def test_a_rational_row_has_its_poles_at_every_scale(k):
    # 1/(z - a) = (z - 2a)/((z - a)(z - 2a)) on the ends a, 2a and infinity
    # is the row phi/(z - a) at every scale: its one pole is at a, and its
    # table is that row's
    a = 4.0**k
    rows = basis_F_sphere(EndDivisor((a, 2 * a, INF)))[0].basis
    s = rows.fraction([-2 * a, 1.0], [2 * a * a, -3 * a, 1.0], "s")
    assert s.coefficients == (1, 0, 0)
    assert s.expansions[:2].tolist() == [[1, 0], [0, 1 / a]]


@functools.cache
def _torus4_residuals(lattice, k):
    lam = 4.0**k
    return torus4_construct(build_context(lam * lattice[0], lam * lattice[1])).residuals


@given(st.sampled_from([(1.0, 1.0j), (1.0, 2.0j), (1.1 - 0.2j, 0.3 + 0.9j)]),
       st.integers(-20, 20))
@settings(max_examples=12, deadline=None)
def test_torus4_residuals_read_the_unit_chart(lattice, k):
    # omega_zero and period_offdiag are absolute values, which scale as 4^-k;
    # read in the unit chart every residual keeps its bits
    assert _torus4_residuals(lattice, k) == _torus4_residuals(lattice, 0)


LATTICES = [(1.0, 1.0j), (1.1 - 0.2j, 0.3 + 0.9j), (1.0 + 0.4j, 1.0 - 0.4j)]


@pytest.mark.parametrize("lattice", LATTICES)
@pytest.mark.parametrize("k", [-20, 20])
def test_wp_floors_scale_with_the_lattice(lattice, k):
    # wp_inverse's Newton stop and check read |value| against |b1|^-2, and
    # torus3_admissible_pair's root and sign tests |b1|^-2 and |b1|^-3: on a
    # lattice scaled by 2^k every decision is the same, so the point found
    # scales by exactly 2^k.  The floor 1 they had stopped Newton early at
    # 2^20, and found no second root there
    s, ctx = 2.0**k, build_context(*lattice)
    scaled = build_context(s * lattice[0], s * lattice[1])
    for value in (0.1 + 0.05j, 3.0 - 2.0j):
        assert wp_inverse(scaled, value / s**2) == s * wp_inverse(ctx, value)
    for fx, fy in ((0.285, 0.205), (0.15, 0.35), (0.4, 0.175)):
        a1 = fx * 2 * ctx.omega1 + fy * 2 * ctx.omega3
        assert torus3_admissible_pair(scaled, s * a1) == s * torus3_admissible_pair(ctx, a1)


@pytest.mark.parametrize("k", [-20, 0, 20])
def test_the_klein_end_check_scales_with_the_lattice(k):
    # _locate_a's check reads |wp(a) - r| against |r| and |b1|^-2: at every
    # scale it finds the Klein end, 2^k times the unit one, and refuses a
    # value off the anti-invariant locus, which the floor 1 let pass at 2^20
    s, ctx = 2.0**k, square_context_e1_normalized()
    scaled, r = build_context(s * ctx.omega1, s * ctx.omega3), klein_fourth_quadrant_root()
    assert _locate_a(scaled, r / s**2) == s * _locate_a(ctx, r)
    with pytest.raises(NonConvergenceError, match="failed to locate"):
        _locate_a(scaled, (5.0 + 5.0j) / s**2)


@pytest.mark.parametrize("k", [-20, 0, 20])
@pytest.mark.parametrize("times", [0.5, 2.0])
def test_the_basepoint_snap_scales_with_the_grid(k, times):
    # a basepoint times 1e-9 of the grid step off the vertex s/2 of an
    # Enneper grid of extent s = 2^k and step s/2 is that vertex below the
    # snap and no vertex above it, at every scale
    s = 2.0**k
    base = 0.5 * s + times * 1e-9 * 0.5 * s
    if times > 1:
        with pytest.raises(ValueError, match="grid vertex"):
            integrate_surface(enneper_data(), GridSpec(5, 5, extent=s), base)
    else:
        mesh = integrate_surface(enneper_data(), GridSpec(5, 5, extent=s), base)
        assert mesh.vertices[mesh.domain_uv == 0.5 * s].tolist() == [[0.0, 0.0, 0.0]]
