import math
import re

import pytest

from chanem.errors import InvalidInputError
from chanem.materials import (BUILTIN_MATERIALS, EmProperties, MaterialSpec,
                              complex_permittivity, evaluate_material,
                              get_material)

F_REF = 4.01916e9


@pytest.mark.parametrize("name,eps_r,sigma_c", [
    ("vacuum", 1.0, 0.0),
    ("concrete", 5.24, 0.1372),
    ("glass", 6.31, 0.0232),
    ("metal", 1.0, 1e7),
])
def test_builtin_materials_at_reference_frequency(name, eps_r, sigma_c):
    props = evaluate_material(get_material(name), F_REF)
    assert props.eps_r == pytest.approx(eps_r, abs=1e-4)
    assert props.sigma_c == pytest.approx(sigma_c, abs=max(1e-4, 1e-4 * sigma_c))


def test_vacuum_is_identity_material():
    for f in (1e9, F_REF, 30e9):
        props = evaluate_material(get_material("vacuum"), f)
        assert props.eps_r == 1.0
        assert props.sigma_c == 0.0


def test_nonpositive_frequency_rejected():
    with pytest.raises(InvalidInputError):
        evaluate_material(get_material("concrete"), 0.0)
    with pytest.raises(InvalidInputError):
        evaluate_material(get_material("concrete"), -1e9)


@pytest.mark.parametrize("freq", [float("nan"), float("inf")])
def test_non_finite_frequency_rejected(freq):
    # nan passed the sign check and printed nan permittivities
    with pytest.raises(InvalidInputError, match="finite"):
        evaluate_material(get_material("concrete"), freq)


@pytest.mark.parametrize("name", sorted(BUILTIN_MATERIALS))
def test_b_zero_materials_have_frequency_independent_permittivity(name):
    spec = get_material(name)
    assert spec.b == 0.0
    a = evaluate_material(spec, 1.0e9).eps_r
    b = evaluate_material(spec, 28.5e9).eps_r
    assert a == b


@pytest.mark.parametrize("name", ["concrete", "glass"])
def test_conductivity_monotone_in_frequency(name):
    spec = get_material(name)
    freqs = [0.5e9, 1e9, 2e9, 4e9, 8e9, 40e9]
    sigmas = [evaluate_material(spec, f).sigma_c for f in freqs]
    assert all(s1 >= s0 for s0, s1 in zip(sigmas, sigmas[1:]))


def test_complex_permittivity_vacuum():
    props = evaluate_material(get_material("vacuum"), 7.77e9)
    assert complex_permittivity(props) == 1.0 - 0.0j


def test_complex_permittivity_concrete():
    # 0.1372 / (2 pi f eps0) = 0.6136 at the reference frequency
    props = evaluate_material(get_material("concrete"), F_REF)
    eta = complex_permittivity(props)
    assert eta.real == pytest.approx(5.24)
    assert eta.imag == pytest.approx(-0.6136, abs=1e-3)


def test_complex_permittivity_metal_loss_magnitude():
    props = evaluate_material(get_material("metal"), F_REF)
    eta = complex_permittivity(props)
    assert abs(eta.imag) == pytest.approx(4.47e7, rel=1e-2)


def test_material_invariants_enforced():
    with pytest.raises(InvalidInputError):
        MaterialSpec("subvacuum", 0.5, 0.0, 0.0, 0.0)
    with pytest.raises(InvalidInputError):
        MaterialSpec("negative", 1.0, 0.0, -0.1, 0.0)
    with pytest.raises(InvalidInputError):
        EmProperties(eps_r=0.9, sigma_c=0.0, freq=1e9)


@pytest.mark.parametrize("spec, freq_hz", [
    (BUILTIN_MATERIALS["glass"], 1e300),             # f_ghz ** d overflows
    (MaterialSpec("m", 1.0, 0.0, 1.0, 1e10), 4e9),   # so does 4 ** 1e10
    (MaterialSpec("m", 1e308, 1.0, 0.0, 0.0), 4e9),  # a * f_ghz is inf
    (MaterialSpec("m", 1.0, -400.0, 0.0, 0.0), 1.0),  # 1e-9 ** -400 overflows
    (MaterialSpec("m", 1.0, -1.0, 0.0, 0.0), 5e-324),  # 0.0 ** -1
])
def test_non_finite_property_is_named_error(spec, freq_hz):
    with pytest.raises(InvalidInputError,
                       match=rf"^material '{spec.name}': .*freq={re.escape(repr(freq_hz))}$"):
        evaluate_material(spec, freq_hz)


@pytest.mark.parametrize("eps_r, sigma_c, freq", [
    (math.inf, 0.0, 1e9), (math.nan, 0.0, 1e9), (1.0, math.inf, 1e9),
    (1.0, math.nan, 1e9), (1.0, 0.0, math.inf), (1.0, 0.0, math.nan),
])
def test_em_properties_must_be_finite(eps_r, sigma_c, freq):
    with pytest.raises(InvalidInputError, match="invalid EM properties"):
        EmProperties(eps_r=eps_r, sigma_c=sigma_c, freq=freq)


@pytest.mark.parametrize("sigma_c, freq", [
    (1e308, 4e9),    # sigma_c / (2 pi f eps0) overflows
    (0.0, 1e-320),   # 2 pi f eps0 underflows to 0
    (1e7, 1e-300),   # metal's conductivity, far below any carrier
])
def test_non_finite_loss_term_is_named_error(sigma_c, freq):
    props = EmProperties(eps_r=1.0, sigma_c=sigma_c, freq=freq)
    with pytest.raises(InvalidInputError, match=(
            rf"^invalid EM properties: loss term .* is not finite at "
            rf"sigma_c={re.escape(repr(sigma_c))}, freq={re.escape(repr(freq))}$")):
        complex_permittivity(props)


def test_unknown_material_rejected():
    with pytest.raises(InvalidInputError):
        get_material("adamantium")


def test_user_registry_extends_builtins():
    registry = dict(BUILTIN_MATERIALS)
    registry["brick"] = MaterialSpec("brick", 3.91, 0.0, 0.0238, 0.16)
    props = evaluate_material(get_material("brick", registry), 1e9)
    assert props.eps_r == pytest.approx(3.91)
    assert props.sigma_c == pytest.approx(0.0238)
