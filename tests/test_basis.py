"""Molecule construction and Gaussian94 basis parsing."""

import warnings

import numpy as np
import pytest

from h2ent.basis import (BasisSet, Shell, build_ao_basis, load_basis, parse_basis,
                         primitive_norm)
from h2ent.cli import main, run_single_point
from h2ent.errors import (BasisParseError, MissingElementError,
                          UnsupportedShellError)
from h2ent.integrals import compute_all, overlap
from h2ent.molecule import ANGSTROM_TO_BOHR, h2, molecule, nuclear_repulsion
from h2ent.scf import run_rhf_batch
from conftest import helium, stack
from oracles import quadrature_oracle


def test_h2_geometry():
    mol = h2(1.4)
    assert (mol.elements, mol.charges) == (("H", "H"), (1, 1))
    assert mol.xyz.tolist() == [[[0.0, 0.0, 0.0], [0.0, 0.0, 1.4]]]
    assert nuclear_repulsion(mol) == pytest.approx([1.0 / 1.4], abs=1e-15)


def test_h2_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        h2(0.0)
    with pytest.raises(ValueError):
        h2(-1.0)


def test_h2_of_many_distances_is_one_batch_of_its_one_point_geometries():
    rs = [0.3, 1.4, 100.0]
    mols = h2(rs)
    assert (mols.elements, mols.charges) == (("H", "H"), (1, 1))
    assert np.array_equal(mols.xyz, stack([h2(r) for r in rs]).xyz)
    assert nuclear_repulsion(mols).tolist() == [nuclear_repulsion(h2(r))[0] for r in rs]
    for bad in ([1.4, 0.0], [-1.0], [np.nan]):
        with pytest.raises(ValueError):
            h2(bad)


def test_molecule_validates_its_atoms():
    mol = molecule([("He", (0, 0, 0)), ("H", [0.0, 0.0, 1.5])])
    assert (mol.elements, mol.charges) == (("He", "H"), (2, 1))
    assert mol.xyz.tolist() == [[[0.0, 0.0, 0.0], [0.0, 0.0, 1.5]]]
    for atoms in ([], [("H", (0.0, 0.0))], [("H", (0.0, 0.0, np.inf))]):
        with pytest.raises(ValueError):
            molecule(atoms)
    for element in ("X", "h"):  # symbols are matched as written
        with pytest.raises(ValueError, match=f"unknown element '{element}'"):
            molecule([("H", (0.0, 0.0, 0.0)), (element, (0.0, 0.0, 1.4))])


def test_molecule_rejects_distances_past_1e100_bohr():
    # as h2 does, before the integrals square a distance and overflow
    for far, shown in ((1e160, r"1e\+160"), (1e101, r"1e\+101")):
        with pytest.raises(ValueError, match=f"must be at most 1e100 Bohr, got {shown}$"):
            molecule([("H", (0.0, 0.0, 0.0)), ("H", (0.0, 0.0, far))])
    # a distance that overflows on its own
    with pytest.raises(ValueError, match="got inf$"):
        molecule([("H", (0.0, 0.0, -1e308)), ("H", (0.0, 0.0, 1e308))])
    mol = molecule([("H", (0.0, 0.0, 0.0)), ("H", (0.0, 0.0, 1e100))])
    assert np.array_equal(mol.xyz, h2(1e100).xyz)
    assert run_rhf_batch(compute_all(load_basis("sto-3g"), mol)).converged.all()


def test_batch_ao_basis_is_one_layout_at_the_first_geometry():
    basis = load_basis("6-31gss")
    batch = build_ao_basis(h2([1.4, 3.0]), basis)
    assert batch == build_ao_basis(h2(1.4), basis)
    assert [atom for atom, _ in batch.shells] == [0, 0, 0, 1, 1, 1]


def test_helium_and_coincident_nuclei():
    assert nuclear_repulsion(helium()).tolist() == [0.0]
    mol = molecule([("H", (0, 0, 0)), ("H", (0, 0, 0))])
    with pytest.raises(ValueError):
        nuclear_repulsion(mol)


def test_angstrom_conversion_constant():
    # CODATA: 1 Bohr = 0.529177210903 Angstrom
    assert ANGSTROM_TO_BOHR == pytest.approx(1.0 / 0.529177210903, rel=1e-9)


def test_sto3g_contents():
    basis = load_basis("sto-3g")
    for element in ("H", "He"):
        shells = basis.shells_per_element[element]
        assert len(shells) == 1
        assert shells[0].angular_momentum == 0
        assert len(shells[0].exponents) == 3
    assert basis.shells_per_element["H"][0].exponents[0] \
        == pytest.approx(3.42525091)


def test_631gss_contents():
    basis = load_basis("6-31gss")
    shells = basis.shells_per_element["H"]
    assert [s.angular_momentum for s in shells] == [0, 0, 1]
    assert [len(s.exponents) for s in shells] == [3, 1, 1]


def test_load_basis_alias_and_unknown():
    a = load_basis("6-31g**")
    b = load_basis("6-31gss")
    assert a.shells_per_element.keys() == b.shells_per_element.keys()
    with pytest.raises(FileNotFoundError):
        load_basis("no-such-basis")


def test_ao_counts():
    sto = load_basis("sto-3g")
    pol = load_basis("6-31gss")
    assert len(build_ao_basis(h2(1.4), sto).functions) == 2
    assert len(build_ao_basis(h2(1.4), pol).functions) == 10
    assert len(build_ao_basis(helium(), sto).functions) == 1
    assert len(build_ao_basis(helium(), pol).functions) == 5


def test_ao_ordering_is_deterministic():
    ao = build_ao_basis(h2(1.4), load_basis("6-31gss"))
    # per atom: contracted s, diffuse s, then p_x, p_y, p_z
    powers = [f.powers for f in ao.functions[:5]]
    assert powers == [(0, 0, 0), (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert all(f.center == (0.0, 0.0, 0.0) for f in ao.functions[:5])
    assert all(f.center == (0.0, 0.0, 1.4) for f in ao.functions[5:])


def test_contracted_functions_are_normalized():
    for name in ("sto-3g", "6-31gss"):
        ao = build_ao_basis(h2(1.4), load_basis(name))
        for f in ao.functions:
            assert overlap(f, f) == pytest.approx(1.0, abs=1e-12)


def test_normalization_matches_quadrature():
    ao = build_ao_basis(h2(1.4), load_basis("6-31gss"))
    for f in (ao.functions[0], ao.functions[2]):
        assert quadrature_oracle(f, f, "overlap") == pytest.approx(1.0, abs=1e-6)


def test_primitive_norm_closed_form():
    # s primitive: N = (2a/pi)^(3/4)
    assert primitive_norm(1.3, (0, 0, 0)) == pytest.approx((2 * 1.3 / np.pi) ** 0.75)
    # p primitive: N = (2a/pi)^(3/4) * 2 sqrt(a)
    assert primitive_norm(0.8, (0, 0, 1)) == pytest.approx(
        (2 * 0.8 / np.pi) ** 0.75 * 2.0 * np.sqrt(0.8))


def test_parse_sp_shell_expansion():
    text = "H 0\nSP 2 1.00\n 1.0 0.5 0.2\n 0.3 0.6 0.9\n****\n"
    basis = parse_basis(text)
    shells = basis.shells_per_element["H"]
    assert [s.angular_momentum for s in shells] == [0, 1]
    # the S shell takes the second column and the P shell the third
    s_only = parse_basis("H 0\nS 2 1.00\n 1.0 0.5\n 0.3 0.6\n****\n")
    p_only = parse_basis("H 0\nS 1 1.00\n 1.0 1.0\nP 2 1.00\n 1.0 0.2\n 0.3 0.9\n****\n")
    assert shells[0] == s_only.shells_per_element["H"][0]
    assert shells[1] == p_only.shells_per_element["H"][1]


def test_parse_fortran_exponents_and_comments():
    text = "! a comment\nH 0\nS 1 1.00\n 1.0D-01 1.0\n****\n"
    basis = parse_basis(text)
    assert basis.shells_per_element["H"][0].exponents[0] == 0.1


def test_parse_errors_carry_line_numbers():
    with pytest.raises(BasisParseError) as err:
        parse_basis("H 0\nS 2 1.00\n 1.0 1.0\n****\n")
    assert err.value.line_number == 4
    with pytest.raises(BasisParseError):
        parse_basis("")
    with pytest.raises(BasisParseError):
        parse_basis("H 0\nS 1 1.00\n 1.0 1.0\n")  # missing ****
    with pytest.raises(BasisParseError):
        parse_basis("H 0\nS 1 1.00\n 1.0 abc\n****\n")
    with pytest.raises(UnsupportedShellError):
        parse_basis("H 0\nD 1 1.00\n 1.0 1.0\n****\n")
    # non-finite or non-positive exponents, non-finite coefficients, empty shells
    for shell, line in [("S 1 1.00\n nan 1.0", 3), ("S 1 1.00\n inf 1.0", 3),
                        ("S 1 1.00\n -1.0 1.0", 3), ("S 1 1.00\n 0.0 1.0", 3),
                        ("S 1 1e10\n 1.0D300 1.0", 3),  # finite, but not once scaled
                        ("S 2 1.00\n 1.0 0.5\n 0.5 nan", 4), ("S 1 1.00\n 1.0 -inf", 3),
                        ("SP 1 1.00\n 1.0 1.0 inf", 3), ("S 0 1.00", 2), ("S -1 1.00", 2)]:
        with pytest.raises(BasisParseError) as err:
            parse_basis(f"H 0\n{shell}\n****\n")
        assert err.value.line_number == line, shell


def test_shell_scale_factor_multiplies_exponents_by_its_square():
    scaled = parse_basis("H 0\nS 1 2.00\n 0.25 1.0\n****\n")
    plain = parse_basis("H 0\nS 1 1.00\n 1.0 1.0\n****\n")
    assert scaled.shells_per_element["H"][0].exponents[0] == 1.0
    assert run_single_point(1.4, scaled).e_hf == run_single_point(1.4, plain).e_hf
    # a header without a scale keeps the exponents
    bare = parse_basis("H 0\nS 1\n 0.25 1.0\n****\n")
    assert bare.shells_per_element["H"][0].exponents[0] == 0.25
    for scale in ("0.0", "-1.0", "nan", "inf", "abc"):
        with pytest.raises(BasisParseError) as err:
            parse_basis(f"H 0\nS 1 {scale}\n 0.1 1.0\n****\n")
        assert err.value.line_number == 2


def test_fortran_exponent_in_shell_header():
    plain = parse_basis("H 0\nS 1 1.00\n 0.25 1.0\n****\n")
    for scale in ("1.0D0", "1.0d0", "0.1D+01"):
        basis = parse_basis(f"H 0\nS 1 {scale}\n 0.25 1.0\n****\n")
        assert basis == plain, scale
    scaled = parse_basis("H 0\nS 1 2.0D0\n 0.25 1.0\n****\n")
    assert scaled.shells_per_element["H"][0].exponents[0] == 1.0


def test_zero_coefficient_shell_rejected_without_warnings():
    for shell in ("S 2 1.00\n 1.0 0.0\n 0.5 0.0", "SP 1 1.00\n 1.0 1.0 0.0",
                  "SP 2 1.00\n 1.0 0.0 0.3\n 0.5 -0.0 0.7"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BasisParseError) as err:
                parse_basis(f"H 0\nS 1 1.00\n 1.0 1.0\n{shell}\n****\n")
        assert err.value.line_number == 4, shell
        assert "zero norm" in str(err.value)


def test_block_without_an_s_shell_is_a_parse_error(tmp_path, capsys):
    # like an empty block, it is found at the block's ****, and exits 2 as
    # every other malformed basis file does
    text = "H 0\nS 1 1.00\n 1.0 1.0\n****\nHe 0\nP 1 1.00\n 1.0 1.0\n****\n"
    with pytest.raises(BasisParseError) as err:
        parse_basis(text)
    assert err.value.line_number == 8
    path = tmp_path / "p-only.gbs"
    path.write_text(text)
    assert main(["point", "-R", "1.4", "--basis", str(path)]) == 2
    assert "line 8: element block He has no s shell" in capsys.readouterr().err


def test_repeated_element_block_rejected():
    text = "H 0\nS 1 1.00\n 1.0 1.0\n****\nH 0\nS 1 1.00\n 0.5 1.0\n****\n"
    with pytest.raises(BasisParseError) as err:
        parse_basis(text)
    assert err.value.line_number == 5


def test_basis_dir_env_override(tmp_path, monkeypatch):
    custom = "H 0\nS 1 1.00\n 1.0 1.0\n****\n"
    (tmp_path / "sto-3g.gbs").write_text(custom)
    monkeypatch.setenv("H2E_BASIS_DIR", str(tmp_path))
    basis = load_basis("sto-3g")
    assert len(basis.shells_per_element["H"][0].exponents) == 1


def test_missing_element_raises():
    basis = parse_basis("H 0\nS 1 1.00\n 1.0 1.0\n****\n")
    with pytest.raises(MissingElementError):
        build_ao_basis(helium(), basis)


def test_shell_validation():
    # parse_basis rejects a d label; a hand-built d shell fails where the AOs are built
    basis = BasisSet("spd", {"H": (Shell(0, (1.0,), (1.0,)), Shell(2, (1.0,), (1.0,)))})
    with pytest.raises(UnsupportedShellError, match="l=2"):
        build_ao_basis(h2(1.4), basis)
