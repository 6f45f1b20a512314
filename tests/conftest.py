"""Shared fixtures: the symbol spaces and eigen-functional pairs are
expensive enough to build once per session."""

from fractions import Fraction

import pytest

from iwrank.modsym import (
    ModularSymbolSpace,
    SymbolPair,
    TwistedSymbol,
    eigen_functional,
)

F = Fraction


@pytest.fixture(scope="session")
def sp11():
    return ModularSymbolSpace(11)


@pytest.fixture(scope="session")
def sp19():
    return ModularSymbolSpace(19)


@pytest.fixture(scope="session")
def sp23():
    return ModularSymbolSpace(23)


@pytest.fixture(scope="session")
def sp52():
    return ModularSymbolSpace(52)


def _pair(space, targets, level, label):
    plus = eigen_functional(space, targets, +1)
    minus = eigen_functional(space, targets, -1)
    return SymbolPair(plus, minus, level, label=label)


@pytest.fixture(scope="session")
def pair11(sp11):
    return _pair(sp11, [(2, F(-2))], 11, "11a")


@pytest.fixture(scope="session")
def pair19(sp19):
    return _pair(sp19, [(2, F(0))], 19, "19a")


@pytest.fixture(scope="session")
def pair52(sp52):
    return _pair(sp52, [(5, F(2))], 52, "52a")


@pytest.fixture(scope="session")
def twisted11(pair11):
    from iwrank.characters import DirichletCharacter

    chi23 = DirichletCharacter.quadratic_by_discriminant(-23)
    return TwistedSymbol(pair11, chi23, 11, label="11a-tw23")
