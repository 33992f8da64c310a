import os

import pytest

import homcert
from homcert.homcore import KIND_OPS, HomAlgebra
from homcert.search import CATALOG, corpus

# Tests that spawn ``python -m homcert.cli`` run the child from a temporary
# cwd, where a relative ``PYTHONPATH=src`` no longer resolves.  Put the
# directory this process imported homcert from (this checkout's ``src`` under
# ``PYTHONPATH=src``) first on PYTHONPATH, by absolute path, so the children
# import the same package.
SRC = os.path.dirname(os.path.dirname(os.path.abspath(homcert.__file__)))
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])


def catalog_algebra(kind, name):
    for entry in CATALOG[kind]:
        if entry.name == name:
            return entry.algebra
    raise KeyError((kind, name))


def box_algebra(kind, env, unknown, basis, point):
    """The algebra of ``kind`` that check_on_box certifies over the kind's
    laws at one point of its box: env's products and twist, with
    env[unknown] + sum_i point[i] basis[i] as the product ``unknown``."""
    product = env[unknown]
    for c, b in zip(point, basis):
        product = product + b.scale(c)
    ops = {name: env[name] for name in KIND_OPS[kind] or (unknown,)}
    return HomAlgebra(product.d1, kind, {**ops, unknown: product}, env["alpha"])


@pytest.fixture(scope="session")
def dual_numbers():
    """e1 unit-like, e2 square-zero: the workhorse associative instance."""
    return catalog_algebra("hom-associative", "truncated-poly-2")


@pytest.fixture(scope="session")
def affine_lie():
    """[e1, e2] = e2 with identity twist."""
    return catalog_algebra("hom-lie", "affine-line")


@pytest.fixture(scope="session")
def assoc_corpus():
    return corpus("hom-associative", 100, 4, 11)


@pytest.fixture(scope="session")
def prelie_corpus():
    return corpus("hom-prelie", 100, 3, 23)


@pytest.fixture(scope="session")
def postlie_corpus():
    return corpus("hom-postlie", 100, 3, 37,
                  generators=("hand-catalog", "yau-twist-catalog",
                              "zero-product", "nullspace-sample"))


@pytest.fixture(scope="session")
def lie_corpus():
    return corpus("hom-lie", 100, 3, 51)
