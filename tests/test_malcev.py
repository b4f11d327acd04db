"""Tests for exact unitriangular calculus and matrix embeddings."""

import random
from fractions import Fraction

import pytest

from nilcert.cli import main
from nilcert.formats import parse_pcp
from nilcert.malcev import (
    QMatrix,
    StrictUpper,
    UniTriangular,
    _curated_images,
    _iinv,
    _imul,
    _int_rows,
    _ipow,
    _regular_action_images,
    _verify_box_injectivity,
    _verify_relations,
    embed_matrix_group,
    expm,
    logm,
    matrix_from_json,
    matrix_to_json,
)
from nilcert.nilgroup import PcPresentation, lower_central_series
from oracles import verify_relations_in_fractions


def heisenberg():
    return PcPresentation(
        ["x", "y", "z"], [None, None, None], conj={(0, 1): (0, 1, -1)}
    )


def random_unitriangular(rng, n, denominators=False):
    rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if denominators:
                rows[i][j] = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
            else:
                rows[i][j] = Fraction(rng.randrange(-3, 4))
    return QMatrix(rows)


def theta(images, v):
    """The image of the normal form v: the product of generator powers,
    in exact rational arithmetic."""
    acc = UniTriangular.identity(images[0].n)
    for img, e in zip(images, v):
        if e:
            acc = acc * (img ** e)
    return acc


def random_strict_upper(rng, n):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
    return QMatrix(rows)


# ---------------------------------------------------------------------------
# exp and log


def test_expm_basic():
    assert expm(QMatrix([[0, 1], [0, 0]])).mat == QMatrix([[1, 1], [0, 1]])
    e = expm(QMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]]))
    assert e[0, 2] == Fraction(1, 2)
    assert expm(QMatrix.zeros(4, 4)).is_identity()


def test_logm_basic():
    assert logm(QMatrix([[1, 2], [0, 1]])).mat == QMatrix([[0, 2], [0, 0]])
    l = logm(QMatrix([[1, 1, 0], [0, 1, 1], [0, 0, 1]]))
    assert l[0, 1] == 1 and l[1, 2] == 1
    assert l[0, 2] == Fraction(-1, 2)


def test_exp_log_roundtrip_random():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randrange(2, 7)
        u = UniTriangular(random_unitriangular(rng, n, denominators=True))
        assert expm(logm(u)) == u
        s = StrictUpper(random_strict_upper(rng, n))
        assert logm(expm(s)) == s


def test_exp_additive_on_commuting():
    # matrices supported on a single row commute, so exp is additive there
    rng = random.Random(15)
    for _ in range(20):
        n = rng.randrange(3, 6)
        rows1 = [[Fraction(0)] * n for _ in range(n)]
        rows2 = [[Fraction(0)] * n for _ in range(n)]
        for j in range(1, n):
            rows1[0][j] = Fraction(rng.randrange(-4, 5))
            rows2[0][j] = Fraction(rng.randrange(-4, 5))
        m1, m2 = QMatrix(rows1), QMatrix(rows2)
        assert m1 * m2 == QMatrix.zeros(n, n)
        assert expm(m1 + m2) == expm(m1) * expm(m2)


def test_shape_validation():
    with pytest.raises(ValueError):
        UniTriangular(QMatrix([[1, 0], [1, 1]]))
    with pytest.raises(ValueError):
        UniTriangular(QMatrix([[2, 0], [0, 1]]))
    with pytest.raises(ValueError):
        StrictUpper(QMatrix([[1, 1], [0, 0]]))


def test_json_roundtrip():
    m = QMatrix([[Fraction(1, 2), 3], [0, Fraction(-7, 5)]])
    data = matrix_to_json(m)
    assert data == [["1/2", "3"], ["0", "-7/5"]]
    assert matrix_from_json(data) == m


# ---------------------------------------------------------------------------
# embeddings


def test_embed_free_abelian():
    z1 = PcPresentation(["a"], [None])
    (img,) = embed_matrix_group(z1)
    assert img.mat == QMatrix([[1, 1], [0, 1]])
    z2 = PcPresentation(["a", "b"], [None, None])
    a, b = embed_matrix_group(z2)
    assert a.mat == QMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    assert b.mat == QMatrix([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    assert a * b == b * a


def test_embed_heisenberg_standard():
    x, y, z = embed_matrix_group(heisenberg())
    assert x.mat == QMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    assert y.mat == QMatrix([[1, 0, 0], [0, 1, 1], [0, 0, 1]])
    assert z.mat == QMatrix([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    # [x, y] = z in the matrices
    assert x.inverse() * y.inverse() * x * y == z


def test_embed_heisenberg_squared():
    p = PcPresentation(["x", "y", "z"], [None, None, None], conj={(0, 1): (0, 1, -2)})
    x, y, z = embed_matrix_group(p)
    assert y.mat == QMatrix([[1, 0, 0], [0, 1, 2], [0, 0, 1]])
    assert x.inverse() * y.inverse() * x * y == z * z


def test_embed_word_oracle():
    p = heisenberg()
    images = embed_matrix_group(p)
    rng = random.Random(29)
    for _ in range(200):
        u = p.random_element(rng, 8)
        v = p.random_element(rng, 8)
        assert theta(images, u) * theta(images, v) == theta(images, p.multiply(u, v))
        assert theta(images, p.invert(u)) == theta(images, u).inverse()


def test_embed_class3_fallback():
    p = PcPresentation(
        ["a1", "a2", "a3", "a4", "a5"],
        [None] * 5,
        conj={(0, 1): (0, 1, 1, 0, 0), (0, 2): (0, 0, 1, 1, 0), (1, 2): (0, 0, 1, 0, 1)},
    )
    images = embed_matrix_group(p)
    assert all(m.is_integral() for m in images)
    rng = random.Random(19)
    for _ in range(8):
        u = p.random_element(rng, 2)
        v = p.random_element(rng, 2)
        assert theta(images, u) * theta(images, v) == theta(images, p.multiply(u, v))


def test_embed_rejects_torsion():
    p = PcPresentation(["a", "t"], [None, 2])
    with pytest.raises(ValueError):
        embed_matrix_group(p)


def test_embed_class_cap():
    p = PcPresentation(
        ["a1", "a2", "a3", "a4", "a5"],
        [None] * 5,
        conj={(0, 1): (0, 1, 1, 0, 0), (0, 2): (0, 0, 1, 1, 0), (1, 2): (0, 0, 1, 0, 1)},
    )
    with pytest.raises(ValueError):
        embed_matrix_group(p, class_cap=2)


H3 = """\
group H3
gen x order inf
gen y order inf
gen z order inf
conj y ^ x = y z
"""

# UT4(Z) on the elementary generators x_ij = I + E_ij: class 3, and its
# 7^6 test box is past the exhaustive scan's cap
UT4 = """\
group UT4
gen x12 order inf
gen x23 order inf
gen x34 order inf
gen x13 order inf
gen x24 order inf
gen x14 order inf
conj x23 ^ x12 = x23 x13^-1
conj x24 ^ x12 = x24 x14^-1
conj x34 ^ x23 = x34 x24^-1
conj x13 ^ x34 = x13 x14
"""

H5 = """\
group H5
gen a order inf
gen b order inf
gen c order inf
gen d order inf
gen z order inf
conj b ^ a = b z
conj d ^ c = d z
"""

F4 = """\
group F4
gen a order inf
gen b order inf
gen c order inf
gen d order inf
conj b ^ a = b c
conj c ^ a = c d
"""


def images_and_decoder(text):
    p = parse_pcp(text).presentation
    built = _curated_images(p)
    if built is None:
        gamma = lower_central_series(p)
        built = _regular_action_images(p, gamma, len(gamma) - 1)
    return p, built[0], built[1]


def test_embed_ut4_is_a_homomorphism_and_its_report_verifies(tmp_path, capsys):
    p = parse_pcp(UT4).presentation
    images = embed_matrix_group(p)
    assert images[0].n == 29 and all(m.is_integral() for m in images)
    rng = random.Random(47)
    for _ in range(6):
        u = p.random_element(rng, 2)
        v = p.random_element(rng, 2)
        assert theta(images, u) * theta(images, v) == theta(images, p.multiply(u, v))
    path = tmp_path / "ut4.pcp"
    path.write_text(UT4)
    report = tmp_path / "r.json"
    assert main(["embed", str(path), "--report", str(report)]) == 0
    capsys.readouterr()
    assert main(["verify", str(report), "--json"]) == 0
    assert capsys.readouterr().out == '{"kind": "embed", "verified": true}\n'


def test_integer_kernel_matches_qmatrix():
    rng = random.Random(53)
    for n in range(1, 17):
        for _ in range(3):
            a = random_unitriangular(rng, n)
            b = random_unitriangular(rng, n)
            ia, ib = _int_rows(a), _int_rows(b)
            assert _imul(ia, ib) == _int_rows(a * b)
            assert _iinv(ia) == _int_rows(a.inverse())
            e = rng.randrange(-5, 6)
            assert _ipow(ia, e) == _int_rows(a ** e)


@pytest.mark.parametrize("text, rejected", [(H5, 492), (F4, 318)], ids=["H5", "F4"])
def test_relation_check_rejects_what_the_fraction_check_rejects(text, rejected):
    # raise each strictly upper entry of each image by one
    p = parse_pcp(text).presentation
    images = embed_matrix_group(p)
    n = images[0].n
    perturbed = []
    for g, img in enumerate(images):
        for i in range(n):
            for j in range(i + 1, n):
                rows = [list(r) for r in img.mat.entries]
                rows[i][j] += 1
                perturbed.append(images[:g] + [UniTriangular(QMatrix(rows))] + images[g + 1:])

    def rejects(check, candidate):
        try:
            check(p, candidate)
        except RuntimeError:
            return True
        return False

    # the counts are the Fraction check's over every perturbation; it
    # takes about half a minute, so the suite compares a seeded sample
    assert sum(rejects(_verify_relations, c) for c in perturbed) == rejected
    for c in random.Random(59).sample(perturbed, 40):
        assert rejects(_verify_relations, c) == rejects(verify_relations_in_fractions, c)
    assert not rejects(_verify_relations, images)


def test_non_integral_image_is_a_value_error():
    p, images, decoder = images_and_decoder(H5)
    rows = [list(r) for r in images[0].mat.entries]
    rows[0][1] += Fraction(1, 2)
    images[0] = UniTriangular(QMatrix(rows))
    with pytest.raises(ValueError):
        _verify_relations(p, images)
    with pytest.raises(ValueError):
        _verify_box_injectivity(p, images, decoder)


@pytest.mark.parametrize(
    "text", [H3, UT4, H5, F4], ids=["H3-curated", "UT4-sampled", "H5", "F4"]
)
def test_box_scan_rejects_swapped_images(text):
    p, images, decoder = images_and_decoder(text)
    _verify_box_injectivity(p, images, decoder)
    images[0], images[1] = images[1], images[0]
    with pytest.raises(RuntimeError):
        _verify_box_injectivity(p, images, decoder)
