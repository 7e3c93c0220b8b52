"""Subspace.restricted_matrix, one packed apply per zeta^t, against the
per-column loop it replaced (``dense_reference.reference_restricted_matrix``):
equal matrices on real Hecke and eps maps, the same exception type and
message on maps that leave the subspace, and the packing radix at its
proven bound."""

import math
import random
import warnings
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from periodpoly import polyspace
from periodpoly.cosets import GAMMA0, GAMMA1, build_coset_space, dirichlet_characters
from periodpoly.exactalg import CheckFailed, DenseMatrix, PeriodPolyError, QQ
from periodpoly.hecke import (HeckeError, HeckeOperator, SigmaSpec, delta_spec,
                              delta_vee_spec, diamond_spec, hecke_matrix,
                              universal_hecke_element)
from periodpoly.polyspace import (ExtPolyVector, PolySpaceError, PolyVector, Subspace,
                                  build_coboundary_and_D, build_W, build_W_extended,
                                  chi_component, eps_coordinates, eps_split)

from dense_reference import reference_restricted_matrix


@lru_cache(maxsize=None)
def subspace(kind, N, k, name):
    space = build_coset_space(kind, N, k)
    w = k - 2
    if name == "Wtilde":
        return build_W_extended(space, w)
    if name == "C":
        return build_coboundary_and_D(space, w)[0]
    W = build_W(space, w)
    if name == "W":
        return W
    plus, minus = eps_split(W)
    return plus if name == "Wplus" else minus


def chi_parts(N, k):
    """The nonzero chi parts of W of Gamma1(N) over a field of degree > 1."""
    W = subspace(GAMMA1, N, k, "W")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        parts = [chi_component(W, ch) for ch in dirichlet_characters(N) if ch.field]
    return [p for p in parts if p.dim]


def outcome(fn, *args):
    """The matrix, or the type and message of the error."""
    try:
        return fn(*args)
    except PeriodPolyError as exc:
        return type(exc), str(exc)


def hecke_outcomes(sub, n, spec):
    """(packed, reference) outcomes of T~_n through spec on sub."""
    t = universal_hecke_element(n)
    op = HeckeOperator(sub.space, sub.w, t, spec, sub.extended)
    return (outcome(hecke_matrix, sub, t, spec),
            outcome(reference_restricted_matrix, sub, op.apply, op.den))


def eps_map(sub):
    eps = eps_coordinates(sub.space, sub.w, sub.extended)
    return lambda values: [s * values[k] for k, s in eps]


# (kind, N, k, space, n, variant): the eight hecke-matrix jobs of the
# hecke-spaces benchmark, then larger and extended spaces, C and Gamma1
HECKE_CASES = [
    (GAMMA0, 37, 4, "Wplus", 2, "delta"), (GAMMA0, 37, 4, "Wminus", 11, "delta"),
    (GAMMA0, 37, 4, "W", 2, "delta_vee"), (GAMMA0, 37, 4, "Wplus", 37, "theta"),
    (GAMMA0, 12, 8, "W", 2, "delta"), (GAMMA0, 11, 4, "W", 11, "delta"),
    (GAMMA0, 11, 4, "W", 23, "delta"), (GAMMA0, 11, 4, "Wtilde", 3, "delta"),
    (GAMMA0, 389, 2, "Wplus", 2, "delta"), (GAMMA0, 100, 6, "W", 3, "delta"),
    (GAMMA0, 11, 12, "Wtilde", 5, "delta"), (GAMMA0, 60, 2, "C", 7, "delta"),
    (GAMMA1, 13, 2, "W", 13, "theta"), (GAMMA1, 13, 2, "W", 2, "delta_vee"),
    (GAMMA1, 13, 2, "W", 3, "delta"),
]


class TestAgainstReference:
    @pytest.mark.parametrize("kind,N,k,name,n,variant", HECKE_CASES)
    def test_hecke_matrix(self, kind, N, k, name, n, variant):
        sub = subspace(kind, N, k, name)
        spec = SigmaSpec(variant, kind, N, n)
        packed, ref = hecke_outcomes(sub, n, spec)
        assert isinstance(ref, DenseMatrix) and ref.nrows == sub.dim > 0
        assert packed == ref
        op = HeckeOperator(sub.space, sub.w, universal_hecke_element(n), spec, sub.extended)
        assert_within_bound(sub, op.apply, op.norm)

    @pytest.mark.parametrize("make,n", [(delta_spec, 2), (delta_spec, 3),
                                        (delta_vee_spec, 2), (diamond_spec, 2)])
    def test_chi_parts_over_zeta_5(self, make, n):
        parts = chi_parts(11, 2)
        assert len(parts) == 4 and {p.field.degree for p in parts} == {4}
        spec = make(GAMMA1, 11, n)
        for part in parts:
            packed, ref = hecke_outcomes(part, spec.n, spec)
            assert isinstance(ref, DenseMatrix) and packed == ref
            op = HeckeOperator(part.space, part.w, universal_hecke_element(spec.n), spec)
            assert_within_bound(part, op.apply, op.norm)

    @pytest.mark.parametrize("kind,N,k,name", [
        (GAMMA0, 37, 4, "W"), (GAMMA0, 11, 4, "Wtilde"), (GAMMA0, 60, 2, "C"),
        (GAMMA0, 11, 12, "Wtilde"), (GAMMA1, 13, 2, "W")])
    def test_eps_matrix(self, kind, N, k, name):
        sub = subspace(kind, N, k, name)
        ref = reference_restricted_matrix(sub, eps_map(sub))
        assert sub.restricted_matrix(eps_map(sub), 1, 1) == ref
        assert ref * ref == DenseMatrix.identity(QQ, sub.dim)

    def test_eps_on_chi_parts(self):
        for part in chi_parts(11, 2):
            assert outcome(part.restricted_matrix, eps_map(part), 1, 1) == \
                outcome(reference_restricted_matrix, part, eps_map(part))

    def test_zero_subspace(self):
        sub = Subspace(build_coset_space(GAMMA0, 11, 4), 2, False, [])
        assert sub.restricted_matrix(list, 1, 1) == reference_restricted_matrix(sub, list)


def assert_within_bound(sub, apply, norm):
    """Each column's image is within R / 2 and its residual within R, for R
    the proven digit bound of restricted_matrix."""
    R, d, n = sub._digit_bound(norm), sub.field.degree, sub.ambient
    for _, vec in sub.columns:
        parts = [[0] * n for _ in range(d)]
        for k, v in vec.items():
            parts[k % d][k // d] = v
        image = [0] * (n * d)
        for t, values in enumerate(parts):
            image[t::d] = apply(values)
        assert 2 * max(map(abs, image)) <= R
        assert max(map(abs, sub._residual(image))) <= R


@st.composite
def integer_maps(draw):
    """A subspace of Q^9 in reduced column echelon form and an integer map
    A = sum_i n_i lambda_i (stable) plus perturbations that move some
    columns out, with its largest absolute row sum."""
    n = 9
    pivots = sorted(draw(st.sets(st.integers(0, n - 2), min_size=1, max_size=4)))
    free = [i for i in range(n) if i not in pivots]
    columns = []
    for p in pivots:
        den = draw(st.integers(1, 4))
        vec = {p: den}
        for i in free:
            if i > p:
                v = draw(st.integers(-6, 6))
                if v:
                    vec[i] = v
        g = math.gcd(*vec.values())
        columns.append((den // g, {k: v // g for k, v in vec.items()}))
    A = [[0] * n for _ in range(n)]
    for _, vec in columns:
        lam = [draw(st.integers(-2, 2)) for _ in range(n)]
        for k, v in vec.items():
            for c in range(n):
                A[k][c] += v * lam[c]
    for _ in range(draw(st.integers(0, 2))):
        A[draw(st.sampled_from(free))][draw(st.integers(0, n - 1))] += draw(st.integers(-3, 3))
    den = draw(st.integers(1, 3))
    norm = max(sum(map(abs, row)) for row in A)
    return columns, A, den, norm


class TestIntegerMaps:
    @settings(max_examples=150, deadline=None)
    @given(integer_maps())
    def test_random_maps_match_reference(self, case):
        columns, A, den, norm = case
        sub = Subspace(build_coset_space(GAMMA0, 2, 4), 2, False, columns)

        def apply(x):
            return [sum(a * v for a, v in zip(row, x)) for row in A]
        assert outcome(sub.restricted_matrix, apply, den, norm) == \
            outcome(reference_restricted_matrix, sub, apply, den)
        assert_within_bound(sub, apply, norm)

    def test_random_maps_on_chi_parts(self):
        # over Q(zeta_5): c I plus a few random entries, so that columns
        # leave and the residual is read through the field products
        rnd = random.Random(19)
        named = set()
        for part in chi_parts(11, 2):
            n = part.ambient
            for _ in range(10):
                scale = rnd.randint(-3, 3)
                A = {i: {i: scale} for i in range(n)}
                for _ in range(rnd.randint(0, 3)):
                    row, col = A[rnd.randrange(n)], rnd.randrange(n)
                    row[col] = row.get(col, 0) + rnd.randint(-3, 3)
                norm = max(sum(map(abs, row.values())) for row in A.values())

                def apply(x, A=A):
                    return [sum(v * x[c] for c, v in A[i].items()) for i in range(n)]
                got = outcome(part.restricted_matrix, apply, 2, norm)
                assert got == outcome(reference_restricted_matrix, part, apply, 2)
                assert_within_bound(part, apply, norm)
                named.add(got if isinstance(got, tuple) else None)
        assert None in named and len(named) >= 3, named


def plane():
    """n_0 = e_0 - e_1, n_1 = e_2 + e_3 in Q^4: m = 1, q = 1, L = 1, so for a
    map of norm 1 the images reach I = 1 and the residuals R = 2."""
    return Subspace(build_coset_space(GAMMA0, 3, 2), 0, False,
                    [(1, {0: 1, 1: -1}), (1, {2: 1, 3: 1})])


def rotate(x):
    # A n_0 = -n_1, A n_1 = n_0: images of entries +-1 = +-I, matrix (0 1; -1 0)
    return [x[2], -x[3], -x[0], x[1]]


def leaver(sign):
    # fixes n_1; A n_0 = sign (e_0 + e_1), whose residual at row 1 is 2 sign = +-R
    return lambda x: [sign * x[0], sign * x[0], x[2], x[3]]


def assert_bound_cases():
    sub = plane()
    got = sub.restricted_matrix(rotate, 1, 1)
    assert got == reference_restricted_matrix(sub, rotate)
    assert [list(row) for row in got.rows] == [[0, 1], [-1, 0]]
    for sign in (1, -1):
        A = leaver(sign)
        assert A([1, -1, 0, 0])[1] - A([1, -1, 0, 0])[0] * -1 == 2 * sign
        got = outcome(sub.restricted_matrix, A, 1, 1)
        assert got == outcome(reference_restricted_matrix, sub, A)
        assert got == (PolySpaceError, "image of basis vector 0 leaves the subspace")


class TestRadixBound:
    def test_images_and_residuals_at_the_bound(self):
        assert plane()._digit_bound(1) == 2 and polyspace._radix_bits(2) == 2  # X = 4 > R
        assert_bound_cases()

    def test_radix_one_below_the_bound_is_caught(self, monkeypatch):
        # X = 2^b >= R in place of X > R: X = R = 2 on the plane
        monkeypatch.setattr(polyspace, "_radix_bits",
                            lambda bound: max(1, (bound - 1).bit_length()))
        with pytest.raises((AssertionError, CheckFailed)):
            assert_bound_cases()
        sub = plane()
        # the residual 2 = X of column 0 reads as a digit of column 1
        assert outcome(sub.restricted_matrix, leaver(1), 1, 1) == \
            (PolySpaceError, "image of basis vector 1 leaves the subspace")

    def test_norm_below_the_map_is_refused(self):
        def double(x):
            return [2 * v for v in rotate(x)]
        sub = plane()
        assert sub.restricted_matrix(double, 1, 2) == \
            DenseMatrix.from_columns(QQ, [[0, -2], [2, 0]])
        with pytest.raises(CheckFailed, match="norm is below"):
            sub.restricted_matrix(double, 1, 1)


@pytest.fixture(scope="module")
def w7():
    W = build_W(build_coset_space(GAMMA0, 7, 4), 2)
    assert W.dim == 4 and sorted({den for den, _ in W.columns}) == [1, 2, 4]
    return W


def bumper(sub, cols):
    """Adds the pivot coordinates of the given columns onto one free
    coordinate: exactly those columns leave."""
    free = next(i for i in range(sub.ambient) if i not in sub.pivot_rows)

    def bump(values):
        out = list(values)
        for j in cols:
            out[free] += values[sub.pivot_rows[j]]
        return out
    return bump, 1 + len(cols)


class TestErrors:
    def test_only_the_last_column_leaves(self, w7):
        bump, norm = bumper(w7, [w7.dim - 1])
        got = outcome(w7.restricted_matrix, bump, 1, norm)
        assert got == (PolySpaceError, "image of basis vector 3 leaves the subspace")
        assert got == outcome(reference_restricted_matrix, w7, bump)

    def test_least_of_two_leaving_columns_is_named(self, w7):
        bump, norm = bumper(w7, [0, 2])
        got = outcome(w7.restricted_matrix, bump, 1, norm)
        assert got == (PolySpaceError, "image of basis vector 0 leaves the subspace")
        assert got == outcome(reference_restricted_matrix, w7, bump)

    def test_last_hecke_column_leaves(self, space5):
        # W+ of Gamma0(5), k = 4, and a unit vector at a row after its
        # pivots where its basis vanishes: the unit vector's T~_2 image
        # leaves the span
        plus, _ = eps_split(build_W(space5, 2))
        used = {i for _, vec in plus.columns for i in vec}
        last = min(i for i in range(max(plus.pivot_rows), plus.ambient) if i not in used)
        extra = [0] * plus.ambient
        extra[last] = 1
        sub = Subspace.from_vectors(space5, 2, False,
                                    [plus.basis.column(j) for j in range(plus.dim)] + [extra])
        assert sub.pivot_rows == plus.pivot_rows + [last]
        packed, ref = hecke_outcomes(sub, 2, delta_spec(GAMMA0, 5, 2))
        assert packed == ref == (PolySpaceError, "image of basis vector %d leaves the "
                                                 "subspace" % plus.dim)

    @pytest.mark.parametrize("with_wtilde", [False, True])
    def test_wtilde_column_leaves_the_extended_model(self, space5, with_wtilde):
        # a cusp constant on the label (1:0) only: its residues at the poles
        # x0 != 0 meet nothing that cancels them
        tails = [0] * space5.size
        tails[space5.label_from_str("(1:0)")] = 1
        P = ExtPolyVector(space5, 2, PolyVector.zero(space5, 2), tails, check=False)
        vectors = [P.tilde_coords()]
        if with_wtilde:
            Wt = build_W_extended(space5, 2)
            vectors = [Wt.basis.column(j) for j in range(Wt.dim)] + vectors
        sub = Subspace.from_vectors(space5, 2, True, vectors)
        packed, ref = hecke_outcomes(sub, 2, delta_spec(GAMMA0, 5, 2))
        assert packed == ref == (HeckeError, "Hecke image leaves the extended "
                                             "polynomial model")
