"""Test-only oracle: the hand-written evaluators that certified the algebra
and module identities, the O-operator identity, the matrix equations, the
coproduct rows, the convolution operator and the End_alpha rows before
they were declared as terms, and the hand-built linear systems the searches
solved.

Each function mirrors the certifier of the same name in ``homcert.homcore``
or ``homcert.hommod`` and returns a ``CertReport`` built the same way, so
tests can compare the two reports for equality and for identical reprs
(witness entry types included).  The coproduct rows come twice: as written
before they used product lookups (``epsilon_linear_equations``), and with
those lookups, as the coproduct search's residual last used them
(``_epsilon_linear_equations`` and ``_epsilon_linear_residual``).
"""

import itertools
from dataclasses import dataclass
from typing import Callable

from homcert.errors import InputError, PreconditionError
from homcert.exactlin import (ZERO, Matrix, basis_vec, bilinear_eval, mat_mul, nullspace,
                              rat, vec_add, vec_neg, vec_scale, vec_sub, zero_vec)
from homcert.homcore import AxiomResult, CertReport, Witness


@dataclass(frozen=True)
class AxiomSpec:
    """One multilinear identity, split as lhs == rhs on r-tuples of vectors."""

    name: str
    arity: int
    evaluate: Callable[..., tuple]  # (*vectors) -> (lhs, rhs)


def _matrix_equation_result(name, lhs, rhs):
    if lhs == rhs:
        return AxiomResult(name, True, None)
    for j in range(lhs.cols):
        cl, cr = lhs.column(j), rhs.column(j)
        if cl != cr:
            return AxiomResult(name, False, Witness((j + 1,), cl, cr))
    return AxiomResult(name, False, Witness((), (), ()))


def rb_twist_sides(alpha, r):
    """Both sides of ``commutes-with-twist``, r.alpha = alpha.r."""
    return mat_mul(r, alpha), mat_mul(alpha, r)


def oop_twist_sides(t, m):
    """Both sides of ``oop-twist-compat``, alpha.T = T.beta."""
    return mat_mul(m.algebra.alpha, t), mat_mul(t, m.beta)


def commuting_endomorphism_basis(alpha):
    n = alpha.rows
    rows = []
    # unknown f flattened row-major: f[p][q] at p*n+q
    for i in range(n):
        for j in range(n):
            row = [0] * (n * n)
            # (f A - A f)[i][j] = sum_k f[i][k] A[k][j] - A[i][k] f[k][j]
            for k in range(n):
                row[i * n + k] += alpha[k, j]
                row[k * n + j] -= alpha[i, k]
            rows.append(row)
    basis = []
    for v in nullspace(Matrix(rows)):
        flat = v.column(0)
        basis.append(Matrix([flat[p * n:(p + 1) * n] for p in range(n)]))
    return basis


def twist_beta_preconditions(m, b, bm):
    """The carrier-map checks of ``twist_beta``, after its morphism check."""
    a = m.algebra
    if mat_mul(m.beta, bm) != mat_mul(bm, m.beta):
        raise PreconditionError("bM does not commute with the module twist")
    for name in ("diamond", "bullet"):
        for i in range(a.dim):
            lhs = mat_mul(bm, m.action(name)[i])
            rhs = mat_mul(m.act(name, b.column(i)), bm)
            if lhs != rhs:
                raise PreconditionError(
                    f"bM does not intertwine the {name} action with b (basis index {i + 1})")


def check_oop(t, m):
    a = m.algebra
    if t.rows != a.dim or t.cols != m.mdim:
        raise InputError(f"operator must be {a.dim}x{m.mdim}, got {t.rows}x{t.cols}")
    rows = [_matrix_equation_result("oop-twist-compat", *oop_twist_sides(t, m))]
    if m.kind in ("lie-representation", "lie-module"):
        br = a.op("bracket")
        name = "o-operator-lie"

        def lhs(i, j):
            return bilinear_eval(br, t.column(i), t.column(j))

        def rhs(i, j):
            u = m.act("rho", t.column(i)).column(j)
            v = m.act("rho", t.column(j)).column(i)
            return t.apply(vec_sub(u, v))

    elif m.kind in ("assoc-bimodule", "prelie-bimodule"):
        mul = a.op("mul")
        name = ("o-operator-associative" if m.kind == "assoc-bimodule"
                else "o-operator-prelie")

        def lhs(i, j):
            return bilinear_eval(mul, t.column(i), t.column(j))

        def rhs(i, j):
            u = m.act("l", t.column(i)).column(j)
            v = m.act("r", t.column(j)).column(i)
            return t.apply(vec_add(u, v))

    else:
        raise InputError(f"O-operators are not defined for module kind {m.kind!r}")
    result = AxiomResult(name, True, None)
    for i, j in itertools.product(range(m.mdim), repeat=2):
        left, right = lhs(i, j), rhs(i, j)
        if left != right:
            result = AxiomResult(name, False, Witness((i + 1, j + 1), left, right))
            break
    rows.append(result)
    return CertReport.from_results(rows)


def residual_system(residual, cells):
    """The constraint matrix of a linear residual map, column c its value on
    the unit vector e_c, as the box searches assembled it by hand."""
    columns = [tuple(residual(basis_vec(cells, c))) for c in range(cells)]
    return Matrix([list(row) for row in zip(*columns)])


def check_identity(spec, dim):
    basis = [basis_vec(dim, i) for i in range(dim)]
    for idx in itertools.product(range(dim), repeat=spec.arity):
        lhs, rhs = spec.evaluate(*[basis[i] for i in idx])
        if lhs != rhs:
            return AxiomResult(spec.name, False,
                               Witness(tuple(i + 1 for i in idx), lhs, rhs))
    return AxiomResult(spec.name, True, None)


def _associator_parts(mul, al):
    def parts(x, y, z):
        left = bilinear_eval(mul, bilinear_eval(mul, x, y), al.apply(z))
        right = bilinear_eval(mul, al.apply(x), bilinear_eval(mul, y, z))
        return left, right
    return parts


def _skew_spec(br):
    def skew(x, y):
        return bilinear_eval(br, x, y), vec_neg(bilinear_eval(br, y, x))
    return AxiomSpec("skew-symmetry", 2, skew)


def _jacobi_spec(br, al):
    def jacobi(x, y, z):
        s = bilinear_eval(br, al.apply(x), bilinear_eval(br, y, z))
        s = vec_add(s, bilinear_eval(br, al.apply(y), bilinear_eval(br, z, x)))
        s = vec_add(s, bilinear_eval(br, al.apply(z), bilinear_eval(br, x, y)))
        return s, zero_vec(len(s))
    return AxiomSpec("hom-jacobi", 3, jacobi)


def _left_symmetry_spec(mul, al):
    parts = _associator_parts(mul, al)

    def left_sym(x, y, z):
        l1, r1 = parts(x, y, z)
        l2, r2 = parts(y, x, z)
        return vec_sub(l1, r1), vec_sub(l2, r2)

    return AxiomSpec("hom-left-symmetry", 3, left_sym)


def kind_axioms(a):
    al = a.alpha
    kind = a.kind
    if kind == "generic":
        return []
    if kind == "hom-associative":
        return [AxiomSpec("hom-associativity", 3, _associator_parts(a.op("mul"), al))]
    if kind == "hom-lie":
        br = a.op("bracket")
        return [_skew_spec(br), _jacobi_spec(br, al)]
    if kind == "hom-prelie":
        return [_left_symmetry_spec(a.op("mul"), al)]
    if kind == "hom-novikov":
        mul = a.op("mul")

        def right_comm(x, y, z):
            lhs = bilinear_eval(mul, bilinear_eval(mul, x, y), al.apply(z))
            rhs = bilinear_eval(mul, bilinear_eval(mul, x, z), al.apply(y))
            return lhs, rhs

        return [AxiomSpec("novikov-right-commutativity", 3, right_comm),
                _left_symmetry_spec(mul, al)]
    if kind == "hom-dendriform":
        lt, rt = a.op("left"), a.op("right")

        def dend1(x, y, z):
            lhs = bilinear_eval(lt, bilinear_eval(lt, x, y), al.apply(z))
            inner = vec_add(bilinear_eval(lt, y, z), bilinear_eval(rt, y, z))
            return lhs, bilinear_eval(lt, al.apply(x), inner)

        def dend2(x, y, z):
            lhs = bilinear_eval(lt, bilinear_eval(rt, x, y), al.apply(z))
            return lhs, bilinear_eval(rt, al.apply(x), bilinear_eval(lt, y, z))

        def dend3(x, y, z):
            lhs = bilinear_eval(rt, al.apply(x), bilinear_eval(rt, y, z))
            outer = vec_add(bilinear_eval(lt, x, y), bilinear_eval(rt, x, y))
            return lhs, bilinear_eval(rt, outer, al.apply(z))

        return [AxiomSpec("dendriform-left", 3, dend1),
                AxiomSpec("dendriform-middle", 3, dend2),
                AxiomSpec("dendriform-right", 3, dend3)]
    if kind == "hom-postlie":
        br, mul = a.op("bracket"), a.op("mul")

        def compat(x, y, z):
            lhs = bilinear_eval(mul, al.apply(z), bilinear_eval(br, x, y))
            rhs = vec_add(
                bilinear_eval(br, bilinear_eval(mul, z, x), al.apply(y)),
                bilinear_eval(br, al.apply(x), bilinear_eval(mul, z, y)))
            return lhs, rhs

        def twisted_ls(x, y, z):
            ax = al.apply(x)
            lhs = vec_add(
                bilinear_eval(mul, al.apply(z), bilinear_eval(mul, y, x)),
                vec_add(bilinear_eval(mul, bilinear_eval(mul, y, z), ax),
                        bilinear_eval(mul, bilinear_eval(br, y, z), ax)))
            rhs = vec_add(
                bilinear_eval(mul, al.apply(y), bilinear_eval(mul, z, x)),
                bilinear_eval(mul, bilinear_eval(mul, z, y), ax))
            return lhs, rhs

        return [_skew_spec(br), _jacobi_spec(br, al),
                AxiomSpec("postlie-bracket-compatibility", 3, compat),
                AxiomSpec("postlie-twisted-left-symmetry", 3, twisted_ls)]
    if kind == "hom-l-dendriform":
        tl, tr = a.op("tleft"), a.op("tright")

        def ldend1(x, y, z):
            lhs = bilinear_eval(tr, al.apply(x), bilinear_eval(tr, y, z))
            az = al.apply(z)
            rhs = bilinear_eval(tr, bilinear_eval(tr, x, y), az)
            rhs = vec_add(rhs, bilinear_eval(tr, bilinear_eval(tl, x, y), az))
            rhs = vec_add(rhs, bilinear_eval(tr, al.apply(y), bilinear_eval(tr, x, z)))
            rhs = vec_sub(rhs, bilinear_eval(tr, bilinear_eval(tl, y, x), az))
            rhs = vec_sub(rhs, bilinear_eval(tr, bilinear_eval(tr, y, x), az))
            return lhs, rhs

        def ldend2(x, y, z):
            lhs = bilinear_eval(tr, al.apply(x), bilinear_eval(tl, y, z))
            az = al.apply(z)
            ay = al.apply(y)
            rhs = bilinear_eval(tl, bilinear_eval(tr, x, y), az)
            rhs = vec_add(rhs, bilinear_eval(tl, ay, bilinear_eval(tr, x, z)))
            rhs = vec_add(rhs, bilinear_eval(tl, ay, bilinear_eval(tl, x, z)))
            rhs = vec_sub(rhs, bilinear_eval(tl, bilinear_eval(tl, y, x), az))
            return lhs, rhs

        return [AxiomSpec("l-dendriform-right", 3, ldend1),
                AxiomSpec("l-dendriform-left", 3, ldend2)]
    raise ValueError(kind)


def predicate_axioms(a, name):
    al = a.alpha
    if name == "multiplicative":
        specs = []
        for op_name in a.op_names():
            t = a.ops[op_name]

            def mult(x, y, t=t):
                return (al.apply(bilinear_eval(t, x, y)),
                        bilinear_eval(t, al.apply(x), al.apply(y)))

            specs.append(AxiomSpec(f"multiplicative:{op_name}", 2, mult))
        return specs
    if name == "left-commutative":
        mul = a.single_op()

        def left_comm(x, y, z):
            lhs = bilinear_eval(mul, bilinear_eval(mul, x, y), al.apply(z))
            rhs = bilinear_eval(mul, bilinear_eval(mul, y, x), al.apply(z))
            return lhs, rhs

        return [AxiomSpec("left-commutativity", 3, left_comm)]
    if name == "lie-admissible":
        mul = a.single_op()
        commutator = mul - mul.swap_arguments()
        return [AxiomSpec("lie-admissibility", 3, _jacobi_spec(commutator, al).evaluate)]
    raise ValueError(name)


def check_axioms(a, predicates=()):
    specs = kind_axioms(a)
    for p in predicates:
        specs.extend(predicate_axioms(a, p))
    return CertReport.from_results([check_identity(s, a.dim) for s in specs])


def check_predicate(a, name):
    return CertReport.from_results(
        [check_identity(s, a.dim) for s in predicate_axioms(a, name)])


def check_morphism(f, a, b):
    rows = [_matrix_equation_result("intertwines-twists",
                                    mat_mul(f, a.alpha), mat_mul(b.alpha, f))]
    for name in a.op_names():
        ta, tb = a.ops[name], b.ops[name]

        def preserves(x, y, ta=ta, tb=tb):
            return f.apply(bilinear_eval(ta, x, y)), bilinear_eval(tb, f.apply(x), f.apply(y))

        rows.append(check_identity(AxiomSpec(f"preserves:{name}", 2, preserves), a.dim))
    return CertReport.from_results(rows)


def check_rota_baxter(a, r, weight):
    weight = rat(weight)
    mul = a.single_op()

    def rb(x, y):
        rx, ry = r.apply(x), r.apply(y)
        lhs = bilinear_eval(mul, rx, ry)
        inner = vec_add(bilinear_eval(mul, rx, y), bilinear_eval(mul, x, ry))
        if weight:
            inner = vec_add(inner, vec_scale(weight, bilinear_eval(mul, x, y)))
        return lhs, r.apply(inner)

    rows = [check_identity(AxiomSpec("rota-baxter", 2, rb), a.dim),
            _matrix_equation_result("commutes-with-twist", *rb_twist_sides(a.alpha, r))]
    return CertReport.from_results(rows)


def epsilon_mul_rows(b):
    n = b.dim
    al = b.alpha
    rows = [check_identity(
        AxiomSpec("hom-associativity", 3, _associator_parts(b.mul, al)), n)]

    def centroid_left(x, y):
        return (bilinear_eval(b.mul, al.apply(x), y),
                al.apply(bilinear_eval(b.mul, x, y)))

    def centroid_right(x, y):
        return (bilinear_eval(b.mul, x, al.apply(y)),
                al.apply(bilinear_eval(b.mul, x, y)))

    rows.append(check_identity(AxiomSpec("centroid-left", 2, centroid_left), n))
    rows.append(check_identity(AxiomSpec("centroid-right", 2, centroid_right), n))
    rows.append(_matrix_equation_result("involutive-twist",
                                        mat_mul(al, al), Matrix.identity(n)))
    return rows


def _comul_of_vector(b, x):
    out = [0] * (b.dim * b.dim)
    for i, xi in enumerate(x):
        if xi:
            for pos, v in enumerate(b.comul_vec(i)):
                if v:
                    out[pos] += xi * v
    return tuple(out)


def _coassociativity_sides(b):
    """Both sides of Hom-coassociativity at e_i; quadratic in the coproduct."""
    n = b.dim
    al = b.alpha

    def coassoc(i):
        lhs = [0] * (n ** 3)
        rhs = [0] * (n ** 3)
        for j in range(n):
            for k in range(n):
                d = b.delta[i, j, k]
                if not d:
                    continue
                aj = al.column(j)
                for p in range(n):
                    if aj[p]:
                        for q in range(n):
                            for s in range(n):
                                v = b.delta[k, q, s]
                                if v:
                                    lhs[(p * n + q) * n + s] += d * aj[p] * v
                ak = al.column(k)
                for p in range(n):
                    for q in range(n):
                        v = b.delta[j, p, q]
                        if v:
                            for s in range(n):
                                if ak[s]:
                                    rhs[(p * n + q) * n + s] += d * v * ak[s]
        return tuple(lhs), tuple(rhs)

    return coassoc


def _basis_products(t, x, left):
    """[x.e_u for each u] when left, else [e_u.x]: bilinear_eval of x and a
    basis vector by product lookups, with its arithmetic and entry types."""
    out = []
    for u in range(t.d2 if left else t.d1):
        acc = [ZERO] * t.d3
        for p, xp in enumerate(x):
            if xp:
                for k, e in enumerate(t.product_vec(p, u) if left else t.product_vec(u, p)):
                    if e:
                        acc[k] += xp * e
        out.append(tuple(acc))
    return out


def _epsilon_linear_equations(b):
    """The coproduct prerequisites that are linear in the coproduct, as
    (name, arity, sides) with sides(index) -> (lhs, rhs), by product lookups."""
    n = b.dim
    acols = [b.alpha.column(i) for i in range(n)]
    alpha_times = [_basis_products(b.mul, a, True) for a in acols]  # [i][u]: alpha(e_i).e_u
    times_alpha = [_basis_products(b.mul, a, False) for a in acols]  # [j][v]: e_v.alpha(e_j)

    def compat(ij):
        i, j = ij
        lhs = [0] * (n * n)
        for k, mk in enumerate(b.mul.product_vec(i, j)):
            if mk:
                for pos, v in enumerate(b.comul_vec(k)):
                    if v:
                        lhs[pos] += mk * v
        rhs = [0] * (n * n)
        for u in range(n):
            prod = alpha_times[i][u]
            for v in range(n):
                d = b.delta[j, u, v]
                if d:
                    av = acols[v]
                    for p in range(n):
                        if prod[p]:
                            for q in range(n):
                                if av[q]:
                                    rhs[p * n + q] += d * prod[p] * av[q]
        for u in range(n):
            au = acols[u]
            for v in range(n):
                d = b.delta[i, u, v]
                if d:
                    prod = times_alpha[j][v]
                    for p in range(n):
                        if au[p]:
                            for q in range(n):
                                if prod[q]:
                                    rhs[p * n + q] += d * au[p] * prod[q]
        return tuple(lhs), tuple(rhs)

    def cocentroid(i, side):
        out = [0] * (n * n)
        for j in range(n):
            for k in range(n):
                d = b.delta[i, j, k]
                if not d:
                    continue
                col = acols[j] if side == 0 else acols[k]
                for p in range(n):
                    if col[p]:
                        pos = p * n + k if side == 0 else j * n + p
                        out[pos] += d * col[p]
        return tuple(out)

    def cocent_left(i):
        return cocentroid(i, 0), _comul_of_vector(b, acols[i])

    def cocent_right(i):
        return cocentroid(i, 1), _comul_of_vector(b, acols[i])

    return [("bialgebra-compatibility", 2, compat),
            ("cocentroid-left", 1, cocent_left),
            ("cocentroid-right", 1, cocent_right)]


def _epsilon_linear_residual(b):
    """lhs - rhs of every linear coproduct equation at every index, in the
    certifier's order: zero exactly when all those rows pass."""
    out = []
    for _, arity, sides in _epsilon_linear_equations(b):
        for idx in _equation_indices(b.dim, arity):
            lhs, rhs = sides(idx)
            out.extend(vec_sub(lhs, rhs))
    return out


def _equation_indices(n, arity):
    return itertools.product(range(n), repeat=arity) if arity > 1 else range(n)


def _indexed_equation(name, n, fn, arity=1):
    for idx in _equation_indices(n, arity):
        lhs, rhs = fn(idx)
        if lhs != rhs:
            pretty = (idx + 1,) if isinstance(idx, int) else tuple(i + 1 for i in idx)
            return AxiomResult(name, False, Witness(pretty, lhs, rhs))
    return AxiomResult(name, True, None)


def epsilon_linear_equations(b):
    n = b.dim
    al = b.alpha

    def compat(ij):
        i, j = ij
        lhs = [0] * (n * n)
        for k, mk in enumerate(b.mul.product_vec(i, j)):
            if mk:
                for pos, v in enumerate(b.comul_vec(k)):
                    if v:
                        lhs[pos] += mk * v
        rhs = [0] * (n * n)
        ai = al.column(i)
        for u in range(n):
            for v in range(n):
                d = b.delta[j, u, v]
                if d:
                    prod = bilinear_eval(b.mul, ai, basis_vec(n, u))
                    av = al.column(v)
                    for p in range(n):
                        if prod[p]:
                            for q in range(n):
                                if av[q]:
                                    rhs[p * n + q] += d * prod[p] * av[q]
        aj = al.column(j)
        for u in range(n):
            for v in range(n):
                d = b.delta[i, u, v]
                if d:
                    au = al.column(u)
                    prod = bilinear_eval(b.mul, basis_vec(n, v), aj)
                    for p in range(n):
                        if au[p]:
                            for q in range(n):
                                if prod[q]:
                                    rhs[p * n + q] += d * au[p] * prod[q]
        return tuple(lhs), tuple(rhs)

    def cocentroid(i, side):
        out = [0] * (n * n)
        for j in range(n):
            for k in range(n):
                d = b.delta[i, j, k]
                if not d:
                    continue
                col = al.column(j) if side == 0 else al.column(k)
                for p in range(n):
                    if col[p]:
                        pos = p * n + k if side == 0 else j * n + p
                        out[pos] += d * col[p]
        return tuple(out)

    def cocent_left(i):
        return cocentroid(i, 0), _comul_of_vector(b, al.column(i))

    def cocent_right(i):
        return cocentroid(i, 1), _comul_of_vector(b, al.column(i))

    return [("bialgebra-compatibility", 2, compat),
            ("cocentroid-left", 1, cocent_left),
            ("cocentroid-right", 1, cocent_right)]


def epsilon_delta_rows(b):
    n = b.dim
    rows = [_indexed_equation("hom-coassociativity", n, _coassociativity_sides(b))]
    rows += [_indexed_equation(name, n, sides, arity)
             for name, arity, sides in epsilon_linear_equations(b)]
    return rows


def epsilon_prerequisites(b):
    return CertReport.from_results(epsilon_mul_rows(b) + epsilon_delta_rows(b))


def convolution_operator(b, f):
    n = b.dim
    cols = []
    for i in range(n):
        acc = [0] * n
        for j in range(n):
            for k in range(n):
                d = b.delta[i, j, k]
                if d:
                    term = bilinear_eval(b.mul, b.alpha.column(j), f.column(k))
                    for p, t in enumerate(term):
                        if t:
                            acc[p] += d * t
        cols.append(tuple(acc))
    return Matrix.from_columns(cols) if cols else Matrix.zeros(0, 0)


def convolution_rb(b):
    prereq = epsilon_prerequisites(b)
    if not prereq.passed:
        return prereq
    return CertReport.from_results(
        list(prereq.axioms) + end_alpha_rows(b, commuting_endomorphism_basis(b.alpha)))


def end_alpha_rows(b, basis):
    rows = []

    def gamma(f):
        return mat_mul(b.alpha, f)

    def flat(m):
        return tuple(v for row in m.data for v in row)

    ok = AxiomResult("endalg-hom-associative", True, None)
    for idx in itertools.product(range(len(basis)), repeat=3):
        f, g, h = (basis[i] for i in idx)
        lhs = mat_mul(mat_mul(f, g), gamma(h))
        rhs = mat_mul(gamma(f), mat_mul(g, h))
        if lhs != rhs:
            ok = AxiomResult("endalg-hom-associative", False,
                             Witness(tuple(i + 1 for i in idx), flat(lhs), flat(rhs)))
            break
    rows.append(ok)
    images = [convolution_operator(b, f) for f in basis]
    ok = AxiomResult("convolution-closed", True, None)
    for i, rf in enumerate(images):
        if mat_mul(rf, b.alpha) != mat_mul(b.alpha, rf):
            ok = AxiomResult("convolution-closed", False,
                             Witness((i + 1,), flat(mat_mul(rf, b.alpha)),
                                     flat(mat_mul(b.alpha, rf))))
            break
    rows.append(ok)
    ok = AxiomResult("convolution-rota-baxter", True, None)
    for gi, fi in itertools.product(range(len(basis)), repeat=2):
        g, f = basis[gi], basis[fi]
        rg, rf = images[gi], images[fi]
        lhs = mat_mul(rg, rf)
        rhs = (convolution_operator(b, mat_mul(rg, f))
               + convolution_operator(b, mat_mul(g, rf)))
        if lhs != rhs:
            ok = AxiomResult("convolution-rota-baxter", False,
                             Witness((gi + 1, fi + 1), flat(lhs), flat(rhs)))
            break
    rows.append(ok)
    return rows


# -- module axioms: one matrix identity per algebra basis tuple --------------

def _first_column_witness(indices, lhs, rhs):
    for v in range(lhs.cols):
        cl, cr = lhs.column(v), rhs.column(v)
        if cl != cr:
            return Witness(tuple(i + 1 for i in indices) + (v + 1,), cl, cr)
    raise AssertionError("witness requested for equal matrices")


def _matrix_axiom(name, n, arity, lhs_fn, rhs_fn):
    for idx in itertools.product(range(n), repeat=arity):
        lhs, rhs = lhs_fn(*idx), rhs_fn(*idx)
        if lhs != rhs:
            return AxiomResult(name, False, _first_column_witness(idx, lhs, rhs))
    return AxiomResult(name, True, None)


def check_module_axioms(m, strict_twist_commute=False):
    a = m.algebra
    n = a.dim
    al = a.alpha
    B = m.beta
    rows = []

    def at_alpha(name, i):
        return m.act(name, al.column(i))

    if m.kind == "assoc-bimodule":
        mul = a.op("mul")
        L, R = m.action("l"), m.action("r")
        rows.append(_matrix_axiom(
            "bimodule-left", n, 2,
            lambda i, j: mat_mul(m.act("l", mul.product_vec(i, j)), B),
            lambda i, j: mat_mul(at_alpha("l", i), L[j])))
        rows.append(_matrix_axiom(
            "bimodule-mixed", n, 2,
            lambda i, j: mat_mul(at_alpha("r", j), L[i]),
            lambda i, j: mat_mul(at_alpha("l", i), R[j])))
        rows.append(_matrix_axiom(
            "bimodule-right", n, 2,
            lambda i, j: mat_mul(at_alpha("r", j), R[i]),
            lambda i, j: mat_mul(m.act("r", mul.product_vec(i, j)), B)))
    elif m.kind in ("lie-module", "lie-representation"):
        br = a.op("bracket")
        Rho = m.action("rho")
        if m.kind == "lie-module":
            rows.append(_matrix_axiom(
                "module-twist-compat", n, 1,
                lambda i: mat_mul(B, Rho[i]),
                lambda i: mat_mul(at_alpha("rho", i), B)))
        rows.append(_matrix_axiom(
            "lie-action" if m.kind == "lie-module" else "lie-representation", n, 2,
            lambda i, j: mat_mul(m.act("rho", br.product_vec(i, j)), B),
            lambda i, j: (mat_mul(at_alpha("rho", i), Rho[j])
                          - mat_mul(at_alpha("rho", j), Rho[i]))))
    elif m.kind == "prelie-bimodule":
        mul = a.op("mul")
        L, R = m.action("l"), m.action("r")
        rows.append(_matrix_axiom(
            "prelie-bimodule-left", n, 2,
            lambda i, j: (mat_mul(m.act("l", mul.product_vec(i, j)), B)
                          - mat_mul(at_alpha("l", i), L[j])),
            lambda i, j: (mat_mul(m.act("l", mul.product_vec(j, i)), B)
                          - mat_mul(at_alpha("l", j), L[i]))))
        rows.append(_matrix_axiom(
            "prelie-bimodule-right", n, 2,
            lambda i, j: (mat_mul(at_alpha("l", i), R[j])
                          - mat_mul(at_alpha("r", j), L[i])),
            lambda i, j: (mat_mul(m.act("r", mul.product_vec(i, j)), B)
                          - mat_mul(at_alpha("r", j), R[i]))))
    elif m.kind == "postlie-module":
        br, mul = a.op("bracket"), a.op("mul")
        D, U = m.action("diamond"), m.action("bullet")
        rows.append(_matrix_axiom(
            "module-twist-diamond", n, 1,
            lambda i: mat_mul(B, D[i]),
            lambda i: mat_mul(at_alpha("diamond", i), B)))
        rows.append(_matrix_axiom(
            "module-twist-bullet", n, 1,
            lambda i: mat_mul(B, U[i]),
            lambda i: mat_mul(at_alpha("bullet", i), B)))
        if strict_twist_commute:
            rows.append(_matrix_axiom(
                "literal-twist-commute-diamond", n, 1,
                lambda i: mat_mul(B, D[i]), lambda i: mat_mul(D[i], B)))
            rows.append(_matrix_axiom(
                "literal-twist-commute-bullet", n, 1,
                lambda i: mat_mul(B, U[i]), lambda i: mat_mul(U[i], B)))
        rows.append(_matrix_axiom(
            "postlie-module-bracket-diamond", n, 2,
            lambda i, j: mat_mul(m.act("diamond", br.product_vec(i, j)), B),
            lambda i, j: (mat_mul(at_alpha("diamond", i), D[j])
                          - mat_mul(at_alpha("diamond", j), D[i]))))
        rows.append(_matrix_axiom(
            "postlie-module-product", n, 2,
            lambda i, j: mat_mul(m.act("diamond", mul.product_vec(i, j)), B),
            lambda i, j: (mat_mul(at_alpha("bullet", i), D[j])
                          - mat_mul(at_alpha("diamond", j), U[i]))))
        rows.append(_matrix_axiom(
            "postlie-module-bracket-bullet", n, 2,
            lambda i, j: mat_mul(m.act("bullet", br.product_vec(i, j)), B),
            lambda i, j: (mat_mul(at_alpha("bullet", i), U[j])
                          - mat_mul(at_alpha("bullet", j), U[i])
                          - mat_mul(m.act("bullet", mul.product_vec(i, j)), B)
                          + mat_mul(m.act("bullet", mul.product_vec(j, i)), B))))
    elif m.kind == "ldend-bimodule":
        q, p = a.op("tleft"), a.op("tright")
        hor = p + q
        LT, RT = m.action("lt"), m.action("rt")
        LR, RR = m.action("lr"), m.action("rr")

        def bracket_vec(i, j):
            hij = hor.product_vec(i, j)
            hji = hor.product_vec(j, i)
            return tuple(x - y for x, y in zip(hij, hji))

        def vert_vec(i, j):
            pij = p.product_vec(i, j)
            qji = q.product_vec(j, i)
            return tuple(x - y for x, y in zip(pij, qji))

        rows.append(_matrix_axiom(
            "ldend-bimodule-1", n, 2,
            lambda i, j: mat_mul(m.act("lr", bracket_vec(i, j)), B),
            lambda i, j: (mat_mul(at_alpha("lr", i), LR[j])
                          - mat_mul(at_alpha("lr", j), LR[i]))))
        rows.append(_matrix_axiom(
            "ldend-bimodule-2", n, 2,
            lambda i, j: mat_mul(m.act("lt", vert_vec(i, j)), B),
            lambda i, j: (mat_mul(at_alpha("lr", i), LT[j])
                          - mat_mul(at_alpha("lt", j), LR[i])
                          - mat_mul(at_alpha("lt", j), LT[i]))))
        rows.append(_matrix_axiom(
            "ldend-bimodule-3", n, 2,
            lambda i, j: mat_mul(m.act("rr", p.product_vec(i, j)), B),
            lambda i, j: (mat_mul(at_alpha("rr", j), RR[i])
                          + mat_mul(at_alpha("rr", j), RT[i])
                          + mat_mul(at_alpha("lr", i), RR[j])
                          - mat_mul(at_alpha("rr", j), LR[i])
                          - mat_mul(at_alpha("rr", j), LT[i]))))
        rows.append(_matrix_axiom(
            "ldend-bimodule-4", n, 2,
            lambda i, j: mat_mul(m.act("rr", q.product_vec(i, j)), B),
            lambda i, j: (mat_mul(at_alpha("rt", j), RR[i])
                          + mat_mul(at_alpha("lt", i), RR[j])
                          + mat_mul(at_alpha("lt", i), RT[j])
                          - mat_mul(at_alpha("rt", j), LT[i]))))
        rows.append(_matrix_axiom(
            "ldend-bimodule-5", n, 2,
            lambda i, j: mat_mul(m.act("rt", hor.product_vec(i, j)), B),
            lambda i, j: (mat_mul(at_alpha("lr", i), RT[j])
                          - mat_mul(at_alpha("rt", j), LR[i])
                          + mat_mul(at_alpha("rt", j), RT[i]))))
    else:
        raise ValueError(m.kind)
    return CertReport.from_results(rows)


def twisted_left_symmetry_holds(mul, br, alpha, n):
    """The post-Lie search filter as it was hand-copied into ``search``."""
    acols = [alpha.column(i) for i in range(n)]
    for i, j, k in itertools.product(range(n), repeat=3):
        t1 = bilinear_eval(mul, acols[k], mul.product_vec(j, i))
        t2 = bilinear_eval(mul, acols[j], mul.product_vec(k, i))
        t3 = bilinear_eval(mul, mul.product_vec(j, k), acols[i])
        t4 = bilinear_eval(mul, mul.product_vec(k, j), acols[i])
        t5 = bilinear_eval(mul, br.product_vec(j, k), acols[i])
        for a, b, c, d, e in zip(t1, t2, t3, t4, t5):
            if a - b + c - d + e:
                return False
    return True


def postlie_linear_system(l):
    """The bracket-compatibility constraints, expanded by hand on basis
    triples as ``search.postlie_linear_system`` assembled them before it
    evaluated the declared identity."""
    n = l.dim
    c = l.op("bracket")
    A = l.alpha
    rows = []
    for k, i, j in itertools.product(range(n), repeat=3):
        block = [[0] * (n ** 3) for _ in range(n)]
        for p in range(n):
            apk = A[p, k]
            if apk:
                for lx in range(n):
                    coeff = c[i, j, lx]
                    if coeff:
                        base = (p * n + lx) * n
                        for q in range(n):
                            block[q][base + q] += apk * coeff
        for lx in range(n):
            col_ki = (k * n + i) * n + lx
            col_kj = (k * n + j) * n + lx
            for q in range(n):
                s1 = s2 = 0
                for p in range(n):
                    if A[p, j]:
                        s1 += A[p, j] * c[lx, p, q]
                    if A[p, i]:
                        s2 += A[p, i] * c[p, lx, q]
                block[q][col_ki] -= s1
                block[q][col_kj] -= s2
        rows.extend(block)
    return Matrix(rows)
