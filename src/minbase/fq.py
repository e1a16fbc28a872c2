"""Small finite fields with full arithmetic tables, plus exact matrix and
subspace operations over them.

Field elements are integers 0..q-1 encoding coefficient vectors in base p
(constant coefficient first).  The modulus is the lexicographically
smallest monic irreducible of the right degree, and mu is the smallest
generator of the multiplicative group, so every construction is
reproducible.  The q-1 powers of mu give exp/log tables, from which the
multiplication, inverse and Frobenius tables are read; the addition
table is built one base-p digit at a time.  Arithmetic is then a table
lookup.  `Field` refuses q > 512.
"""

from __future__ import annotations

from functools import lru_cache


def factor_prime_power(q: int):
    """(p, f) with q = p^f, or raise.  Trial division stops at p*p > q: a
    q >= 2 with no divisor up to its square root is itself a prime."""
    p = 2
    while p * p <= q:
        if q % p == 0:
            f = 0
            while q % p == 0:
                q //= p
                f += 1
            if q != 1:
                raise ValueError("not a prime power")
            return p, f
        p += 1
    if q < 2:
        raise ValueError("not a prime power")
    return q, 1


def _digits(code, base, n):
    """The n lowest base-`base` digits of code, least significant first."""
    out = []
    for _ in range(n):
        code, d = divmod(code, base)
        out.append(d)
    return out


def _poly_mulmod(a, b, modulus, p):
    """Product of coefficient lists, reduced mod the monic modulus."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    f = len(modulus) - 1
    for i in range(len(out) - 1, f - 1, -1):
        c = out[i]
        if c:
            out[i] = 0
            for j in range(f):
                out[i - f + j] = (out[i - f + j] - c * modulus[j]) % p
    return out[:f] + [0] * (f - len(out))


def _is_irreducible(modulus, p):
    """Trial division by all monic polynomials of degree <= deg/2."""
    f = len(modulus) - 1
    if modulus[0] == 0:
        return False
    for d in range(1, f // 2 + 1):
        for code in range(p**d):
            div = _digits(code, p, d) + [1]
            # long division of modulus by div
            rem = list(modulus)
            for i in range(len(rem) - 1, d - 1, -1):
                coef = rem[i]
                if coef:
                    rem[i] = 0
                    for j in range(d):
                        rem[i - d + j] = (rem[i - d + j] - coef * div[j]) % p
            if not any(rem):
                return False
    return True


@lru_cache(maxsize=None)
def Fq(q: int) -> "Field":
    return Field(q)


class Field:
    """GF(q) with precomputed addition/multiplication/inverse tables."""

    def __init__(self, q: int):
        if q > 512:
            raise ValueError("table-based fields capped at q = 512")
        p, f = factor_prime_power(q)
        self.q = q
        self.p = p
        self.f = f
        if f == 1:
            modulus = [0, 1]
        else:
            candidates = (_digits(code, p, f) + [1] for code in range(p**f))
            modulus = next((c for c in candidates if _is_irreducible(c, p)), None)
            if modulus is None:
                raise RuntimeError(f"no monic irreducible of degree {f} over F_{p}")
        self.modulus = tuple(modulus)

        # exp[k] = mu^k for the least mu whose powers reach all q-1
        # nonzero codes; log is its inverse on 1..q-1
        n, one, weights = q - 1, _digits(1, p, f), [p**i for i in range(f)]
        for mu in range(1, q):
            gen = power = _digits(mu, p, f)
            exp = [1]
            while power != one:
                exp.append(sum(c * w for c, w in zip(power, weights)))
                power = _poly_mulmod(power, gen, modulus, p)
            if len(exp) == n:
                break
        self.mu = mu
        log = [0] * q
        for k, x in enumerate(exp):
            log[x] = k
        logs = log[1:]
        self.mul = [[0] * q]
        for lx in logs:
            row = exp[lx:] + exp[:lx]  # row[k] = mu^(log x + k)
            self.mul.append([0] + [row[ly] for ly in logs])
        self.inv = [0] + [exp[-lx % n] for lx in logs]
        self.frob = [0] + [exp[p * lx % n] for lx in logs]

        # codes below p^(i+1) from those below p^i: the new top digits add mod p
        add = [[0]]
        for i in range(f):
            w = p**i
            add = [[(a + b) % p * w + s for b in range(p) for s in add[x]]
                   for a in range(p) for x in range(w)]
        self.add = add
        self.neg = [row.index(0) for row in add]

    def sub(self, x, y):
        return self.add[x][self.neg[y]]


# ---------------------------------------------------------------------------
# matrices and subspaces (tuples of tuples of field codes)


def mat_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_vec(F, A, v):
    add, mul = F.add, F.mul
    out = []
    for row in A:
        acc = 0
        for a, x in zip(row, v):
            acc = add[acc][mul[a][x]]
        out.append(acc)
    return tuple(out)


def mat_transpose(A):
    return tuple(zip(*A))


def mat_det(F, A):
    n = len(A)
    m = [list(row) for row in A]
    det = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = F.neg[det]
        det = F.mul[det][m[col][col]]
        inv = F.inv[m[col][col]]
        for r in range(col + 1, n):
            if m[r][col]:
                factor = F.mul[m[r][col]][inv]
                for c in range(col, n):
                    m[r][c] = F.sub(m[r][c], F.mul[factor][m[col][c]])
    return det


def rref(F, rows):
    """Reduced row echelon form; returns tuple of nonzero rows (canonical)."""
    m = [list(r) for r in rows]
    ncols = len(m[0]) if m else 0
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = F.inv[m[r][c]]
        m[r] = [F.mul[inv][x] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                factor = m[i][c]
                m[i] = [F.sub(x, F.mul[factor][y]) for x, y in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    out = [tuple(row) for row in m[:r] if any(row)]
    return tuple(out)


def nullspace(F, rows, ncols):
    """Basis of {v : row . v = 0 for every row}, one vector per free column
    of the RREF (ascending), with 1 there and 0 in the other free columns."""
    echelon = rref(F, rows)
    pivots = [next(c for c, x in enumerate(row) if x) for row in echelon]
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [0] * ncols
        v[fc] = 1
        for row, pc in zip(echelon, pivots):
            v[pc] = F.neg[row[fc]]
        basis.append(tuple(v))
    return basis


def subspace_canonical(F, vectors):
    """Canonical form (RREF basis) of the span of the given vectors."""
    return rref(F, [v for v in vectors if any(v)])


def bilinear(F, form, u, v):
    fu = mat_vec(F, form, u)
    acc = 0
    for a, b in zip(fu, v):
        acc = F.add[acc][F.mul[a][b]]
    return acc


def frobenius_vec(F, v):
    return tuple(F.frob[x] for x in v)


def frobenius_subspace(F, canon):
    return subspace_canonical(F, [frobenius_vec(F, v) for v in canon])


def code_vector(F, code, n):
    """The vector of F_q^n whose code is code: its base-q digits, least
    significant first, so code is its index in all_vectors(F, n)."""
    return tuple(_digits(code, F.q, n))


def vector_code(F, v):
    """The code of a vector, sum of v_i q^i: the inverse of code_vector."""
    return sum(x * F.q**i for i, x in enumerate(v))


def all_vectors(F, n):
    q = F.q
    for code in range(q**n):
        yield tuple(_digits(code, q, n))
