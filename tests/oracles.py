"""Independent routes that the tests compare the program against: dense
conditional expectations, Markov-map adjoints and kernel powers, the
pyramidal-correlation identity, the coupling's bijection tau, the lumped
fixture's enumeration, the S+ evaluation model and letter-word builders.

No command reads these; each is a second route to an object the package
computes, or a search that froze a fixture."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from finmarkov.checks import ProcessView, VerificationReport, markov_sequence_check
from finmarkov.dilation import ChainSpec, CouplingMap, build_markov_dilation
from finmarkov.finprob import AlgebraElement, FinSpace, MarkovKernel, Partition
from finmarkov.monoid import Word, _require_family, theta


# ---------------------------------------------------------------------------
# conditional expectations on FinSpace
# ---------------------------------------------------------------------------


def cond_exp(space: FinSpace, part: Partition, f: AlgebraElement) -> AlgebraElement:
    """Weighted block average: the state-preserving projection onto the
    subalgebra of block-constant functions."""
    if part.n != space.n:
        raise ValueError("partition does not match space")
    sums = [Fraction(0)] * part.nblocks
    masses = [Fraction(0)] * part.nblocks
    for i, lab in enumerate(part.labels):
        sums[lab] += space.weights[i] * f.values[i]
        masses[lab] += space.weights[i]
    vals = tuple(sums[lab] / masses[lab] for lab in part.labels)
    return AlgebraElement(space, vals)


def cond_exp_matrix(space: FinSpace, part: Partition):
    """The projection as an exact n x n rational matrix (desk-scale only)."""
    if space.n > 4096:
        raise ValueError("dense conditional-expectation matrix is desk-scale only")
    masses = [Fraction(0)] * part.nblocks
    for i, lab in enumerate(part.labels):
        masses[lab] += space.weights[i]
    return tuple(
        tuple(
            space.weights[j] / masses[part.labels[i]]
            if part.labels[i] == part.labels[j]
            else Fraction(0)
            for j in range(space.n)
        )
        for i in range(space.n)
    )


# ---------------------------------------------------------------------------
# Markov kernels: composition, powers and adjoints
# ---------------------------------------------------------------------------


def kernel_compose(T: MarkovKernel, other: MarkovKernel) -> MarkovKernel:
    """T ∘ other (apply other first)."""
    if other.target != T.source:
        raise ValueError("kernels not composable")
    rows = tuple(
        tuple(
            sum(T.rows[i][k] * other.rows[k][j] for k in range(T.source.n))
            for j in range(other.source.n)
        )
        for i in range(T.target.n)
    )
    return MarkovKernel(rows, other.source, T.target)


def kernel_power(T: MarkovKernel, n: int) -> MarkovKernel:
    if T.source != T.target:
        raise ValueError("powers need a square kernel")
    acc = MarkovKernel.square(
        [[int(i == j) for j in range(T.d)] for i in range(T.d)], T.source
    )
    for _ in range(n):
        acc = kernel_compose(T, acc)
    return acc


def markov_map_adjoint(T: MarkovKernel) -> MarkovKernel:
    """The unique adjoint with psi(T*(y)·x) = phi(y·T(x)); faithfulness of the
    source state makes the division well defined."""
    phi = T.target.weights
    psi = T.source.weights
    rows = tuple(
        tuple(phi[i] * T.rows[i][j] / psi[j] for i in range(T.target.n))
        for j in range(T.source.n)
    )
    return MarkovKernel(rows, T.target, T.source)


def adjoint_pairing_holds(T: MarkovKernel) -> bool:
    """Check psi(T*(1_i)·1_j) == phi(1_i·T(1_j)) on all basis pairs."""
    S = markov_map_adjoint(T)
    for i in range(T.target.n):
        for j in range(T.source.n):
            lhs = T.source.weights[j] * S.rows[j][i]
            rhs = T.target.weights[i] * T.rows[i][j]
            if lhs != rhs:
                return False
    return True


# ---------------------------------------------------------------------------
# pyramidal correlations
# ---------------------------------------------------------------------------


def qregression_check(view: ProcessView, transition, ks, a_elems, b_elems, law=None) -> VerificationReport:
    """Compare the model moment psi(iota_{k1}(a1 b1) ... iota_{kr}(ar br)),
    summed over the support of its law, with the nested transition-operator
    expression phi(a1 T^{k2-k1}(a2 ... T^{kr-k_{r-1}}(ar br) ...) b1), and, when a
    path law is supplied, with the brute-force path expectation."""
    report = VerificationReport()
    ks = tuple(ks)
    if list(ks) != sorted(ks) or len(set(ks)) != len(ks):
        raise ValueError("time indices must be strictly increasing")
    d = view.base.n
    a_elems = [tuple(Fraction(x) for x in a) for a in a_elems]
    b_elems = [tuple(Fraction(x) for x in b) for b in b_elems]

    def moment(cells, weights, den):
        total = Fraction(0)
        for cell, w in zip(cells, weights):
            factor = Fraction(int(w), den)
            for t, s in enumerate(cell):
                factor *= a_elems[t][s] * b_elems[t][s]
            total += factor
        return total

    model_law = view.quotient.marginal(ks)
    model_val = moment(model_law.values.T, model_law.weights, model_law.den)

    # nested pyramid: a1 T^{g1}( a2 T^{g2}( ... (ar br) ... ) b2 ) b1
    inner = tuple(a_elems[-1][s] * b_elems[-1][s] for s in range(d))
    for t in range(len(ks) - 2, -1, -1):
        gap = ks[t + 1] - ks[t]
        powered = kernel_power(transition, gap)
        moved = tuple(
            sum(powered.rows[i][j] * inner[j] for j in range(d)) for i in range(d)
        )
        inner = tuple(a_elems[t][s] * moved[s] * b_elems[t][s] for s in range(d))
    pyramid_val = sum(w * v for w, v in zip(view.base.weights, inner))

    report.add(
        "qregression",
        "psi(prod iota_{k_i}(a_i b_i)) = phi(a_1 T^{k_2-k_1}(... ) b_1)",
        model_val == pyramid_val,
        None if model_val == pyramid_val else f"model {model_val} vs pyramid {pyramid_val}",
    )
    if law is not None:
        num, den = law.marginal(ks)
        brute = moment(np.argwhere(num), num[num != 0], den)
        report.add(
            "qregression-path-law",
            "model moment equals the brute-force path expectation",
            model_val == brute,
            None if model_val == brute else f"model {model_val} vs paths {brute}",
        )
    return report


# ---------------------------------------------------------------------------
# the coupling's bijection tau
# ---------------------------------------------------------------------------
#
# Where the atom masses of the compact noise allow it, the coupling is also
# realized as a measure-preserving bijection of (state x noise) atoms (the
# map tau, fixing the diagonal pieces pointwise).  A bijective refinement
# does not exist for every chain: if some state flows entirely into a single
# state of different stationary mass, every candidate atom image must shrink
# by a fixed ratio, which no finite atom set supports.


def coupling_tau(coupling: CouplingMap) -> np.ndarray | None:
    """The bijection tau, flat (d * nc) -> flat (d * nc), validated, or
    None where the atom masses do not tie out."""
    perm = _try_perm(coupling.base.weights, coupling.noise.space.weights, coupling.target)
    if perm is not None:
        validate_perm(coupling, perm)
    return perm


def validate_perm(coupling: CouplingMap, perm) -> None:
    """Raise unless perm is a mass-preserving bijection of the atoms that
    sends every atom into its own piece."""
    d, nc = coupling.target.shape
    flat = np.asarray(perm, dtype=np.int64)
    if sorted(flat.tolist()) != list(range(d * nc)):
        raise ValueError("perm is not a bijection")
    lam = coupling.noise.space.weights
    pi = coupling.base.weights
    for i in range(d):
        for c in range(nc):
            j, c2 = divmod(int(flat[i * nc + c]), nc)
            if j != int(coupling.target[i, c]):
                raise ValueError(f"perm sends ({i},{c}) off its piece")
            if pi[i] * lam[c] != pi[j] * lam[c2]:
                raise ValueError(f"perm does not preserve the mass of ({i},{c})")


def _try_perm(pi, lam, target) -> np.ndarray | None:
    """Mass-class matching: a bijection exists iff, for every target fiber,
    the incoming atom masses tie out with the fiber's own atom masses.
    Diagonal atoms are fixed pointwise first."""
    d, nc = target.shape
    receivers: dict[tuple[int, Fraction], list[int]] = {}
    for j in range(d):
        for c in range(nc):
            receivers.setdefault((j, pi[j] * lam[c]), []).append(j * nc + c)
    sources: dict[tuple[int, Fraction], list[int]] = {}
    diag = []
    for i in range(d):
        for c in range(nc):
            j = int(target[i, c])
            if j == i:
                diag.append(i * nc + c)
            else:
                sources.setdefault((j, pi[i] * lam[c]), []).append(i * nc + c)
    perm = np.full(d * nc, -1, dtype=np.int64)
    for flat in diag:  # tau is the identity on the diagonal pieces
        perm[flat] = flat
        i, c = divmod(flat, nc)
        receivers[(i, pi[i] * lam[c])].remove(flat)
    for key, srcs in sources.items():
        rec = receivers.get(key, [])
        if len(rec) < len(srcs):
            return None
        for s, t in zip(srcs, rec[: len(srcs)]):
            perm[s] = t
        del rec[: len(srcs)]
    if any(rest for rest in receivers.values()):
        return None
    return perm


# ---------------------------------------------------------------------------
# lumped processes
# ---------------------------------------------------------------------------


def find_lumped_fixture(max_den: int = 4, horizon: int = 3):
    """First 3-state chain (entries with denominator max_den) and 2-block
    lumping whose image process fails the Markov property.

    Deterministic enumeration order; the first hit is frozen as a fixture.
    """
    maps = ([0, 0, 1], [0, 1, 0], [0, 1, 1])
    rows_choices = [
        tuple(Fraction(k, max_den) for k in parts)
        for parts in _compositions(max_den, 3)
    ]
    for r0 in rows_choices:
        for r1 in rows_choices:
            for r2 in rows_choices:
                try:
                    spec = ChainSpec.from_rows([r0, r1, r2])
                except ValueError:
                    continue
                model = build_markov_dilation(spec, horizon)
                view = ProcessView.from_model(model)
                for f in maps:
                    lumped = view.lump(f)
                    rep = markov_sequence_check(lumped)
                    if not rep.entries[0].ok:
                        return spec, list(f)
    raise RuntimeError("no lumped counterexample in range")


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------


def gword(*indices: int) -> Word:
    return Word(tuple(("g", i) for i in indices))


def hword(*indices: int) -> Word:
    return Word(tuple(("h", i) for i in indices))


def splus_apply(w: Word, x: int) -> int:
    """Evaluate the composite of partial shifts named by an h-word at x.

    The leftmost letter applies last (operator composition order).
    """
    _require_family(w, "h", "splus_apply")
    return _splus_eval(w, x)


def _splus_eval(w: Word, x: int) -> int:
    """splus_apply on a word already checked to hold only h-letters."""
    for _, k in reversed(w.letters):
        x = theta(k, x)
    return x


def project_to_splus(w: Word) -> Word:
    """Canonical epimorphism F+ ->> S+, letterwise g_n -> h_n."""
    _require_family(w, "g", "project_to_splus")
    return Word(tuple(("h", i) for _, i in w.letters))
