"""SVM core: kernels, ridge Gram, dual solver, decision function."""

import math

import numpy as np
import pytest
from conftest import model_fields
from hypothesis import given, settings
from hypothesis import strategies as st
from qp_reference import closed_form_kernel, reference_decision_function, solve_reference
from wss2_reference import solve_dual_reference

from netdiag.errors import DimensionMismatch, NonFiniteInput, TrainingError
from netdiag.svm import (
    KERNEL_VARIANTS,
    KernelSpec,
    SvmConfig,
    decision_value,
    default_sigma,
    gram_matrix,
    kernel_matrix,
    solve_dual,
    solve_duals,
    train_arrays,
)

LIN = KernelSpec("linear")
QUAD = KernelSpec("quadratic")


def classify(model, x) -> int:
    """+1 iff the decision value is >= 0 (boundary goes to +1)."""
    return 1 if decision_value(model, x) >= 0 else -1


def kkt_satisfied(X, y, alpha, bias, kernel, C, tol):
    K = kernel_matrix(kernel, X, X)
    d_full = K @ (alpha * y) + bias
    ok = True
    for i in range(len(y)):
        margin = y[i] * d_full[i] - 1.0 + alpha[i] / C
        if alpha[i] > tol:
            ok &= abs(margin) <= tol + 1e-9
        else:
            ok &= margin >= -(tol + 1e-9)
    return ok


def dual_objective(Kt, y, alpha) -> float:
    """sum(a) - 0.5 a' (yy' * Kt) a, the objective the solver maximizes."""
    ay = alpha * y
    return float(np.sum(alpha) - 0.5 * ay @ (Kt @ ay))


def train_with_state(X, y, config):
    """train_arrays's model and the solver state it is built from."""
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.float64)
    state = solve_dual(gram_matrix(config.kernel, X, config.C), y, config.tol, config.max_iter)
    return train_arrays(X, y, config), state


def kernel_entry(spec, x, z) -> float:
    """One entry of kernel_matrix, for a single pair of points."""
    return float(kernel_matrix(spec, [x], [z])[0, 0])


class TestKernels:
    def test_linear_dot(self):
        assert kernel_entry(LIN, (1, 2), (3, 4)) == 11.0

    def test_quadratic_closed_form(self):
        assert kernel_entry(QUAD, (1, 0), (1, 0)) == 4.0

    def test_rbf_identity(self):
        for sigma in (0.3, 1.0, 7.0):
            assert kernel_entry(KernelSpec("rbf", sigma), (1.5, -2.0), (1.5, -2.0)) == 1.0

    def test_cubic(self):
        assert kernel_entry(KernelSpec("cubic"), (1, 1), (2, 0)) == 27.0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for spec in (LIN, QUAD, KernelSpec("cubic"), KernelSpec("rbf", 1.3)):
            A, B = rng.normal(size=(3, 4)), rng.normal(size=(5, 4))
            assert np.allclose(kernel_matrix(spec, A, B), kernel_matrix(spec, B, A).T, rtol=0, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            kernel_matrix(LIN, [(1, 2)], [(1, 2, 3)])

    def test_matches_closed_form_reference(self):
        rng = np.random.default_rng(9)
        for spec in (LIN, QUAD, KernelSpec("cubic"), KernelSpec("rbf", 0.7), KernelSpec("rbf", 3.0)):
            A, B = rng.normal(size=(6, 5)), rng.normal(size=(4, 5))
            ref = [[closed_form_kernel(spec, a, b) for b in B] for a in A]
            assert np.allclose(kernel_matrix(spec, A, B), ref, rtol=1e-12, atol=1e-12)

    def test_rbf_requires_sigma(self):
        with pytest.raises(ValueError):
            KernelSpec("rbf")
        with pytest.raises(ValueError):
            KernelSpec("rbf", -1.0)

    @pytest.mark.filterwarnings("error")
    def test_narrowest_rbf_width_keeps_unit_cube_distances_finite(self):
        # 2 sigma^2 subnormal (1e-160) or just above the normal range (2e-154):
        # unit-cube distances over it overflowed into an identity kernel
        for sigma in (1e-160, 2e-154):
            with pytest.raises(ValueError, match="sigma"):
                KernelSpec("rbf", sigma)
        narrowest = KernelSpec("rbf", math.sqrt(2.0**-1001))
        corners = np.array([[0.0] * 74, [1.0] * 74])
        assert np.array_equal(kernel_matrix(narrowest, corners, corners), np.eye(2))


class TestGram:
    def test_single_point(self):
        G = gram_matrix(LIN, np.array([[0.0]]), C=1.0)
        assert G.shape == (1, 1) and G[0, 0] == 1.0

    def test_symmetry_exact(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(7, 3))
        G = gram_matrix(QUAD, X, C=10.0)
        assert np.array_equal(G, G.T)

    def test_ridge_shifts_spectrum(self):
        # rbf kernel matrices are PSD, so eigenvalues sit above the ridge
        rng = np.random.default_rng(2)
        X = rng.normal(size=(12, 4))
        C = 10.0
        G = gram_matrix(KernelSpec("rbf", 1.0), X, C)
        assert np.linalg.eigvalsh(G).min() >= 1.0 / C - 1e-9

    def test_diagonal_positive(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(5, 2))
        for spec in (LIN, QUAD, KernelSpec("cubic"), KernelSpec("rbf", 2.0)):
            assert np.all(np.diag(gram_matrix(spec, X, 5.0)) > 0)

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 200),
        q=st.integers(1, 100),
        variant=st.sampled_from(KERNEL_VARIANTS),
        C=st.sampled_from([0.5, 10.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gram_of_rows_is_a_sub_block(self, n, q, variant, C, seed):
        # The premise of solving each CV fold on a sub-block of its size's
        # Gram over all rows (features scaled to [0, 1], rows ascending):
        # the fold's own Gram, ridge included, equals that sub-block to
        # rounding, and bit for bit when both row counts are multiples of 8.
        # OpenBLAS's AVX-512 matrix product was seen to round the rows of a
        # last partial block of 8 differently; its Haswell and older
        # kernels gave equal bits at every size.
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(n, q))
        kernel = KernelSpec(variant, default_sigma(q) if variant == "rbf" else None)
        rows = np.flatnonzero(rng.uniform(size=n) < 0.8)
        for rows in (rows, np.sort(rng.permutation(n)[: 8 * (len(rows) // 8)])):
            own, block = gram_matrix(kernel, X[rows], C), gram_matrix(kernel, X, C)[np.ix_(rows, rows)]
            np.testing.assert_allclose(own, block, rtol=8 * q * np.finfo(float).eps, atol=0)
        if n % 8 == 0:
            assert np.array_equal(own, block)


class TestTrain:
    def test_analytic_margin_1d(self):
        # points 0 -> -1 and 2 -> +1 with a huge C: separator D(x) = x - 1
        X = np.array([[0.0], [2.0]])
        y = np.array([-1, 1])
        model = train_arrays(X, y, SvmConfig(LIN, C=1e6, max_iter=1000, tol=1e-9))
        assert abs(decision_value(model, [1.0])) <= 1e-3
        assert decision_value(model, [1.01]) > 0 > decision_value(model, [0.99])
        for x, want in ((0.0, -1.0), (2.0, 1.0)):
            assert decision_value(model, [x]) == pytest.approx(want, abs=1e-3)

    def test_margin_value_at_support_vector(self):
        X = np.array([[0.0], [2.0]])
        y = np.array([-1, 1])
        model, state = train_with_state(X, y, SvmConfig(LIN, C=1e6, max_iter=1000, tol=1e-9))
        alpha = state.alpha
        d2 = decision_value(model, [2.0])
        assert d2 > 0
        assert d2 == pytest.approx(1.0 - alpha[1] / 1e6, abs=1e-3)

    def test_xor_quadratic(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        y = np.array([-1, -1, 1, 1])
        model = train_arrays(X, y, SvmConfig(QUAD, C=10.0, max_iter=2000, tol=1e-6))
        preds = [classify(model, x) for x in X]
        assert preds == [-1, -1, 1, 1]

    def test_single_class_rejected(self):
        X = np.ones((3, 2))
        with pytest.raises(TrainingError, match="need both classes"):
            train_arrays(X, np.array([1, 1, 1]), SvmConfig(LIN))

    def test_nonfinite_rejected(self):
        X = np.array([[0.0], [np.nan]])
        with pytest.raises(NonFiniteInput):
            train_arrays(X, np.array([-1, 1]), SvmConfig(LIN))

    def test_training_consistency_on_separable(self):
        rng = np.random.default_rng(4)
        X = np.vstack([rng.normal(-2, 0.3, size=(10, 2)), rng.normal(2, 0.3, size=(10, 2))])
        y = np.array([-1] * 10 + [1] * 10)
        model = train_arrays(X, y, SvmConfig(LIN, C=10.0, tol=1e-6, max_iter=1000))
        assert all(classify(model, x) == yy for x, yy in zip(X, y))

    def test_classify_tie_goes_positive(self):
        X = np.array([[0.0], [2.0]])
        y = np.array([-1, 1])
        model = train_arrays(X, y, SvmConfig(LIN, C=1e6, tol=1e-9))
        # exactly at the boundary the sign rule must give +1
        assert classify(model, [1.0]) in (-1, 1)
        d = decision_value(model, [1.0])
        assert classify(model, [1.0]) == (1 if d >= 0 else -1)

    def test_objective_trace_nondecreasing(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(12, 3))
        y = np.where(rng.uniform(size=12) < 0.5, -1, 1)
        y[0], y[1] = -1, 1
        Kt = kernel_matrix(QUAD, X, X) + np.eye(12) / 10.0
        state, trace = solve_dual_reference(Kt, y.astype(float), tol=1e-6, max_iter=1000)
        assert_same_state(solve_dual(Kt, y.astype(float), tol=1e-6, max_iter=1000), state)
        assert np.all(np.diff(trace) >= -1e-12)

    def test_kkt_residuals_at_convergence(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            X = rng.normal(size=(10, 2))
            y = np.where(rng.uniform(size=10) < 0.5, -1, 1)
            y[0], y[1] = -1, 1
            for spec in (LIN, QUAD, KernelSpec("rbf", 1.0)):
                config = SvmConfig(spec, C=10.0, tol=1e-3, max_iter=5000)
                model, state = train_with_state(X, y, config)
                assert state.converged
                assert state.final_kkt_residual <= config.tol
                assert kkt_satisfied(X, y, state.alpha, model.bias, spec, config.C, config.tol)

    def test_label_swap_negates_decisions(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(14, 3))
        y = np.where(rng.uniform(size=14) < 0.5, -1, 1)
        y[0], y[1] = -1, 1
        cfg = SvmConfig(QUAD, C=10.0, tol=1e-8, max_iter=5000)
        m1 = train_arrays(X, y, cfg)
        m2 = train_arrays(X, -y, cfg)
        for x in rng.normal(size=(25, 3)):
            assert decision_value(m1, x) == pytest.approx(-decision_value(m2, x), abs=1e-9)

    def test_label_swap_same_alpha(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(20, 3))
        y = np.where(rng.uniform(size=20) < 0.5, -1.0, 1.0)
        y[0], y[1] = -1.0, 1.0
        Kt = kernel_matrix(QUAD, X, X) + np.eye(20) / 10.0
        a = solve_dual(Kt, y, tol=1e-6, max_iter=1000)
        b = solve_dual(Kt, -y, tol=1e-6, max_iter=1000)
        assert np.array_equal(a.alpha, b.alpha)
        assert a.updates == b.updates
        assert np.array_equal(a.bias_estimates, -b.bias_estimates)
        assert a.final_kkt_residual == b.final_kkt_residual

    def test_deterministic_model(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(10, 2))
        y = np.array([-1, 1] * 5)
        cfg = SvmConfig(KernelSpec("rbf", 0.9), C=1.0)
        assert model_fields(train_arrays(X, y, cfg)) == model_fields(train_arrays(X, y, cfg))

    def test_updates_recorded(self):
        X = np.array([[0.0], [2.0]])
        model, state = train_with_state(X, np.array([-1, 1]), SvmConfig(LIN, C=2.0))
        assert model.training_meta.updates == state.updates > 0

    def test_support_vector_invariants(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(16, 3))
        y = np.where(rng.uniform(size=16) < 0.5, -1, 1)
        y[0], y[1] = -1, 1
        cfg = SvmConfig(LIN, C=10.0, tol=1e-4, max_iter=5000)
        model, state = train_with_state(X, y, cfg)
        assert len(model.dual_coef) == len(model.support_vectors) >= 1
        kept = state.alpha[state.alpha > cfg.tol]
        assert np.all(kept > cfg.tol)
        sv_labels = np.sign(model.dual_coef)
        assert set(sv_labels.tolist()) <= {-1.0, 1.0}


class TestOracle:
    @pytest.mark.parametrize("kernel", [LIN, QUAD, KernelSpec("cubic"), KernelSpec("rbf", 1.0)])
    @pytest.mark.parametrize("C", [1.0, 10.0])
    def test_matches_projected_gradient(self, kernel, C):
        rng = np.random.default_rng(hash((kernel.variant, C)) % 2**32)
        n, q = 7, 3
        X = rng.normal(size=(n, q))
        y = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
        y[0], y[1] = -1.0, 1.0
        Kt = kernel_matrix(kernel, X, X) + np.eye(n) / C
        state = solve_dual(Kt, y, tol=1e-8, max_iter=100_000)
        _, ref_obj = solve_reference(Kt, y, tol=1e-8)
        assert dual_objective(Kt, y, state.alpha) == pytest.approx(ref_obj, abs=1e-4)

    @pytest.mark.parametrize("kernel", [LIN, QUAD, KernelSpec("cubic"), KernelSpec("rbf", 1.0)])
    def test_matches_reference_n25(self, kernel):
        rng = np.random.default_rng(25)
        n = 25
        X = 0.5 * rng.normal(size=(n, 3))
        y = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
        y[0], y[1] = -1.0, 1.0
        Kt = kernel_matrix(kernel, X, X) + np.eye(n)
        state = solve_dual(Kt, y, tol=1e-8, max_iter=100_000)
        alpha_ref, ref_obj = solve_reference(Kt, y, tol=1e-8)
        assert state.converged
        assert dual_objective(Kt, y, state.alpha) == pytest.approx(ref_obj, abs=1e-8)
        assert np.allclose(state.alpha, alpha_ref, atol=1e-5)

    def test_classifications_agree(self):
        rng = np.random.default_rng(123)
        kernel, C = QUAD, 10.0
        X = rng.normal(size=(8, 2))
        y = np.where(rng.uniform(size=8) < 0.5, -1.0, 1.0)
        y[0], y[1] = -1.0, 1.0
        cfg = SvmConfig(kernel, C=C, tol=1e-8, max_iter=100_000)
        model = train_arrays(X, y, cfg)
        Kt = kernel_matrix(kernel, X, X) + np.eye(8) / C
        alpha_ref, _ = solve_reference(Kt, y, tol=1e-8)
        D_ref, _ = reference_decision_function(
            X, y, alpha_ref, lambda a, b: closed_form_kernel(kernel, a, b), C
        )
        for x in rng.normal(size=(50, 2)):
            assert (decision_value(model, x) >= 0) == (D_ref(x) >= 0)


def random_problem(rng, n, variant, C):
    """A ridge-shifted Gram of n random points and labels with both classes."""
    X = rng.normal(size=(n, int(rng.integers(1, 5))))
    y = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
    y[0], y[1] = -y[1], y[1]
    kernel = KernelSpec(variant, float(rng.uniform(0.5, 2.0)) if variant == "rbf" else None)
    return kernel_matrix(kernel, X, X) + np.eye(n) / C, y


def assert_same_state(state, ref):
    assert np.array_equal(state.alpha, ref.alpha)
    assert np.array_equal(state.bias_estimates, ref.bias_estimates)
    assert state.updates == ref.updates
    assert state.iterations_used == ref.iterations_used
    assert state.converged == ref.converged
    assert state.final_kkt_residual == ref.final_kkt_residual


def pool_of(grams, n=None):
    """The (count, n, n) zero-padded pool of `solve_duals` holding grams."""
    n = n or max(len(K) for K in grams)
    pool = np.zeros((len(grams), n, n))
    for g, K in enumerate(grams):
        pool[g, : len(K), : len(K)] = K
    return pool


def whole(problems):
    """Each (K, y, tol, max_iter) as a pool and problems over all of K's points."""
    pool = pool_of([K for K, *_ in problems])
    return pool, [(g, np.arange(len(y)), y, tol, max_iter) for g, (_, y, tol, max_iter) in enumerate(problems)]


class TestLockstep:
    """Each problem of a stack takes exactly the path it takes alone in the
    scalar reference loop, padding and neighbours notwithstanding."""

    @pytest.mark.parametrize("seed", range(16))
    def test_stack_matches_scalar_reference(self, seed):
        rng = np.random.default_rng(1000 + seed)
        problems = []
        for p in range(1 + seed % 8):
            variant = KERNEL_VARIANTS[(seed + p) % len(KERNEL_VARIANTS)]
            problems.append(random_problem(rng, int(rng.integers(2, 40)), variant, float(rng.choice([0.5, 10.0]))))
        tol = float(rng.choice([1e-3, 1e-6]))
        states = solve_duals(*whole([(K, y, tol, 1000) for K, y in problems]))
        assert len(states) == len(problems)
        for state, (K, y) in zip(states, problems):
            assert_same_state(state, solve_dual_reference(K, y, tol, 1000)[0])

    def test_kernels_flipped_labels_and_cap(self):
        rng = np.random.default_rng(0)
        problems = [random_problem(rng, n, v, 10.0) for n, v in zip((9, 23, 14, 31), KERNEL_VARIANTS)]
        problems.append(random_problem(rng, 80, "linear", 1e4))
        for _, y in problems[::2]:
            y *= -y[0]  # y[0] = -1
        states = solve_duals(*whole([(K, y, 1e-6, 10) for K, y in problems]))
        refs = [solve_dual_reference(K, y, 1e-6, 10)[0] for K, y in problems]
        assert {ref.converged for ref in refs} == {True, False}
        for state, ref in zip(states, refs):
            assert_same_state(state, ref)

    def test_single_problem_is_solve_dual(self):
        rng = np.random.default_rng(3)
        K, y = random_problem(rng, 25, "cubic", 10.0)
        ref, _ = solve_dual_reference(K, y, 1e-3, 1000)
        assert_same_state(solve_dual(K, y, 1e-3, 1000), ref)
        # Padding beyond the Gram's points.
        (state,) = solve_duals(pool_of([K], 40), [(0, np.arange(25), y, 1e-3, 1000)])
        assert_same_state(state, ref)

    def test_per_problem_tolerances_and_caps(self):
        # One stack whose problems each bring their own tol and sweep cap;
        # the caps of 1 and 3 sweeps stop some problems early, next to
        # problems that converge.
        rng = np.random.default_rng(7)
        problems = []
        for p, (tol, max_iter) in enumerate([(1e-3, 1000), (1e-8, 1), (1e-6, 3), (1e-2, 2000), (1e-8, 1000), (1e-4, 1)] * 2):
            K, y = random_problem(rng, int(rng.integers(6, 40)), KERNEL_VARIANTS[p % len(KERNEL_VARIANTS)], 10.0)
            problems.append((K, y, tol, max_iter))
        refs = [solve_dual_reference(*problem)[0] for problem in problems]
        assert {ref.converged for ref in refs} == {True, False}
        assert len({(problem[2], ref.iterations_used) for problem, ref in zip(problems, refs)}) > 6
        states = solve_duals(*whole(problems))
        for state, ref in zip(states, refs):
            assert_same_state(state, ref)

    @pytest.mark.parametrize("C", [10.0, 1e16, 1e300])
    def test_held_out_duplicates_never_win_j(self, C):
        # Each problem leaves out copies of some of its own points.  The
        # curvature of a point and its held-out copy is 2/C, which rounds to
        # 0 for a large C, and its gain of 0 must not become 0/0 = NaN,
        # which argmax would pick.
        rng = np.random.default_rng(11)
        grams, problems, blocks = [], [], []
        for g, variant in enumerate(KERNEL_VARIANTS):
            n = int(rng.integers(8, 24))
            X = rng.normal(size=(n, 3))
            y = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
            y[0], y[1] = 1.0, -1.0
            copies = rng.choice(n, size=n // 2, replace=False)
            slot = rng.permutation(n + len(copies))  # copies interleaved with the originals
            X_all = np.empty((len(slot), 3))
            X_all[slot] = np.concatenate([X, X[copies]])
            y_all = np.zeros(len(slot))
            y_all[slot[:n]] = y
            kernel = KernelSpec(variant, 1.0 if variant == "rbf" else None)
            K = kernel_matrix(kernel, X_all, X_all) + np.eye(len(slot)) / C
            rows = np.sort(slot[:n])
            grams.append(K)
            problems.append((g, rows, y_all[rows], 1e-3, 50))
            blocks.append(K[np.ix_(rows, rows)])
        states = solve_duals(pool_of(grams), problems)
        for state, (_, _, y, tol, max_iter), K in zip(states, problems, blocks):
            assert_same_state(state, solve_dual_reference(K, y, tol, max_iter)[0])

    @settings(max_examples=40, deadline=None)
    @given(
        sizes=st.lists(st.integers(4, 40), min_size=1, max_size=3),
        shared=st.integers(1, 4),
        tol=st.sampled_from([1e-3, 1e-6]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_problems_on_sub_blocks_of_shared_grams(self, sizes, shared, tol, seed):
        # Grams of different sizes in one call, each shared by several
        # problems whose left-out points fall anywhere, not only at the end.
        rng = np.random.default_rng(seed)
        grams, problems, blocks = [], [], []
        for g, n in enumerate(sizes):
            K, y = random_problem(rng, n, KERNEL_VARIANTS[int(rng.integers(len(KERNEL_VARIANTS)))], float(rng.choice([0.5, 10.0])))
            grams.append(K)
            for _ in range(shared):
                keep = rng.uniform(size=n) < 0.7
                keep[:2] = True  # points 0 and 1 carry both classes
                rows = np.flatnonzero(keep)
                max_iter = int(rng.choice([2, 1000]))
                problems.append((g, rows, y[rows], tol, max_iter))
                blocks.append(K[np.ix_(rows, rows)])
        states = solve_duals(pool_of(grams), problems)
        for state, (_, _, y, tol, max_iter), K in zip(states, problems, blocks):
            assert_same_state(state, solve_dual_reference(K, y, tol, max_iter)[0])


class TestSolverProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(2, 12),
        q=st.integers(1, 4),
        variant=st.sampled_from(KERNEL_VARIANTS),
        C=st.sampled_from([0.5, 10.0]),
        tol=st.sampled_from([1e-3, 1e-6]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_dual_invariants(self, n, q, variant, C, tol, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, q))
        y = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
        if abs(y.sum()) == n:
            y[0] = -y[0]
        kernel = KernelSpec(variant, 1.0 if variant == "rbf" else None)
        Kt = kernel_matrix(kernel, X, X) + np.eye(n) / C
        state = solve_dual(Kt, y, tol=tol, max_iter=200)
        assert np.all(state.alpha >= 0)
        assert abs(y @ state.alpha) <= 1e-9 * max(1.0, state.alpha.sum())
        # The objective starts at 0 (alpha = 0) and no pair update lowers it.
        assert dual_objective(Kt, y, state.alpha) >= 0
        if state.converged:
            assert state.final_kkt_residual <= tol
