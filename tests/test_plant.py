"""Block assembly, the regrouping permutation, and cost transformation."""

import numpy as np
import pytest
from scipy.linalg import block_diag

from coopmpc import (
    CostSpec,
    DimensionMismatch,
    NotPD,
    NotPSD,
    StructureViolation,
    SubsystemBlocks,
    build_composite,
    build_permutation,
    subsystem_partition,
    transform_cost,
    transform_plant,
)
from coopmpc.linalg import block_slices
from coopmpc.plant import CompositePlant

from oracles import dense_transform_cost
from support import random_dims, random_spd


def scalar_two_agent(a=None, b=None):
    a = a if a is not None else [[0.3, -0.2], [0.5, 0.7]]
    b = b if b is not None else [[1.0, 2.0], [3.0, 4.0]]
    blocks = SubsystemBlocks(
        dims=[[1, 1], [1, 1]],
        A=[[[[a[0][0]]], [[a[0][1]]]], [[[a[1][0]]], [[a[1][1]]]]],
        B=[[[[b[0][0]]], [[b[0][1]]]], [[[b[1][0]]], [[b[1][1]]]]],
        m=(1, 1),
    )
    return blocks, np.asarray(a), np.asarray(b)


class TestPermutation:
    def test_two_agent_unit_blocks(self):
        pmap = build_permutation([[1, 1], [1, 1]])
        eye = np.eye(4)
        expected = np.array([eye[0], eye[2], eye[1], eye[3]])
        assert np.array_equal(pmap.T, expected)
        assert pmap.bar_dims == (2, 2)

    def test_single_agent_identity(self):
        pmap = build_permutation([[3]])
        assert np.array_equal(pmap.T, np.eye(3))

    def test_uniform_three_agent(self):
        pmap = build_permutation(2 * np.ones((3, 3), dtype=int))
        assert pmap.T.shape == (18, 18)
        assert np.array_equal(pmap.T.T @ pmap.T, np.eye(18))

    def test_orthogonal_on_random_tables(self, rng_factory):
        rng = rng_factory(11)
        for _ in range(25):
            dims = random_dims(rng)
            pmap = build_permutation(dims)
            n = pmap.n
            assert np.array_equal(pmap.T.T @ pmap.T, np.eye(n))
            assert np.array_equal(pmap.T @ pmap.T.T, np.eye(n))
            assert pmap.bar_dims == tuple(int(v) for v in dims.sum(axis=0))
            x = rng.normal(size=n)
            assert np.max(np.abs(pmap.to_original(pmap.to_regrouped(x)) - x)) <= 1e-12

    def test_permutation_rows_and_columns_once(self, rng_factory):
        rng = rng_factory(12)
        pmap = build_permutation(random_dims(rng, M_max=4))
        assert np.array_equal(pmap.T.sum(axis=0), np.ones(pmap.n))
        assert np.array_equal(pmap.T.sum(axis=1), np.ones(pmap.n))

    def test_index_maps_equal_dense_products(self, rng_factory):
        # T is 0/1, so indexing by the permutation gives T's products exactly
        rng = rng_factory(13)
        zero_blocks = empty_rows = 0
        for _ in range(40):
            dims = random_dims(rng, M_max=4)
            zero_blocks += int(np.sum(dims == 0))
            pmap = build_permutation(dims)
            T = pmap.T
            n = pmap.n
            x = rng.normal(size=n)
            X = rng.normal(size=(n, 3))
            S = rng.normal(size=(n, n))
            assert np.array_equal(pmap.to_regrouped(x), T.T @ x)
            assert np.array_equal(pmap.to_original(x), T @ x)
            assert np.array_equal(pmap.to_regrouped(X), T.T @ X)
            assert np.array_equal(pmap.to_original(X), T @ X)
            assert np.array_equal(pmap.to_regrouped_matrix(S), T.T @ S @ T)
            # per-subsystem weight blocks, empty for a row of zeros
            sizes = dims.sum(axis=1)
            empty_rows += int(np.sum(sizes == 0))
            blocks = [rng.normal(size=(k, k)) for k in sizes]
            assert np.array_equal(pmap.regroup_blocks(blocks), T.T @ block_diag(*blocks) @ T)
            original = T @ S @ T.T
            for i, s in enumerate(block_slices(sizes)):
                assert np.array_equal(pmap.subsystem_block(S, i), original[s, s])
        assert zero_blocks > 0 and empty_rows > 0

    def test_index_maps_reject_wrong_length(self):
        pmap = build_permutation([[1, 1], [1, 1]])
        for bad in (np.zeros(3), np.zeros(5), np.array(1.0)):
            with pytest.raises(DimensionMismatch):
                pmap.to_regrouped(bad)
            with pytest.raises(DimensionMismatch):
                pmap.to_original(bad)
        with pytest.raises(DimensionMismatch):
            pmap.to_regrouped_matrix(np.zeros((4, 3)))
        with pytest.raises(DimensionMismatch):
            pmap.subsystem_block(np.zeros((3, 3)), 0)
        with pytest.raises(DimensionMismatch, match=r"Q\[1\] must be 2x2"):
            pmap.regroup_blocks([np.eye(2), np.eye(3)], "Q")
        with pytest.raises(DimensionMismatch):
            pmap.regroup_blocks([np.eye(2)])

    def test_group_slices_built_once(self):
        pmap = build_permutation([[1, 2], [0, 1]])
        assert pmap.group_slices() is pmap.group_slices()
        assert pmap.group_slices() == (slice(0, 1), slice(1, 4))

    def test_undriven_column_rejected(self):
        with pytest.raises(DimensionMismatch):
            build_permutation([[1, 0], [1, 0]])

    def test_nonsquare_table_rejected(self):
        with pytest.raises(DimensionMismatch):
            build_permutation([[1, 1]])


class TestComposite:
    def test_scalar_two_agent_layout(self):
        blocks, a, b = scalar_two_agent()
        plant = build_composite(blocks)
        assert np.array_equal(plant.A, np.diag([a[0, 0], a[0, 1], a[1, 0], a[1, 1]]))
        assert np.array_equal(plant.B[0].reshape(-1), [b[0, 0], 0.0, b[1, 0], 0.0])
        assert np.array_equal(plant.B[1].reshape(-1), [0.0, b[0, 1], 0.0, b[1, 1]])

    def test_block_placement_random(self, rng_factory):
        rng = rng_factory(21)
        dims = random_dims(rng, M_max=4, nonempty_rows=True)
        M = dims.shape[0]
        A = [[rng.normal(size=(dims[i, j], dims[i, j])) for j in range(M)] for i in range(M)]
        B = [[rng.normal(size=(dims[i, j], 1)) for j in range(M)] for i in range(M)]
        blocks = SubsystemBlocks(dims=dims, A=A, B=B, m=(1,) * M)
        plant = build_composite(blocks)
        # composite A carries each block on its diagonal and nothing else
        off = 0
        for i in range(M):
            for j in range(M):
                nij = int(dims[i, j])
                assert np.array_equal(plant.A[off : off + nij, off : off + nij], A[i][j])
                off += nij
        assert np.count_nonzero(plant.A) <= sum(
            int(dims[i, j]) ** 2 for i in range(M) for j in range(M)
        )

    def test_bad_input_block_shape(self):
        with pytest.raises(DimensionMismatch):
            SubsystemBlocks(
                dims=[[1, 1], [1, 1]],
                A=[[[[1.0]], [[1.0]]], [[[1.0]], [[1.0]]]],
                B=[[[[1.0, 2.0]], [[1.0]]], [[[1.0]], [[1.0]]]],
                m=(1, 1),
            )


class TestTransformPlant:
    def test_scalar_two_agent_groups(self):
        blocks, a, b = scalar_two_agent()
        plant = build_composite(blocks)
        tp = transform_plant(plant, build_permutation(blocks.dims))
        assert np.array_equal(tp.Abar[0], np.diag([a[0, 0], a[1, 0]]))
        assert np.array_equal(tp.Abar[1], np.diag([a[0, 1], a[1, 1]]))
        assert np.array_equal(tp.Btilde[0].reshape(-1), [b[0, 0], b[1, 0]])
        assert np.array_equal(tp.Btilde[1].reshape(-1), [b[0, 1], b[1, 1]])

    def test_identity_dynamics_stay_identity(self, rng_factory):
        rng = rng_factory(31)
        dims = random_dims(rng, M_max=4, nonempty_rows=True)
        M = dims.shape[0]
        A = [[np.eye(int(dims[i, j])) for j in range(M)] for i in range(M)]
        B = [[np.ones((int(dims[i, j]), 1)) for j in range(M)] for i in range(M)]
        blocks = SubsystemBlocks(dims=dims, A=A, B=B, m=(1,) * M)
        tp = transform_plant(build_composite(blocks), build_permutation(dims))
        for Ab in tp.Abar:
            assert np.array_equal(Ab, np.eye(Ab.shape[0]))

    def test_spectrum_preserved(self, rng_factory):
        from scipy.linalg import block_diag

        rng = rng_factory(32)
        for _ in range(10):
            dims = random_dims(rng, M_max=4, nonempty_rows=True)
            M = dims.shape[0]
            A = [[rng.normal(size=(dims[i, j], dims[i, j])) for j in range(M)] for i in range(M)]
            B = [[rng.normal(size=(dims[i, j], 1)) for j in range(M)] for i in range(M)]
            blocks = SubsystemBlocks(dims=dims, A=A, B=B, m=(1,) * M)
            plant = build_composite(blocks)
            tp = transform_plant(plant, build_permutation(dims))
            got = np.sort_complex(np.linalg.eigvals(block_diag(*tp.Abar)))
            want = np.sort_complex(np.linalg.eigvals(plant.A))
            assert np.max(np.abs(got - want)) <= 1e-9

    def test_round_trip_recovers_plant(self, rng_factory):
        from scipy.linalg import block_diag

        rng = rng_factory(33)
        dims = random_dims(rng, M_max=4, nonempty_rows=True)
        M = dims.shape[0]
        A = [[rng.normal(size=(dims[i, j], dims[i, j])) for j in range(M)] for i in range(M)]
        B = [[rng.normal(size=(dims[i, j], 2)) for j in range(M)] for i in range(M)]
        blocks = SubsystemBlocks(dims=dims, A=A, B=B, m=(2,) * M)
        plant = build_composite(blocks)
        pmap = build_permutation(dims)
        tp = transform_plant(plant, pmap)
        T = pmap.T
        assert np.max(np.abs(T @ block_diag(*tp.Abar) @ T.T - plant.A)) <= 1e-12
        slices = pmap.group_slices()
        for i in range(M):
            Bi = np.zeros((pmap.n, 2))
            Bi[slices[i]] = tp.Btilde[i]
            assert np.max(np.abs(T @ Bi - plant.B[i])) <= 1e-12

    def test_index_transform_equals_dense_products(self, rng_factory):
        rng = rng_factory(34)
        zero_blocks = 0
        for _ in range(30):
            dims = random_dims(rng, M_max=4, nonempty_rows=True)
            zero_blocks += int(np.sum(dims == 0))
            M = dims.shape[0]
            A = [[rng.normal(size=(dims[i, j], dims[i, j])) for j in range(M)] for i in range(M)]
            B = [[rng.normal(size=(dims[i, j], 2)) for j in range(M)] for i in range(M)]
            plant = build_composite(SubsystemBlocks(dims=dims, A=A, B=B, m=(2,) * M))
            pmap = build_permutation(dims)
            tp = transform_plant(plant, pmap)
            T = pmap.T
            Ab = T.T @ plant.A @ T
            for i, s in enumerate(pmap.group_slices()):
                assert np.array_equal(tp.Abar[i], Ab[s, s])
                assert np.array_equal(tp.Btilde[i], (T.T @ plant.B[i])[s, :])
        assert zero_blocks > 0

    def test_cross_block_coupling_rejected(self):
        blocks, _, _ = scalar_two_agent()
        plant = build_composite(blocks)
        bad = plant.A.copy()
        bad[0, 1] = 0.1
        broken = CompositePlant(A=bad, B=plant.B, dims=plant.dims, m=plant.m)
        with pytest.raises(StructureViolation):
            transform_plant(broken, build_permutation(blocks.dims))

    def test_misplaced_input_rejected(self):
        blocks, _, _ = scalar_two_agent()
        plant = build_composite(blocks)
        B = [plant.B[0].copy(), plant.B[1].copy()]
        B[1][0, 0] = 0.5
        broken = CompositePlant(A=plant.A, B=B, dims=plant.dims, m=plant.m)
        with pytest.raises(StructureViolation):
            transform_plant(broken, build_permutation(blocks.dims))

    def test_mismatched_dims_rejected(self):
        blocks, _, _ = scalar_two_agent()
        plant = build_composite(blocks)
        with pytest.raises(DimensionMismatch):
            transform_plant(plant, build_permutation([[2, 1], [1, 1]]))

    def test_flagship_group_two_unstable_block(self, flagship):
        # group 2 carries the symmetric block whose characteristic roots
        # solve z^2 - 1.2 z + 0.19 = 0
        sub = flagship.tplant.Abar[1][2:4, 2:4]
        assert np.array_equal(sub, np.array([[0.2, 0.1], [0.1, 1.0]]))
        rho = np.max(np.abs(np.linalg.eigvals(sub)))
        assert abs(rho - 1.0123) <= 1e-3
        assert np.max(np.abs(np.linalg.eigvals(flagship.tplant.Abar[1]))) > 1.0


class TestTransformCost:
    def test_priority_scaling_frozen(self):
        pmap = build_permutation([[1, 1], [1, 1]])
        cost = CostSpec(Q=[np.eye(2), np.eye(2)], R=[[[1.0]], [[1.0]]], rho=[2.0, 1.0], N=3)
        tc = transform_cost(cost, pmap)
        assert np.array_equal(tc.Qbar, np.diag([2.0, 1.0, 2.0, 1.0]))
        assert np.array_equal(tc.Qa, tc.Qbar)
        assert np.array_equal(tc.Qtilde, np.zeros((4, 4)))

    def test_two_agent_cross_block(self, rng_factory):
        rng = rng_factory(41)
        pmap = build_permutation([[1, 1], [1, 1]])
        Q1 = random_spd(rng, 2, eps=0.3)
        Q2 = random_spd(rng, 2, eps=0.3)
        rho = (1.7, 0.6)
        tc = transform_cost(CostSpec(Q=[Q1, Q2], R=[[[1.0]], [[1.0]]], rho=rho, N=2), pmap)
        # regrouped cross-group block collects the per-subsystem cross terms
        want = np.diag([rho[0] * Q1[0, 1], rho[1] * Q2[0, 1]])
        assert np.max(np.abs(tc.Qbar[0:2, 2:4] - want)) <= 1e-12

    def test_spectrum_matches_scaled_stack(self, rng_factory):
        from scipy.linalg import block_diag

        rng = rng_factory(42)
        dims = random_dims(rng, M_max=4, nonempty_rows=True)
        M = dims.shape[0]
        pmap = build_permutation(dims)
        row_sizes = [int(dims[i, :].sum()) for i in range(M)]
        Q = [random_spd(rng, row_sizes[i], eps=0.2) for i in range(M)]
        rho = rng.uniform(0.5, 2.0, size=M)
        cost = CostSpec(Q=Q, R=[[[1.0]]] * M, rho=rho, N=2)
        tc = transform_cost(cost, pmap)
        got = np.sort(np.linalg.eigvalsh(tc.Qbar))
        want = np.sort(np.linalg.eigvalsh(block_diag(*[rho[i] * Q[i] for i in range(M)])))
        assert np.max(np.abs(got - want)) <= 1e-9

    def test_index_transform_equals_dense_products(self, rng_factory):
        rng = rng_factory(44)
        zero_blocks = 0
        for _ in range(30):
            dims = random_dims(rng, M_max=4, nonempty_rows=True)
            zero_blocks += int(np.sum(dims == 0))
            M = dims.shape[0]
            pmap = build_permutation(dims)
            rows = [int(r) for r in dims.sum(axis=1)]
            cost = CostSpec(
                Q=[random_spd(rng, r, eps=0.3) for r in rows],
                R=[random_spd(rng, 2, eps=0.3) for _ in range(M)],
                rho=rng.uniform(0.5, 2.0, size=M),
                N=2,
                P=[random_spd(rng, r, eps=0.3) for r in rows],
            )
            tc = transform_cost(cost, pmap)
            want = dense_transform_cost(pmap.T, pmap.bar_dims, cost.Q, cost.R, cost.rho, cost.P)
            for name, arr in want.items():
                got = getattr(tc, name)
                if name == "Rlocal":
                    assert all(np.array_equal(g, w) for g, w in zip(got, arr))
                else:
                    assert np.array_equal(got, arr), name
        assert zero_blocks > 0

    def test_split_structure(self, flagship):
        tc = flagship.tcost
        slices = flagship.group_slices()
        for s in slices:
            assert np.array_equal(tc.Qtilde[s, s], np.zeros((s.stop - s.start, s.stop - s.start)))
            assert np.array_equal(tc.Ptilde[s, s], np.zeros((s.stop - s.start, s.stop - s.start)))
        assert np.max(np.abs(tc.Qbar - tc.Qa - tc.Qtilde)) == 0.0
        assert np.max(np.abs(tc.Qbar - tc.Qbar.T)) == 0.0

    def test_group_diagonal_blocks_are_block_diagonal(self, flagship):
        # within one group, states owned by different subsystems never
        # share a stage-weight entry
        tc = flagship.tcost
        for s in flagship.group_slices():
            block = tc.Qbar[s, s]
            for r in range(0, 6, 2):
                for c in range(0, 6, 2):
                    if r != c:
                        assert np.array_equal(block[r : r + 2, c : c + 2], np.zeros((2, 2)))

    def test_flagship_coupling_indefinite(self, flagship):
        eigs = np.linalg.eigvalsh(flagship.tcost.Qtilde)
        assert eigs[0] < -1e-6 and eigs[-1] > 1e-6
        eigs = np.linalg.eigvalsh(flagship.tcost.Ptilde)
        assert eigs[0] < -1e-6 and eigs[-1] > 1e-6

    def test_block_diagonal_weights_no_coupling(self, rng_factory):
        from scipy.linalg import block_diag

        rng = rng_factory(43)
        dims = np.array([[1, 2], [2, 1]])
        pmap = build_permutation(dims)
        Q = [
            block_diag(random_spd(rng, 1), random_spd(rng, 2)),
            block_diag(random_spd(rng, 2), random_spd(rng, 1)),
        ]
        P = [Qi + np.eye(Qi.shape[0]) for Qi in Q]
        cost = CostSpec(Q=Q, R=[[[1.0]], [[1.0]]], rho=[1.0, 1.5], N=2, P=P)
        tc = transform_cost(cost, pmap)
        assert np.max(np.abs(tc.Qtilde)) == 0.0
        assert np.max(np.abs(tc.Ptilde)) == 0.0

    def test_subsystem_partition_blocks_psd(self, flagship):
        # every diagonal sub-partition of a valid stage weight is PSD
        dims = flagship.pmap.dims
        for i in range(3):
            Qi = flagship.cost.Q[i]
            for k in range(3):
                block = subsystem_partition(Qi, dims[i, :], k, k)
                assert np.linalg.eigvalsh(0.5 * (block + block.T))[0] >= -1e-9

    def test_subsystem_partition_indexing(self):
        X = np.arange(16.0).reshape(4, 4)
        got = subsystem_partition(X, [1, 3], 1, 0)
        assert np.array_equal(got, X[1:4, 0:1])

    def test_indefinite_weight_rejected(self):
        with pytest.raises(NotPSD):
            CostSpec(Q=[np.diag([1.0, -0.5])], R=[[[1.0]]], rho=[1.0], N=2)

    def test_semidefinite_input_weight_rejected(self):
        with pytest.raises(NotPD):
            CostSpec(Q=[np.eye(2)], R=[[[0.0]]], rho=[1.0], N=2)

    def test_nonpositive_priority_rejected(self):
        with pytest.raises(DimensionMismatch):
            CostSpec(Q=[np.eye(2)], R=[[[1.0]]], rho=[0.0], N=2)

    def test_zero_horizon_rejected(self):
        with pytest.raises(DimensionMismatch):
            CostSpec(Q=[np.eye(2)], R=[[[1.0]]], rho=[1.0], N=0)

    def test_wrong_weight_size_rejected(self):
        pmap = build_permutation([[1, 1], [1, 1]])
        cost = CostSpec(Q=[np.eye(3), np.eye(2)], R=[[[1.0]], [[1.0]]], rho=[1.0, 1.0], N=2)
        with pytest.raises(DimensionMismatch):
            transform_cost(cost, pmap)
