import random

import pytest

from oracles import KpElement, extended_residue_matrix
from unitindex.arith import factor_squarefree
from unitindex.errors import PreconditionViolated
from unitindex.redei import (
    F2Matrix,
    ordered_factors,
    rank_and_kernel,
    redei_rank4,
    split_residue_matrix,
)


def test_rank_and_kernel_trivial():
    rank, kernel = rank_and_kernel(F2Matrix((), 2))
    assert rank == 0
    assert kernel == [0b01, 0b10]
    rank, kernel = rank_and_kernel(F2Matrix((1, 2, 4), 3))
    assert rank == 3
    assert kernel == []


def test_rank_and_kernel_dependent_rows():
    rank, kernel = rank_and_kernel(F2Matrix((0b011, 0b101, 0b110), 3))
    assert rank == 2
    assert kernel == [0b111]


def test_rank_and_kernel_against_enumeration():
    rng = random.Random(67)
    for _ in range(200):
        cols = rng.randrange(1, 9)
        nrows = rng.randrange(0, 9)
        rows = tuple(rng.randrange(0, 1 << cols) for _ in range(nrows))
        mat = F2Matrix(rows, cols)
        rank, kernel = rank_and_kernel(mat)
        brute = [
            v
            for v in range(1 << cols)
            if all(bin(r & v).count("1") % 2 == 0 for r in rows)
        ]
        assert len(brute) == 1 << (cols - rank)
        for v in kernel:
            assert v in brute


def test_redei_rank4_known_values():
    assert redei_rank4(65) == 0
    assert redei_rank4(2405) == 0
    assert redei_rank4(5) == 0
    assert redei_rank4(1105) == 0
    assert redei_rank4(3445) == 0
    assert redei_rank4(34) == 1
    assert redei_rank4(3) == 0
    assert redei_rank4(2) == 0
    assert redei_rank4(10) == 0


def test_redei_rank4_accepts_prefactored():
    sd = factor_squarefree(2405)
    assert redei_rank4(sd) == 0


def test_ordered_factors():
    assert ordered_factors(factor_squarefree(65), 17) == ((13,), (5,))
    assert ordered_factors(factor_squarefree(65), 37) == ((), (5, 13))
    assert ordered_factors(factor_squarefree(1105), 53) == ((13, 17), (5,))
    assert ordered_factors(factor_squarefree(10), 13) == ((), (2, 5))


def test_split_residue_matrix_known():
    mat = split_residue_matrix(factor_squarefree(65), 37)
    assert mat.nrows == 0 and mat.cols == 2
    rank, kernel = rank_and_kernel(mat)
    assert rank == 0 and len(kernel) == 2

    mat = split_residue_matrix(factor_squarefree(65), 17)
    assert mat.rows == (0b11,)
    rank, kernel = rank_and_kernel(mat)
    assert rank == 1 and kernel == [0b11]


def test_split_residue_matrix_kernel_lower_bound():
    rng = random.Random(71)
    ds = [65, 85, 145, 205, 1105, 10, 130]
    count = 0
    while count < 100:
        d = factor_squarefree(rng.choice(ds))
        p = rng.randrange(2, 2000)
        from unitindex.arith import is_prime

        if not is_prime(p) or p % 4 != 1 or d.d % p == 0:
            continue
        split, inert = ordered_factors(d, p)
        mat = split_residue_matrix(d, p)
        rank, kernel = rank_and_kernel(mat)
        assert len(kernel) >= d.t - len(split)
        count += 1


def test_extended_matrix_worked_example():
    d = factor_squarefree(65)
    alpha = KpElement(-9, 2, 17)
    ext = extended_residue_matrix(d, 17, [alpha])
    assert ext.split == (13,) and ext.inert == (5,)
    assert ext.raw.rows == (0b110, 0b101, 0b011)
    assert ext.reduced.rows == (0b110, 0b001, 0b001)
    assert ext.kernel_dim == 1  # t - m


def test_extended_matrix_empty_split():
    d = factor_squarefree(65)
    ext = extended_residue_matrix(d, 37, [])
    assert ext.raw.rows == (0, 0)
    assert ext.kernel_dim == 2


def test_extended_matrix_flip_root_invariant_rank():
    d = factor_squarefree(65)
    alpha = KpElement(-9, 2, 17)
    a = extended_residue_matrix(d, 17, [alpha])
    b = extended_residue_matrix(d, 17, [alpha], flip_root=True)
    assert a.kernel_dim == b.kernel_dim
    assert rank_and_kernel(a.raw)[0] == rank_and_kernel(b.raw)[0]


def test_extended_matrix_even_d_inert_two():
    d = factor_squarefree(10)
    ext = extended_residue_matrix(d, 13, [])
    assert ext.kernel_dim == 2


def test_extended_matrix_rejects():
    d = factor_squarefree(65)
    with pytest.raises(PreconditionViolated):
        extended_residue_matrix(d, 17, [])  # missing generator
    with pytest.raises(PreconditionViolated):
        extended_residue_matrix(d, 17, [KpElement(4, 1, 17)])  # norm -1, not 13*square
    with pytest.raises(PreconditionViolated):
        extended_residue_matrix(factor_squarefree(10), 17, [KpElement(5, 1, 17)])  # dyadic split
