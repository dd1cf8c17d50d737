"""Workloads: the six paper kernels plus synthetic test patterns."""

from .base import Application, BarrierSequencer, block_partition, cyclic_partition, owner_of_row
from .fft import SixStepFFT
from .fwa import FloydWarshall
from .ge import GaussianElimination
from .gs import GramSchmidt
from .mm import MatrixMultiply
from .sor import RedBlackSOR
from .synthetic import HotBlock, PrivateWork, SharedReaders, UniformRandom

PAPER_APPS = {
    "FWA": FloydWarshall,
    "GS": GramSchmidt,
    "GE": GaussianElimination,
    "MM": MatrixMultiply,
    "SOR": RedBlackSOR,
    "FFT": SixStepFFT,
}

__all__ = [
    "Application",
    "BarrierSequencer",
    "block_partition",
    "cyclic_partition",
    "owner_of_row",
    "FloydWarshall",
    "GaussianElimination",
    "GramSchmidt",
    "MatrixMultiply",
    "RedBlackSOR",
    "SixStepFFT",
    "SharedReaders",
    "PrivateWork",
    "UniformRandom",
    "HotBlock",
    "PAPER_APPS",
]
