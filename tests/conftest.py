import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def dense_embed(n: int, mat: np.ndarray, qubits: tuple[int, ...]) -> np.ndarray:
    """Independent full-matrix oracle: embed a 1- or 2-qubit unitary into the
    2^n-dim space by explicit basis-state bookkeeping (little-endian)."""
    size = 2**n
    k = len(qubits)
    full = np.zeros((size, size), dtype=complex)
    for col in range(size):
        bits_in = [(col >> q) & 1 for q in qubits]
        col_small = sum(b << (k - 1 - i) for i, b in enumerate(bits_in))
        for row_small in range(2**k):
            amp = mat[row_small, col_small]
            if amp == 0:
                continue
            row = col
            for i, q in enumerate(qubits):
                bit = (row_small >> (k - 1 - i)) & 1
                row = (row & ~(1 << q)) | (bit << q)
            full[row, col] += amp
    return full


def random_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random single-qubit unitary (via QR)."""
    raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def zero_state(n: int) -> np.ndarray:
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = 1.0
    return amps


def random_state(n: int, rng: np.random.Generator) -> np.ndarray:
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return amps / np.linalg.norm(amps)


# Acceptance verdict lines collected by tests/test_acceptance.py; echoed after
# the run so they survive output capture.
VERDICTS: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)
