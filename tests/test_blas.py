import numpy as np
import pytest

from baitline import blas

needs_openblas = pytest.mark.skipif(blas._openblas is None, reason="numpy's BLAS is not OpenBLAS")


@pytest.fixture
def two_threads():
    """Two OpenBLAS threads for the test, then the count it found."""
    previous = blas.describe()["threads"]
    blas._openblas.set_num_threads(2)
    yield
    blas._openblas.set_num_threads(previous)


@needs_openblas
def test_describe_names_the_kernel():
    facts = blas.describe()
    assert facts["core"] and facts["core"] in facts["config"]
    assert facts["config"].startswith("OpenBLAS")
    assert isinstance(facts["threads"], int) and facts["threads"] >= 1


@needs_openblas
def test_single_thread_restores_the_count(two_threads):
    with blas.single_thread():
        assert blas.describe()["threads"] == 1
        with blas.single_thread():
            assert blas.describe()["threads"] == 1
        assert blas.describe()["threads"] == 1
    assert blas.describe()["threads"] == 2


@needs_openblas
def test_single_thread_restores_the_count_when_the_block_raises(two_threads):
    with pytest.raises(ZeroDivisionError), blas.single_thread():
        assert blas.describe()["threads"] == 1
        1 / 0
    assert blas.describe()["threads"] == 2


def test_without_openblas_is_a_reported_no_op(monkeypatch):
    assert blas._find(None) is None  # the interpreter exports no OpenBLAS
    assert blas._find("no-such-library.so") is None
    monkeypatch.setattr(blas, "_openblas", None)
    facts = blas.describe()
    assert facts["core"] is facts["config"] is facts["threads"] is None
    assert "no-op" in facts["note"]
    a = np.arange(12.0).reshape(3, 4)
    with blas.single_thread():
        product = a @ a.T
    assert np.array_equal(product, a @ a.T)
    with pytest.raises(KeyError), blas.single_thread():
        raise KeyError("raised through")
