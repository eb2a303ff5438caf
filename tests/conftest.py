import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def fresh_lapack():
    """Clears the diffusion solve's per-process LAPACK choice and its factor
    cache before and after a test."""
    import nclaw.viscous as viscous

    caches = (viscous._lapack, viscous._backward_euler_factors)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fails a test after which a child process of this one still runs, and
    ends it there, so that the next test starts without it."""
    yield
    import multiprocessing

    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join()
    assert left == [], f"child processes left running: {left}"
