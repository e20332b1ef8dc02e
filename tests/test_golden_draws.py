"""Golden draws: a pure speed-up of the sweep must not change a single bit.

Each configuration runs a short chain and hashes the raw bytes of every
`PosteriorDraws` array. The hashes were recorded before the sweep's
per-call overhead was removed, so any change to the random stream, to the
order in which the generator is consumed or to the last bit of a full
conditional shows up here. The hashes depend on IEEE double arithmetic
and numpy's generator, not on timing; a change that alters the stream on
purpose must re-record them and say so in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from hiddenpop.sampler import ChainConfig, PriorConfig, run_chain, run_chains
from hiddenpop.simulate import DgpConfig, simulate

ARRAYS = ("beta", "u_plus", "eta_plus", "v", "sigma2_alpha", "sigma2_eps",
          "sigma2_v", "sigma2_u", "sigma2_eta", "chain_id")


def draws_digest(draws) -> str:
    digest = hashlib.sha256()
    for name in ARRAYS:
        arr = np.ascontiguousarray(getattr(draws, name))
        digest.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


def _paper_panel():
    return simulate(DgpConfig(grid_rows=7, grid_cols=7, n_periods=5, seed=21))


def _stabilized_chain():
    truth = _paper_panel()
    cfg = ChainConfig(n_iter=300, burn_in=100, thin=2, seed=5)
    return run_chain(truth.dataset, truth.graph, PriorConfig(), cfg)


def _two_chains():
    truth = _paper_panel()
    cfg = ChainConfig(n_iter=200, burn_in=50, thin=3, seed=6)
    return run_chains(truth.dataset, truth.graph, PriorConfig(), cfg, n_chains=2)


def _unstabilized_centered_chain():
    # unfloored chi-squared path for s2_v, no level move, centred field and
    # an explicit CAR degrees of freedom (N*T + nbar_v)
    truth = _paper_panel()
    cfg = ChainConfig(n_iter=300, burn_in=100, thin=2, seed=7,
                      stabilize=False, center_car=True, car_df=246)
    return run_chain(truth.dataset, truth.graph, PriorConfig(), cfg)


GOLDEN = {
    "stabilized": (
        _stabilized_chain,
        "97db26a3a0b10258724541e9a058b90007387dc08904f8186bbec6b3607a368f"),
    "two_chains": (
        _two_chains,
        "a998840010f299ec5a3cb8c93da7f94ccadb42e3a93204be221ec31b9988c947"),
    "unstabilized_centered": (
        _unstabilized_centered_chain,
        "3dd91c4e24329a904ac9e20bf13684fd7e7bd4a5613fad41b2b59d8c7be4736d"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_draws_are_byte_identical_to_recorded(name):
    run, expected = GOLDEN[name]
    assert draws_digest(run()) == expected
