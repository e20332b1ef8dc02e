"""Golden draws: a pure speed-up of the sweep must not change a single bit.

Each configuration runs a short chain and hashes the raw bytes of every
`PosteriorDraws` array. The hashes were recorded before the sweep's
per-call overhead was removed, so any change to the random stream, to the
order in which the generator is consumed or to the last bit of a full
conditional shows up here. The hashes depend on IEEE double arithmetic
and numpy's generator, not on timing; a change that alters the stream on
purpose must re-record them and say so in CHANGES.md.

`two_chains` was re-recorded once, when chain i of a multi-chain run
became the single chain at seed + i: its hash is that of the single chains
at seeds 6 and 7, as the sweep stood before, stacked in chain order, so
the library stream did not move. It was kept, not re-recorded, when the
chain count became `ChainConfig.chains` and `run_chain` came to write
every chain straight into one set of arrays.

`weighted_shuffled` is the only pin on a weighted graph given as a raw
edge list: the 7x7 queen edges in a random order, half of them reversed,
with gamma weights. Its neighbour lists come in no grid order, so it pins
the order in which the graph builder lays out each region's neighbours,
which the CAR sweep and `car_quadratic_form` sum in. It was recorded
while the graph still kept per-region neighbour lists, and did not move
when the edge list became its only input.
"""

import hashlib

import numpy as np
import pytest

from hiddenpop.sampler import ChainConfig, run_chain
from hiddenpop.simulate import DgpConfig, simulate
from hiddenpop.spatial import SpatialGraph, build_queen_grid

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
    return run_chain(truth.dataset, truth.graph, cfg)


def _two_chains():
    truth = _paper_panel()
    cfg = ChainConfig(n_iter=200, burn_in=50, thin=3, seed=6, chains=2)
    return run_chain(truth.dataset, truth.graph, cfg)


def _unstabilized_chain():
    # unfloored chi-squared path for s2_v, no guards and no level move
    truth = _paper_panel()
    cfg = ChainConfig(n_iter=300, burn_in=100, thin=2, seed=7, stabilize=False)
    return run_chain(truth.dataset, truth.graph, cfg)


def _weighted_shuffled_chain():
    grid = build_queen_grid(7, 7)
    rng = np.random.default_rng(8)
    order = rng.permutation(grid.edge_i.size)
    i, j = grid.edge_i[order], grid.edge_j[order]
    odd = np.arange(i.size) % 2 == 1
    i, j = np.where(odd, j, i), np.where(odd, i, j)
    w = rng.gamma(2.0, size=i.size)
    graph = SpatialGraph.from_edges(49, zip(i.tolist(), j.tolist(), w.tolist()))
    cfg = ChainConfig(n_iter=300, burn_in=100, thin=2, seed=9)
    return run_chain(_paper_panel().dataset, graph, cfg)


GOLDEN = {
    "stabilized": (
        _stabilized_chain,
        "97db26a3a0b10258724541e9a058b90007387dc08904f8186bbec6b3607a368f"),
    "two_chains": (
        _two_chains,
        "1c6df3ef4b7cf51ecde7b2a2a8bb29fb448a226f4131944edf7156e0daaf7b5a"),
    "unstabilized": (
        _unstabilized_chain,
        "401d20be75e56598764852a0aeafb836b1ff5b9e83943970878aefc1624da0e0"),
    "weighted_shuffled": (
        _weighted_shuffled_chain,
        "b01b25327ea08d9494426abc8a7645e77020b170c485e9496448afc317416c3d"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_draws_are_byte_identical_to_recorded(name):
    run, expected = GOLDEN[name]
    assert draws_digest(run()) == expected
