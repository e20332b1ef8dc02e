"""Golden draws: a speed-up of the sweep must not change a single bit
unless it says so.

Each configuration runs a short chain and hashes the raw bytes of every
`PosteriorDraws` array, so any change to the random stream, to the order
in which the generator is consumed or to the last bit of a full
conditional shows up here. The hashes depend on IEEE double arithmetic
and numpy's generator, not on timing; a change that alters the stream or
the rounding on purpose must re-record them and say so in CHANGES.md.

All four were re-recorded once, by a rounding-level pass that kept the
random stream and the scan order and changed only the order of sums: the
slope update's factor and solves on Python floats, one residual base
y - X beta - u+ per sweep, and the CAR sweep split into a vectorised sum
over the not-yet-updated neighbours and a loop over the updated ones.
Every stored array of each configuration stayed within 1e-14 of the
draws it replaced, sigma2_alpha and sigma2_eps bit for bit, with the same
acceptance rates. The notes below describe each pin as it was first
recorded.

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
when the edge list became its only input, nor when the graph builder
stopped checking its edges (`load_adjacency` checks a file's).

`unstabilized` is the guard ablation: the four guard shares patched to
0, inf, 0 and 0 and the level move to one that draws nothing. It was
recorded while `ChainConfig.stabilize=False` still switched the guards
off, and did not move when the guarded chain became the only one, so the
ablation reaches that kernel exactly, unfloored s2_v draw included.
"""

import hashlib
import math

import numpy as np
import pytest

from hiddenpop import sampler
from hiddenpop.sampler import ChainConfig, run_chain
from hiddenpop.simulate import DgpConfig, simulate
from hiddenpop.spatial import build_queen_grid
from oracles import graph_from_edges

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
    cfg = ChainConfig(n_iter=300, burn_in=100, thin=2, seed=7)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sampler, "ALPHA_FLOOR_SHARE", 0.0)
        patch.setattr(sampler, "ALPHA_CAP_SHARE", math.inf)
        patch.setattr(sampler, "EPS_FLOOR_SHARE", 0.0)
        patch.setattr(sampler, "V_FLOOR_SHARE", 0.0)
        patch.setattr(sampler, "update_level", lambda state, rng: False)
        return run_chain(truth.dataset, truth.graph, cfg)


def _weighted_shuffled_chain():
    grid = build_queen_grid(7, 7)
    rng = np.random.default_rng(8)
    order = rng.permutation(grid.edge_i.size)
    i, j = grid.edge_i[order], grid.edge_j[order]
    odd = np.arange(i.size) % 2 == 1
    i, j = np.where(odd, j, i), np.where(odd, i, j)
    w = rng.gamma(2.0, size=i.size)
    graph = graph_from_edges(49, zip(i.tolist(), j.tolist(), w.tolist()))
    cfg = ChainConfig(n_iter=300, burn_in=100, thin=2, seed=9)
    return run_chain(_paper_panel().dataset, graph, cfg)


GOLDEN = {
    "stabilized": (
        _stabilized_chain,
        "3272968423714d9cd5f4c022a8d6c43447af8af2f8c14f74d3f839287a84752b"),
    "two_chains": (
        _two_chains,
        "6e36121c60508d4f16465f442a8f07bb726577cea077fd1a08711aefef942dcb"),
    "unstabilized": (
        _unstabilized_chain,
        "89e0ade7b965f7483ad1ae0c90d8b0b44e4ee2286a6d97f43ff86676a25564ab"),
    "weighted_shuffled": (
        _weighted_shuffled_chain,
        "14e3ba74d5a865b6ab042bb6271e65e10ac971d9a0bc8d4ecf8055f2ad6a4b68"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_draws_are_byte_identical_to_recorded(name):
    run, expected = GOLDEN[name]
    assert draws_digest(run()) == expected
