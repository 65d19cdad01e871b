"""Communication chain: mapping, equalization factorization, BER."""

import collections
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from otfs_isac import comm
from otfs_isac.allocation import BinAllocation, diagonal_allocation, make_allocation
from otfs_isac.channel import tf_channel_grid
from otfs_isac.comm import (ber_frame, lmmse_equalize_tf, modified_sfft,
                            qpsk_demodulate, qpsk_modulate, random_pair_gains,
                            recover_and_demap, symbol_capacity,
                            tf_block_channel, transmit_chain)
from otfs_isac.config import SystemConfig, Target, substream
from otfs_isac.crlb import SNR_DB_BOUND
from otfs_isac.exceptions import (BitCountMismatch, DimensionMismatch,
                                  SingularReducedMatrix)
from otfs_isac.transforms import build_modified_sfft, isfft, sfft
from oracles import (dd_channel_operator, dd_route_ber_frame, isfft_matrix,
                     lmmse_equalize)

PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None)
# the diagonal and a non-diagonal allocation, each with its n_tx
FIXED_ALLOCATIONS = [(3, [(i, (i, i)) for i in range(3)]), (2, [(0, (0, 3)), (1, (2, 6))])]


def small_cfg(**kw):
    base = dict(n_doppler=4, m_delay=8, n_tx=3, n_rx=4, n_comm_rx=5)
    base.update(kw)
    return SystemConfig(**base)


def on_grid_paths(cfg):
    return [Target(0.0, l * cfg.delay_spacing_s, k * cfg.doppler_spacing_hz)
            for k, l in [(0, 0), (1, 2), (3, 5)]]


def test_qpsk_round_trip():
    rng = np.random.default_rng(30)
    bits = rng.integers(0, 2, size=128)
    symbols = qpsk_modulate(bits)
    np.testing.assert_allclose(np.abs(symbols), 1.0, atol=1e-12)
    np.testing.assert_array_equal(qpsk_demodulate(symbols), bits)
    with pytest.raises(BitCountMismatch):
        qpsk_modulate(np.zeros(3))


def test_symbol_capacity_and_bit_count():
    cfg = small_cfg()
    alloc = diagonal_allocation(cfg.n_tx)
    caps = symbol_capacity(alloc, cfg)
    assert caps == [30, 30, 30]   # NM=32 minus |Z_i|=2 per antenna
    with pytest.raises(BitCountMismatch):
        transmit_chain(np.zeros(10), alloc, cfg)


def test_transmit_chain_zero_forcing():
    cfg = small_cfg()
    alloc = diagonal_allocation(cfg.n_tx)
    rng = np.random.default_rng(31)
    bits = rng.integers(0, 2, size=2 * sum(symbol_capacity(alloc, cfg)))
    dd, tf = transmit_chain(bits, alloc, cfg)
    for i in range(cfg.n_tx):
        for (n, m) in alloc.zero_bins[i]:
            assert tf[i, n, m] == 0.0
        for (k, l) in alloc.zero_bins[i]:
            assert dd[i, k, l] == 0.0
        # own private bin carries signal
        (n, m) = next(iter(alloc.private_bins[i]))
        assert abs(tf[i, n, m]) > 1e-6


def test_recover_inverts_transmit_noiseless():
    """One recover call on the whole zero-forced TF stack returns every
    antenna's symbols, in the order transmit_chain placed them, for the
    diagonal and the non-diagonal allocation."""
    for n_tx, assignments in FIXED_ALLOCATIONS:
        cfg = small_cfg(n_tx=n_tx)
        alloc = make_allocation(n_tx, assignments)
        rng = np.random.default_rng(32)
        bits = rng.integers(0, 2, size=2 * sum(symbol_capacity(alloc, cfg)))
        dd, tf = transmit_chain(bits, alloc, cfg)
        np.testing.assert_allclose(modified_sfft(alloc, cfg).recover(tf),
                                   dd[~alloc.zero_mask(cfg.n_doppler, cfg.m_delay)],
                                   rtol=0, atol=1e-12)
        np.testing.assert_array_equal(recover_and_demap(tf, alloc, cfg), bits)
        with pytest.raises(DimensionMismatch):
            modified_sfft(alloc, cfg).recover(tf[0])


def test_lmmse_equalize_matches_normal_equations():
    rng = np.random.default_rng(33)
    h = rng.standard_normal((12, 6)) + 1j * rng.standard_normal((12, 6))
    y = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    sigma2 = 0.3
    expected = np.linalg.inv(h.conj().T @ h + sigma2 * np.eye(6)) @ h.conj().T @ y
    np.testing.assert_allclose(lmmse_equalize(y, h, sigma2), expected, atol=1e-10)
    with pytest.raises(DimensionMismatch):
        lmmse_equalize(y[:5], h, sigma2)


# Tolerance of the per-bin solve against np.linalg.solve: 64 units of
# roundoff, times the condition number for the forward error.
SOLVE_RTOL = 64 * np.finfo(float).eps


@PROPERTY
@given(n_t=st.integers(1, 5), n_c=st.integers(1, 8), n_bins=st.integers(1, 16),
       noise_var=st.sampled_from([1.0, 1e-12]), no_paths=st.booleans(),
       random_rhs=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_hermitian_solve_matches_linalg_solve_per_bin(n_t, n_c, n_bins, noise_var,
                                                      no_paths, random_rhs, seed):
    """Every bin's solution has a backward error, and a forward error per
    unit of condition number, of at most SOLVE_RTOL against
    np.linalg.solve. With n_c < n_t, B^H B is rank deficient and the Gram
    matrix at noise_var = 1e-12 has a condition number near 1e12 |B|^2. The
    strictly lower triangle is never read, so NaN there changes nothing."""
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((n_c, n_t, n_bins)) + 1j * rng.standard_normal((n_c, n_t, n_bins))
    b *= not no_paths
    y = rng.standard_normal((n_c, n_bins)) + 1j * rng.standard_normal((n_c, n_bins))
    gram = np.einsum("cil,cjl->ijl", b.conj(), b) + noise_var * np.eye(n_t)[..., None]
    rhs = (rng.standard_normal((n_t, n_bins)) + 1j * rng.standard_normal((n_t, n_bins))
           if random_rhs else np.einsum("cil,cl->il", b.conj(), y))
    system = np.concatenate([gram, rhs[:, None]], axis=1)
    system[np.tril_indices(n_t, -1)] = np.nan
    x = comm._solve_hermitian(system)
    assert x.shape == (n_t, n_bins)
    for i in range(n_bins):
        a, x_i = gram[..., i], x[:, i]
        want = np.linalg.solve(a, rhs[:, i])
        assert (np.linalg.norm(x_i - want)
                <= SOLVE_RTOL * np.linalg.cond(a) * np.linalg.norm(want))
        assert (np.linalg.norm(a @ x_i - rhs[:, i])
                <= SOLVE_RTOL * np.linalg.norm(a, 2) * np.linalg.norm(x_i))


def stacked_channel_from_blocks(blocks, cfg):
    """Explicit stacked DD channel built column by column from the TF blocks."""
    nm = cfg.n_doppler * cfg.m_delay
    h = np.empty((cfg.n_comm_rx * nm, cfg.n_tx * nm), dtype=complex)
    for nt in range(cfg.n_tx):
        for j in range(nm):
            dd = np.zeros((cfg.n_tx, cfg.n_doppler, cfg.m_delay), dtype=complex)
            dd[nt].ravel()[j] = 1.0
            x_tf = np.stack([isfft(g) for g in dd])
            y = np.stack([sfft(g)
                          for g in np.einsum("canm,anm->cnm", blocks, x_tf)])
            h[:, nt * nm + j] = y.reshape(-1)
    return h


def test_lmmse_tf_factorization_equals_stacked_solve():
    cfg = small_cfg()
    paths = [Target(0.0, 0.6e-7, 1234.5), Target(0.0, 2.3e-7, -3456.7)]
    rng = np.random.default_rng(34)
    gains = random_pair_gains(len(paths), cfg, rng)
    blocks = tf_block_channel(paths, cfg, gains)
    h = stacked_channel_from_blocks(blocks, cfg)
    y = rng.standard_normal(h.shape[0]) + 1j * rng.standard_normal(h.shape[0])
    sigma2 = 0.2
    stacked = lmmse_equalize(y, h, sigma2)
    factored = sfft(lmmse_equalize_tf(
        isfft(y.reshape(cfg.n_comm_rx, cfg.n_doppler, cfg.m_delay)), blocks, sigma2))
    np.testing.assert_allclose(factored.reshape(-1), stacked, atol=1e-10)


@pytest.mark.parametrize("paths", [
    [Target(0.1, 0.6e-7, 1234.5, 0.8 + 0.3j)],
    [Target(0.0, 0.6e-7, 1234.5, 0.8 + 0.3j), Target(-0.2, 2.3e-7, -3456.7, -0.5 + 0.4j),
     Target(0.3, 4.1e-7, 777.7, 1.0 + 0.0j)],
], ids=["one-path", "three-paths"])
def test_tf_blocks_equal_explicit_dd_operators(paths):
    """Each (rx, tx) block, carried to DD by the explicit transforms, is that
    pair's DD channel with path gains gain * pair_gains[c, a, path]."""
    cfg = small_cfg()
    gains = random_pair_gains(len(paths), cfg, np.random.default_rng(36))
    blocks = tf_block_channel(paths, cfg, gains)
    assert blocks.shape == (cfg.n_comm_rx, cfg.n_tx, cfg.n_doppler, cfg.m_delay)
    g = isfft_matrix(cfg.n_doppler, cfg.m_delay)
    s = g.shape[0] * g.conj().T          # unit-scale SFFT matrix
    for c in range(cfg.n_comm_rx):
        for a in range(cfg.n_tx):
            op = s @ (blocks[c, a].reshape(-1, 1) * g)
            want = dd_channel_operator(
                paths, cfg, pair_gains=[p.gain * gains[c, a, j]
                                        for j, p in enumerate(paths)])
            assert np.max(np.abs(op - want)) <= 1e-10


def test_tf_blocks_of_no_paths_are_zero():
    cfg = small_cfg()
    blocks = tf_block_channel([], cfg, random_pair_gains(0, cfg, np.random.default_rng(37)))
    np.testing.assert_array_equal(
        blocks, np.zeros((cfg.n_comm_rx, cfg.n_tx, cfg.n_doppler, cfg.m_delay)))


def test_random_pair_gains_shape_and_magnitude():
    cfg = small_cfg()
    gains = random_pair_gains(3, cfg, np.random.default_rng(35))
    assert gains.shape == (cfg.n_comm_rx, cfg.n_tx, 3)
    np.testing.assert_allclose(np.abs(gains), 1.0, atol=1e-12)


def test_ber_frame_noiseless_zero_errors():
    cfg = small_cfg()
    alloc = diagonal_allocation(cfg.n_tx)
    errors, bits = ber_frame(cfg, alloc, on_grid_paths(cfg), np.inf, seed=1)
    assert errors == 0
    assert bits == 2 * sum(symbol_capacity(alloc, cfg))


def test_ber_frame_without_noise_needs_as_many_receivers_as_transmitters():
    """With fewer comm receivers than transmitters the noise-free LMMSE is
    singular, so the link has no bit error count of its own there: an
    infinite SNR is an error, a finite one runs, and so does an infinite
    SNR with n_comm_rx = n_tx. An SNR of -inf is infinite noise, not none:
    it is outside the SNR bound."""
    cfg = small_cfg(n_comm_rx=2)
    alloc = diagonal_allocation(cfg.n_tx)
    with pytest.raises(ValueError, match="n_comm_rx=2 < n_tx=3"):
        ber_frame(cfg, alloc, on_grid_paths(cfg), math.inf, seed=1)
    with pytest.raises(ValueError, match=re.escape(f"snr_db: expected number in {SNR_DB_BOUND}")):
        ber_frame(cfg, alloc, on_grid_paths(cfg), -math.inf, seed=1)
    ber_frame(cfg, alloc, on_grid_paths(cfg), 30.0, seed=1)
    cfg = small_cfg(n_comm_rx=3)
    assert ber_frame(cfg, alloc, on_grid_paths(cfg), math.inf, seed=1)[0] == 0


def test_ber_frame_deterministic():
    cfg = small_cfg()
    alloc = diagonal_allocation(cfg.n_tx)
    a = ber_frame(cfg, alloc, on_grid_paths(cfg), 5.0, seed=7, frame_index=2)
    b = ber_frame(cfg, alloc, on_grid_paths(cfg), 5.0, seed=7, frame_index=2)
    c = ber_frame(cfg, alloc, on_grid_paths(cfg), 5.0, seed=7, frame_index=3)
    assert a == b
    assert a != c


def test_ber_frame_non_diagonal_allocation():
    cfg = small_cfg(n_tx=2)
    alloc = make_allocation(2, [(0, (0, 3)), (1, (2, 6))])
    errors, _ = ber_frame(cfg, alloc, on_grid_paths(cfg), np.inf, seed=2)
    assert errors == 0


@st.composite
def small_links(draw):
    """A link of 1-4 transmit and 1-8 receive antennas on a grid up to 8x8,
    with up to 3 off-grid paths, random private bins and an SNR of 0, 10 or
    30 dB or no noise. Without noise the receivers are at least as many as
    the transmitters (see the test)."""
    n_tx = draw(st.integers(1, 4))
    snr_db = draw(st.sampled_from([0.0, 10.0, 30.0, math.inf]))
    n_comm_rx = draw(st.integers(n_tx if math.isinf(snr_db) else 1, 8))
    n, m = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    cfg = SystemConfig(n_doppler=n, m_delay=m, n_tx=n_tx, n_comm_rx=n_comm_rx)
    bins = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)),
                         max_size=min(n * m - 1, 2 * n_tx), unique=True))
    owners = draw(st.lists(st.integers(0, n_tx - 1), min_size=len(bins),
                           max_size=len(bins)))
    unit = st.floats(-1.0, 1.0)
    paths = [Target(0.0, draw(st.floats(0.0, m)) * cfg.delay_spacing_s,
                    draw(st.floats(-n / 2, n / 2)) * cfg.doppler_spacing_hz,
                    complex(draw(unit), draw(unit)))
             for _ in range(draw(st.integers(0, 3)))]
    return cfg, make_allocation(n_tx, list(zip(owners, bins))), paths, snr_db


@pytest.mark.parametrize("n_tx, assignments", FIXED_ALLOCATIONS)
def test_ber_frame_equals_dd_route_oracle(n_tx, assignments):
    """The TF-domain link counts the same bit errors as the DD route on the
    diagonal and the non-diagonal allocation of this file, two off-grid
    paths and every SNR of the sweep."""
    cfg = small_cfg(n_tx=n_tx)
    alloc = make_allocation(n_tx, assignments)
    paths = [Target(0.0, 0.6e-7, 1234.5, 0.8 + 0.3j),
             Target(0.0, 2.3e-7, -3456.7, 0.5 - 0.4j)]
    for snr_db in (0.0, 10.0, 20.0, math.inf):
        for frame in range(6):
            assert (ber_frame(cfg, alloc, paths, snr_db, seed=11, frame_index=frame)
                    == dd_route_ber_frame(cfg, alloc, paths, snr_db, seed=11,
                                          frame_index=frame))


@PROPERTY
@given(link=small_links(), seed=st.integers(0, 2 ** 32 - 1))
def test_ber_frame_equals_dd_route_oracle_on_random_links(link, seed):
    """The TF-domain link counts the same bit errors as the DD route, whose
    equalizer solves each bin with np.linalg.solve and whose recovery
    inverts the reduced ISFFT matrices, in each of six frames.

    Without noise the LMMSE regularizer is 1e-12, so a bin with fewer
    receivers than transmitters has a Gram matrix of condition number near
    1e12 |B|^2: there any two solvers differ by about 1e-4 relative, and a
    bit equal in both routes is a property of rounding, not of the link."""
    cfg, alloc, paths, snr_db = link
    try:
        modified_sfft(alloc, cfg)
    except SingularReducedMatrix:
        assume(False)
    for frame in range(6):
        assert (ber_frame(cfg, alloc, paths, snr_db, seed=seed, frame_index=frame)
                == dd_route_ber_frame(cfg, alloc, paths, snr_db, seed=seed,
                                      frame_index=frame))


def test_ber_frame_runs_no_dense_solve_or_inverse(monkeypatch):
    """Once the allocation's reduced transform is cached, a frame is array
    operations only: no np.linalg.solve and no np.linalg.inv."""
    cfg = small_cfg()
    alloc = diagonal_allocation(cfg.n_tx)
    modified_sfft(alloc, cfg)

    def forbidden(*args, **kwargs):
        pytest.fail("a dense solve or inverse ran inside ber_frame")

    monkeypatch.setattr(np.linalg, "solve", forbidden)
    monkeypatch.setattr(np.linalg, "inv", forbidden)
    for snr_db in (5.0, math.inf):
        ber_frame(cfg, alloc, on_grid_paths(cfg), snr_db, seed=4)


def test_reduced_transforms_built_once_per_allocation(monkeypatch):
    cfg = small_cfg()
    alloc = diagonal_allocation(cfg.n_tx)
    comm._modified_sfft.cache_clear()
    builds = []

    def counting_build(*args):
        builds.append(args)
        return build_modified_sfft(*args)

    monkeypatch.setattr(comm, "build_modified_sfft", counting_build)
    ber_frame(cfg, alloc, on_grid_paths(cfg), 5.0, seed=3)
    ber_frame(cfg, alloc, on_grid_paths(cfg), 5.0, seed=3, frame_index=1)
    assert len(builds) == 1
    msfft = modified_sfft(alloc, cfg)
    assert msfft is modified_sfft(diagonal_allocation(cfg.n_tx), cfg)
    # one correction operator per antenna, NM x |Z_i|, shared by every frame
    assert [c.shape for c in msfft._correction] == [
        (cfg.n_doppler * cfg.m_delay, len(z)) for z in alloc.zero_bins]
    for array in (msfft._empty, *msfft._index, *msfft._correction):
        assert not array.flags.writeable
    for correction in msfft._correction:
        with pytest.raises(ValueError):
            correction[0, 0] = 0.0


def test_link_invariants_built_once_over_repeated_frames(monkeypatch):
    """Over repeated frames, each path's TF grid is built once in total, and
    each frame builds the allocation's zero mask once. A noisy frame runs one
    ISFFT for the signal and one for the noise, a noise-free frame only the
    first."""
    cfg = small_cfg()
    alloc = diagonal_allocation(cfg.n_tx)
    paths = tuple(on_grid_paths(cfg))
    comm._path_tf_grids.cache_clear()
    calls = collections.Counter()

    def spy(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(comm, "tf_channel_grid", spy("grid", tf_channel_grid))
    monkeypatch.setattr(BinAllocation, "zero_mask", spy("mask", BinAllocation.zero_mask))
    monkeypatch.setattr(comm, "isfft", spy("isfft", isfft))
    for frame in range(4):
        for snr_db, transforms in ((5.0, 2), (math.inf, 1)):
            before = calls.copy()
            ber_frame(cfg, alloc, paths, snr_db, seed=3, frame_index=frame)
            assert calls["isfft"] - before["isfft"] == transforms
            assert calls["mask"] - before["mask"] == 1
    assert calls["grid"] == len(paths)


def test_cached_path_grids_are_read_only():
    cfg = small_cfg()
    alloc = diagonal_allocation(cfg.n_tx)
    paths = on_grid_paths(cfg)
    ber_frame(cfg, alloc, paths, 5.0, seed=3)
    grids = comm._path_tf_grids(tuple(paths), cfg)
    assert grids is comm._path_tf_grids(tuple(on_grid_paths(cfg)), cfg)
    assert grids.shape == (len(paths), cfg.n_doppler * cfg.m_delay)
    assert not grids.flags.writeable
    with pytest.raises(ValueError):
        grids[0, 0] = 0
