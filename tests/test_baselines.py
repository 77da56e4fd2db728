"""Markov chain, FPMC and popularity baselines."""

from collections import defaultdict
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import T0, columns_of, make_event
from evrac.baselines import (
    FpmcHyper,
    FpmcRecommender,
    MarkovRecommender,
    PopularityRecommender,
    _rank_row,
    _train_sequences,
    rank_rows,
)
from evrac.errors import UsageError
from evrac.nn import sigmoid, softmax
from evrac.seeding import rng_for


def _events_from_sequence(driver, stations):
    return columns_of([
        make_event(f"{driver}-{i:03d}", driver, sid, T0 + timedelta(hours=i))
        for i, sid in enumerate(stations)
    ])


# ---------------------------------------------------------------------------
# Shared top-k
# ---------------------------------------------------------------------------

_tie_prone = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.25]), st.floats(-1e6, 1e6))


@settings(max_examples=200)
@given(st.data())
def test_rank_row_matches_sort_oracle(data):
    ids = data.draw(st.lists(st.text(min_size=1, max_size=3), min_size=1, max_size=8, unique=True).map(sorted))
    m = len(ids)
    row = data.draw(st.lists(_tie_prone, min_size=m, max_size=m))
    k = data.draw(st.integers(1, m))
    expected = sorted(range(m), key=lambda i: (-row[i], ids[i]))[:k]
    assert _rank_row(np.array(row), ids, k) == [ids[i] for i in expected]


@settings(max_examples=200)
@given(st.data())
def test_rank_rows_matches_per_row_stable_sort(data):
    """One stable sort of a matrix of tie-prone rows ranks each row as that
    row's own stable sort does, for any k, k above M included."""
    m = data.draw(st.integers(1, 6))
    ids = [f"cs{i}" for i in range(m)]
    rows = np.array(data.draw(st.lists(st.lists(_tie_prone, min_size=m, max_size=m), max_size=6)),
                    dtype=float).reshape(-1, m)
    k = data.draw(st.integers(1, m + 2))
    want = [[ids[i] for i in np.argsort(-row, kind="stable")[:k].tolist()] for row in rows]
    assert rank_rows(rows, ids, k) == want
    assert [_rank_row(row, ids, k) for row in rows] == want


def test_rank_row_rejects_k_below_one():
    with pytest.raises(UsageError):
        _rank_row(np.array([0.5, 0.5]), ["cs0", "cs1"], 0)


# ---------------------------------------------------------------------------
# Markov chain
# ---------------------------------------------------------------------------

def test_mc_worked_example():
    # cs1->cs2 x3, cs1->cs3 x1; M=3, lambda=1 -> row cs1 = (1/7, 4/7, 2/7)
    seq = ["cs1", "cs2", "cs1", "cs2", "cs1", "cs2", "cs1", "cs3"]
    model = MarkovRecommender(["cs1", "cs2", "cs3"]).fit({"d1": _events_from_sequence("d1", seq)})
    row = model.per_driver["d1"][0]
    assert row == pytest.approx([1 / 7, 4 / 7, 2 / 7], abs=1e-12)


def test_mc_no_data_uniform_rows():
    model = MarkovRecommender(["cs1", "cs2"]).fit({})
    assert np.allclose(model.global_matrix, 0.5)


def test_mc_unsmoothed_single_transition():
    model = MarkovRecommender(["cs1", "cs2"], lam=0.0).fit(
        {"d1": _events_from_sequence("d1", ["cs1", "cs1"])}
    )
    assert model.per_driver["d1"][0] == pytest.approx([1.0, 0.0])


def test_mc_unsmoothed_unseen_row_uniform():
    model = MarkovRecommender(["cs1", "cs2"], lam=0.0).fit(
        {"d1": _events_from_sequence("d1", ["cs1", "cs1"])}
    )
    assert model.per_driver["d1"][1] == pytest.approx([0.5, 0.5])


@settings(max_examples=50)
@given(st.integers(2, 5), st.lists(st.integers(0, 4), min_size=2, max_size=30), st.floats(0, 3))
def test_mc_rows_sum_to_one(m, seq_idx, lam):
    stations = [f"cs{i}" for i in range(m)]
    seq = [stations[i % m] for i in seq_idx]
    model = MarkovRecommender(stations, lam=lam).fit({"d": _events_from_sequence("d", seq)})
    for matrix in [model.global_matrix, model.per_driver.get("d", model.global_matrix)]:
        assert matrix.sum(axis=1) == pytest.approx(np.ones(m), abs=1e-12)


def _brute_force_row(seq, stations, source, lam):
    counts = defaultdict(int)
    for a, b in zip(seq, seq[1:]):
        counts[(a, b)] += 1
    total = sum(c for (a, _), c in counts.items() if a == source) + lam * len(stations)
    if total == 0:
        return [1 / len(stations)] * len(stations)
    return [(counts[(source, t)] + lam) / total for t in stations]


def test_mc_matches_brute_force_oracle():
    rng = np.random.default_rng(123)
    for trial in range(100):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(2, 31))
        lam = float(rng.choice([0.0, 0.5, 1.0]))
        stations = [f"cs{i}" for i in range(m)]
        seq = [stations[int(rng.integers(0, m))] for _ in range(n)]
        model = MarkovRecommender(stations, lam=lam).fit({"d": _events_from_sequence("d", seq)})
        matrix = model.per_driver["d"]
        for i, source in enumerate(stations):
            assert matrix[i] == pytest.approx(_brute_force_row(seq, stations, source, lam), abs=1e-12)


def test_mc_predict_top1():
    model = MarkovRecommender(["cs0", "cs1", "cs2"])
    model.per_driver["d"] = np.array([[0.1, 0.6, 0.3]] * 3)
    history = _events_from_sequence("d", ["cs0"])
    assert model.rank([("d", history, [1])], 1) == [["cs1"]]
    assert model.rank([("d", history, [1])], 3) == [["cs1", "cs2", "cs0"]]


def test_mc_predict_tie_breaks_by_station_id():
    model = MarkovRecommender(["cs0", "cs1", "cs2"])
    model.per_driver["d"] = np.full((3, 3), 1 / 3)
    assert model.rank([("d", _events_from_sequence("d", ["cs2"]), [1])], 1) == [["cs0"]]


def test_mc_unknown_last_station_uniform_fallback():
    model = MarkovRecommender(["cs0", "cs1"]).fit(
        {"d": _events_from_sequence("d", ["cs0", "cs1", "cs0"])}
    )
    row = model.probabilities([("d", _events_from_sequence("d", ["unknown-station"]), [1])])[0]
    assert row == pytest.approx([0.5, 0.5])


def test_mc_unknown_driver_uses_global():
    model = MarkovRecommender(["cs0", "cs1"]).fit(
        {"d": _events_from_sequence("d", ["cs0", "cs1", "cs0", "cs1"])}
    )
    row = model.probabilities([("stranger", _events_from_sequence("stranger", ["cs0"]), [1])])[0]
    assert row == pytest.approx(model.global_matrix[0])


# ---------------------------------------------------------------------------
# FPMC
# ---------------------------------------------------------------------------

def test_fpmc_hand_fixed_factors_score():
    model = FpmcRecommender(["cs0", "cs1"], FpmcHyper(factors=1))
    model.driver_index = {"d": 0}
    model.UI = np.array([[2.0]])
    model.IU = np.array([[0.5], [1.5]])
    model.LI = np.array([[3.0], [0.0]])
    model.IL = np.array([[0.25], [0.75]])
    history = _events_from_sequence("d", ["cs0"])
    probs = model.probabilities([("d", history, [1])])[0]
    # <U_d, V_i> + <L_cs0, W_i> = 2*0.5 + 3*0.25 and 2*1.5 + 3*0.75
    assert probs == pytest.approx(softmax(np.array([1.75, 5.25])))
    # ranked by softmax(scores): same order as the scores
    assert model.rank([("d", history, [1])], 2) == [["cs1", "cs0"]]


def test_fpmc_deterministic_for_seed():
    train = {"d": _events_from_sequence("d", ["cs0", "cs1"] * 6)}
    a = FpmcRecommender(["cs0", "cs1"], FpmcHyper(factors=4, epochs=10, seed=9)).fit(train)
    b = FpmcRecommender(["cs0", "cs1"], FpmcHyper(factors=4, epochs=10, seed=9)).fit(train)
    assert np.array_equal(a.UI, b.UI)
    assert np.array_equal(a.IU, b.IU)
    assert np.array_equal(a.LI, b.LI)
    assert np.array_equal(a.IL, b.IL)


def test_fpmc_ranking_invariant_to_score_shift():
    model = FpmcRecommender(["cs0", "cs1", "cs2"], FpmcHyper(factors=2))
    row = np.array([0.3, -1.2, 2.0])
    assert _rank_row(row, model.stations, 3) == _rank_row(row + 17.5, model.stations, 3)


def test_fpmc_learns_deterministic_cycle():
    train = {}
    for d in range(4):
        train[f"d{d}"] = _events_from_sequence(f"d{d}", ["cs0", "cs1"] * 12)
    model = FpmcRecommender(["cs0", "cs1"], FpmcHyper(factors=8, epochs=60, seed=3)).fit(train)
    hits = 0
    total = 0
    for d in range(4):
        for last, expected in (("cs0", "cs1"), ("cs1", "cs0")):
            hist = _events_from_sequence(f"d{d}", [last])
            hits += model.rank([(f"d{d}", hist, [1])], 1)[0][0] == expected
            total += 1
    assert hits / total >= 0.9


def test_fpmc_empty_train_errors():
    with pytest.raises(UsageError):
        FpmcRecommender(["cs0"]).fit({})


def test_fpmc_unknown_driver_ranks_by_transition_only():
    train = {"d": _events_from_sequence("d", ["cs0", "cs1"] * 8)}
    model = FpmcRecommender(["cs0", "cs1"], FpmcHyper(factors=4, epochs=30, seed=1)).fit(train)
    [ranked] = model.rank([("stranger", _events_from_sequence("stranger", ["cs0"]), [1])], 2)
    assert set(ranked) == {"cs0", "cs1"}


# ---------------------------------------------------------------------------
# FPMC: the block fit against the scalar loop
# ---------------------------------------------------------------------------

class _ScalarFpmc(FpmcRecommender):
    """`FpmcRecommender` with the fit it had before the factors became one
    parameter block: per-row copies and updates, and one scalar negative draw
    per step."""

    def fit(self, train_events):
        # Verbatim.
        sequences = _train_sequences(train_events)
        samples: list[tuple[int, int, int]] = []
        self.driver_index = {d: i for i, d in enumerate(sorted(sequences))}
        for driver, seq in sequences.items():
            u = self.driver_index[driver]
            for a, b in zip(seq, seq[1:]):
                samples.append((u, self.index[a], self.index[b]))
        if not samples:
            raise UsageError("FPMC needs at least one training transition")

        h = self.hyper
        rng = rng_for(h.seed, "fpmc-init")
        m, f = len(self.stations), h.factors
        self.UI = rng.normal(0.0, 0.1, size=(len(self.driver_index), f))
        self.IU = rng.normal(0.0, 0.1, size=(m, f))
        self.LI = rng.normal(0.0, 0.1, size=(m, f))
        self.IL = rng.normal(0.0, 0.1, size=(m, f))

        neg_rng = rng_for(h.seed, "fpmc-negatives")
        order_rng = rng_for(h.seed, "fpmc-order")
        samples = np.array(samples, dtype=int)
        for _ in range(h.epochs):
            for row in order_rng.permutation(samples.shape[0]):
                u, last, pos = samples[row]
                for _n in range(h.negatives):
                    neg = int(neg_rng.integers(0, m))
                    if neg == pos:
                        continue
                    x = (
                        self.UI[u] @ (self.IU[pos] - self.IU[neg])
                        + self.LI[last] @ (self.IL[pos] - self.IL[neg])
                    )
                    g = float(sigmoid(np.array([-x]))[0])
                    ui, iu_p, iu_n = self.UI[u].copy(), self.IU[pos].copy(), self.IU[neg].copy()
                    li, il_p, il_n = self.LI[last].copy(), self.IL[pos].copy(), self.IL[neg].copy()
                    self.UI[u] += h.lr * (g * (iu_p - iu_n) - h.reg * ui)
                    self.IU[pos] += h.lr * (g * ui - h.reg * iu_p)
                    self.IU[neg] += h.lr * (-g * ui - h.reg * iu_n)
                    self.LI[last] += h.lr * (g * (il_p - il_n) - h.reg * li)
                    self.IL[pos] += h.lr * (g * li - h.reg * il_p)
                    self.IL[neg] += h.lr * (-g * li - h.reg * il_n)
        return self


@st.composite
def _fpmc_cases(draw):
    # Few stations make neg == pos skips common; M = 1 skips every step.
    m = draw(st.integers(1, 9))
    stations = [f"cs{i}" for i in range(m)]
    seqs = draw(st.lists(st.lists(st.sampled_from(stations), max_size=8), min_size=1, max_size=4)
                .filter(lambda seqs: any(len(seq) >= 2 for seq in seqs)))
    train = {f"d{d}": _events_from_sequence(f"d{d}", seq) for d, seq in enumerate(seqs)}
    hyper = FpmcHyper(factors=draw(st.integers(1, 16)), negatives=draw(st.integers(1, 5)),
                      epochs=draw(st.integers(1, 3)), seed=draw(st.integers(0, 2**32 - 1)))
    return stations, train, hyper


@settings(max_examples=80, deadline=None)
@given(_fpmc_cases())
def test_fpmc_block_fit_has_the_bits_of_the_scalar_loop(case):
    stations, train, hyper = case
    fitted = FpmcRecommender(stations, hyper).fit(train)
    reference = _ScalarFpmc(stations, hyper).fit(train)
    assert fitted.driver_index == reference.driver_index
    for name in ("UI", "IU", "LI", "IL"):
        got, want = getattr(fitted, name), getattr(reference, name)
        assert got.flags.c_contiguous and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("m", [1, 2, 5, 7, 50, 1000])
def test_epoch_negatives_draw_is_the_scalar_stream(m):
    """One `integers(0, m, size=(n, k))` call per epoch gives the values, and
    leaves the generator in the state, of n * k scalar `integers(0, m)` calls.

    This is a property of numpy's PCG64 bounded-integer sampler (checked on
    numpy 2.4.6), not of evrac; the FPMC fit relies on it to keep the
    negatives of the scalar loop. Odd n * k leave half of a 64-bit draw
    buffered between epochs."""
    batched, scalar = rng_for(3, "fpmc-negatives"), rng_for(3, "fpmc-negatives")
    for n, k in [(7, 4), (1, 1), (13, 3), (40, 1), (5, 5)]:
        block = batched.integers(0, m, size=(n, k))
        assert block.tolist() == [[int(scalar.integers(0, m)) for _ in range(k)] for _ in range(n)]
        assert batched.bit_generator.state == scalar.bit_generator.state


# ---------------------------------------------------------------------------
# Popularity
# ---------------------------------------------------------------------------

def test_popularity_per_driver_counts():
    train = {
        "d1": _events_from_sequence("d1", ["cs1", "cs1", "cs0"]),
        "d2": _events_from_sequence("d2", ["cs2"] * 5),
    }
    model = PopularityRecommender(["cs0", "cs1", "cs2"]).fit(train)
    assert model.rank([("d1", columns_of([]), [0])], 1) == [["cs1"]]
    assert model.rank([("d2", columns_of([]), [0])], 1) == [["cs2"]]
    # unknown driver: global counts (cs2 dominates)
    assert model.rank([("nobody", columns_of([]), [0])], 1) == [["cs2"]]


def test_popularity_empty_model_uniform():
    model = PopularityRecommender(["cs0", "cs1"])
    assert model.probabilities([("x", columns_of([]), [0])])[0] == pytest.approx([0.5, 0.5])
    assert model.rank([("x", columns_of([]), [0])], 2) == [["cs0", "cs1"]]
