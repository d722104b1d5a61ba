"""Generator conformance against an independent transcription of its
documented constants and update rules."""

import pytest

from trisat.rng import XorShift64Star, splitmix64, trial_state

M64 = (1 << 64) - 1


def ref_splitmix64(x: int) -> int:
    # independent line-by-line transcription used as the oracle
    z = (x + 0x9E3779B97F4A7C15) & M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
    return z ^ (z >> 31)


def ref_xorshift_star_stream(state: int, count: int) -> list[int]:
    out = []
    s = state
    for _ in range(count):
        s ^= s >> 12
        s = (s ^ (s << 25)) & M64
        s ^= s >> 27
        out.append((s * 0x2545F4914F6CDD1D) & M64)
    return out


def ref_trial_state(seed: int, trial: int) -> int:
    state = ref_splitmix64(ref_splitmix64(seed) ^ trial)
    return state if state != 0 else 0x9E3779B97F4A7C15


def ref_shuffle(state: int, n: int) -> list[int]:
    """range(n) shuffled by Fisher-Yates from the last position down:
    position i swaps with a draw below i + 1, redrawn while the 64-bit
    output is at or above the largest multiple of i + 1."""
    items = list(range(n))
    stream = iter(ref_xorshift_star_stream(state, 2 * n + 16))
    for i in range(n - 1, 0, -1):
        limit = (1 << 64) - (1 << 64) % (i + 1)
        r = next(stream)
        while r >= limit:
            r = next(stream)
        j = r % (i + 1)
        items[i], items[j] = items[j], items[i]
    return items


def test_splitmix64_matches_reference():
    for x in (0, 1, 42, 2**63, M64):
        assert splitmix64(x) == ref_splitmix64(x)


def test_stream_matches_reference():
    for seed, trial in ((0, 0), (1, 0), (123456789, 7)):
        state = ref_trial_state(seed, trial)
        assert trial_state(seed, trial) == state
        rng = XorShift64Star.for_trial(seed, trial)
        assert [rng.next_u64() for _ in range(16)] == ref_xorshift_star_stream(state, 16)


def test_bounded_draws_in_range_and_deterministic():
    rng = XorShift64Star.for_trial(5, 0)
    draws = [rng.next_below(7) for _ in range(1000)]
    assert all(0 <= d < 7 for d in draws)
    rng2 = XorShift64Star.for_trial(5, 0)
    assert draws == [rng2.next_below(7) for _ in range(1000)]
    assert len(set(draws)) == 7


def test_bounds_up_to_two_to_the_64_draw_and_larger_ones_raise():
    # at k = 2^64 every output is accepted and is the draw itself; above it
    # no output lies below the rejection limit, so the bound is refused
    rng, twin = XorShift64Star.for_trial(3, 0), XorShift64Star.for_trial(3, 0)
    assert [rng.next_below(2**64) for _ in range(8)] == [twin.next_u64() for _ in range(8)]
    for k in (0, -1, 2**64 + 1, 2**65):
        with pytest.raises(ValueError, match="bound must be in 1..2"):
            rng.next_below(k)


def test_shuffle_is_permutation_and_trial_dependent():
    rng = XorShift64Star.for_trial(1, 0)
    items = list(range(20))
    rng.shuffle(items)
    assert sorted(items) == list(range(20))
    other = list(range(20))
    XorShift64Star.for_trial(1, 1).shuffle(other)
    assert items != other  # different trials give different orders


@pytest.mark.parametrize("seed, trial, n", [(0, 0, 0), (0, 0, 1), (1, 0, 2), (7, 3, 20),
                                           (123456789, 7, 97), (2**63 + 5, 1, 432),
                                           (42, 19, 432)])
def test_shuffle_matches_reference(seed, trial, n):
    # 432 is the edge count of the (12, 12, 12) host greedy shuffles
    items = list(range(n))
    XorShift64Star.for_trial(seed, trial).shuffle(items)
    assert items == ref_shuffle(ref_trial_state(seed, trial), n)


def test_zero_state_replaced():
    rng = XorShift64Star(0)
    assert rng.state != 0
    assert rng.next_u64() != 0
