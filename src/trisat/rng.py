"""Deterministic random number generation for the greedy sampler.

A fully specified generator so greedy results reproduce bit-for-bit across
implementations:

* State update: xorshift64* with the shift triple (12, 25, 27) and output
  multiplier M = 0x2545F4914F6CDD1D.  One step is

      s ^= s >> 12;  s ^= (s << 25) & 2^64-1;  s ^= s >> 27
      output = (s * M) mod 2^64

* Seeding: the 64-bit state for trial k of user seed s is
  ``splitmix64(splitmix64(s) XOR k)`` where splitmix64 is the finalizer

      z = (x + 0x9E3779B97F4A7C15) mod 2^64
      z = ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
      z = ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
      return z XOR (z >> 31)

  A zero state is replaced by 0x9E3779B97F4A7C15 (xorshift state must be
  nonzero).  The seed is read modulo 2^64; the greedy sampler refuses a
  seed outside 0..2^64 - 1, which would alias one inside.

* Bounded draws use rejection below the largest multiple of the bound:
  redraw while the 64-bit output is >= 2^64 - (2^64 mod k), then reduce
  mod k.  k must lie in 1..2^64: above it every output would be redrawn.

* Shuffling is a Fisher-Yates pass from the last position down, swapping
  position i with position ``next_below(i + 1)``.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MULT = 0x2545F4914F6CDD1D
_TWO64 = 1 << 64


def splitmix64(x: int) -> int:
    """The splitmix64 finalizer on a 64-bit input."""
    z = (x + _GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def trial_state(seed: int, trial: int) -> int:
    """Initial xorshift64* state for one (seed, trial) pair."""
    s = splitmix64(splitmix64(seed & _MASK) ^ (trial & _MASK))
    return s if s != 0 else _GAMMA


class XorShift64Star:
    """xorshift64* stream with documented constants; state must be nonzero."""

    __slots__ = ("state",)

    def __init__(self, state: int):
        self.state = state & _MASK
        if self.state == 0:
            self.state = _GAMMA

    @classmethod
    def for_trial(cls, seed: int, trial: int) -> "XorShift64Star":
        return cls(trial_state(seed, trial))

    def next_u64(self) -> int:
        s = self.state
        s ^= s >> 12
        s ^= (s << 25) & _MASK
        s ^= s >> 27
        self.state = s
        return (s * _MULT) & _MASK

    def next_below(self, k: int) -> int:
        """Uniform draw from [0, k) by rejection sampling, for 1 <= k <= 2^64."""
        if not 0 < k <= _TWO64:
            raise ValueError(f"bound must be in 1..2^64, got {k}")
        limit = _TWO64 - (_TWO64 % k)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % k

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle, last position downward."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_below(i + 1)
            items[i], items[j] = items[j], items[i]
