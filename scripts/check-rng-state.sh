#!/usr/bin/env sh
# usage: scripts/check-rng-state.sh
#
# Fails when code under crates/*/src saves or restores a random stream's
# position anywhere but in crates/tensor/src/rng.rs: an `Rng64`'s
# `state_words()` (including `rng_state_words`), `from_state_words`, or a
# `push_u64("rng…")` checkpoint section. Draws made while training come
# from `Rng64::keyed(key, stream, step)`, so a checkpoint carries step
# counters and never a stream position. Test modules are scanned too.
set -eu
hits=$(
    find crates/*/src -name '*.rs' ! -path crates/tensor/src/rng.rs | sort |
        xargs grep -nE 'rng[A-Za-z0-9_]*\.state_words\(\)|rng_state_words|from_state_words|push_u64\((format!\()?"rng' ||
        true
)
if [ -n "$hits" ]; then
    echo "$hits"
    echo "RNG state saved or restored outside md_tensor::rng; key the stream with Rng64::keyed instead" >&2
    exit 1
fi
echo "no RNG stream position saved or restored outside md_tensor::rng"
