#!/usr/bin/env sh
# usage: scripts/check-libm-calls.sh
#
# Fails when non-test code under crates/{tensor,nn,data,core,metrics}/src
# calls a libm transcendental (`.exp()`, `.ln()`, `.tanh()`, `.sin()`,
# `.cos()`, `.sin_cos()`, or the `f32::` paths of those) anywhere but in
# crates/tensor/src/math.rs, which owns them. A file's `#[cfg(test)] mod
# tests` and everything after it is not scanned.
set -eu
hits=$(
    find crates/tensor/src crates/nn/src crates/data/src crates/core/src crates/metrics/src \
        -name '*.rs' ! -path crates/tensor/src/math.rs | sort |
        while read -r f; do
            awk '
                /^[[:space:]]*#\[cfg\(test\)\]/ { cfg = 1; next }
                cfg && /^[[:space:]]*(pub(\(crate\))? )?mod tests/ { exit }
                { cfg = 0; print FILENAME ":" FNR ": " $0 }
            ' "$f"
        done |
        grep -E '\.(exp|ln|tanh|sin|cos|sin_cos)\(\)|f32::(exp|ln|tanh|sin|cos|sin_cos)\b' || true
)
if [ -n "$hits" ]; then
    echo "$hits"
    echo "libm transcendental calls found; use md_tensor::math instead" >&2
    exit 1
fi
echo "no libm transcendental call outside md_tensor::math"
