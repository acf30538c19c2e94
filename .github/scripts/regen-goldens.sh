#!/usr/bin/env bash
# Regenerates every committed golden under tests/golden from the suites that
# write them, then fails if any file changed by a single byte (or a new one
# appeared). The suites themselves compare goldens within a 1e-6 relative
# tolerance; this step does not, so it pins the trajectories bit for bit
# under whatever MFBO_SIMD / MFBO_THREADS the calling job sets.
#
# Usage: regen-goldens.sh   (from the repository root)
set -euo pipefail
MFBO_REGEN_GOLDEN=1 cargo test -q \
  --test golden_trajectories \
  --test asktell_equivalence \
  --test resume_equivalence \
  --test report_analyzer
changed=$(git status --porcelain -- tests/golden)
if [ -n "$changed" ]; then
  echo "goldens did not reproduce byte for byte:" >&2
  echo "$changed" >&2
  git diff --stat -- tests/golden >&2
  exit 1
fi
