#!/usr/bin/env python3
"""Validate and summarise a collapsed-stack profile written by --profile-out.

Usage:
    profile_summary.py <profile.collapsed> [--top K] [--require-samples]
                       [--expect-taken N]

The profiler (src/obs/profiler.hpp) writes flamegraph.pl collapsed-stack
text: one `# parcycle-profile taken=.. dropped=.. hz=.. effective_hz=..
clock=.. workers=..` header line, then `root;frame;leaf count` lines
aggregated across workers. This script checks the contract CI pins:

* the header line is present and carries taken/dropped/hz/clock/workers,
  and effective_hz (the rate the timers really fired at; profiles written
  before the key existed lack it) is a non-negative number when present;
* every sample line is `stack count` with a positive integer count and a
  non-empty `;`-separated stack whose frames are all non-empty;
* the counts sum exactly to the header's `taken` — the profiler's
  saturating ring guarantees the file never under- or over-reports
  relative to the signal-handler counter.

It then prints the top K frames by self and by inclusive sample count, and
warns on stderr when effective_hz is below half the requested hz: sample
shares still hold, but the sample count is smaller than hz suggests.
--require-samples additionally fails on an empty (taken=0) profile;
--expect-taken N requires the header's taken to equal N exactly.

The parse/validate functions are importable (scrape_endpoints.py reuses
them against a live /profilez capture).

Exit status: 0 on success, 1 on any validation failure, 2 on usage errors.
"""

import argparse
import math
import signal
import sys
from collections import defaultdict

# Die quietly when the reader goes away (`profile_summary.py p | head`).
if hasattr(signal, "SIGPIPE"):
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)

HEADER_PREFIX = "# parcycle-profile "
HEADER_KEYS = ("taken", "dropped", "hz", "clock", "workers")


def fail(msg):
    print(f"profile_summary: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def non_negative_float(text):
    """float(text) if it is a finite number >= 0, else None."""
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) and value >= 0 else None


def parse_collapsed(text, source="<profile>"):
    """Parses collapsed-stack text into (header dict, [(frames, count)]).

    Raises ValueError with a line-numbered message on any syntax violation;
    the CLI wraps that into exit status 1, and scrape_endpoints.py into a
    scrape failure.
    """
    header = None
    stacks = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            if not line.startswith(HEADER_PREFIX):
                raise ValueError(
                    f"{source}:{lineno}: unknown comment line: {line}")
            if header is not None:
                raise ValueError(f"{source}:{lineno}: duplicate header line")
            header = {}
            for token in line[len(HEADER_PREFIX):].split():
                if "=" not in token:
                    raise ValueError(
                        f"{source}:{lineno}: malformed header token "
                        f"'{token}'")
                key, value = token.split("=", 1)
                header[key] = value
            for key in HEADER_KEYS:
                if key not in header:
                    raise ValueError(
                        f"{source}:{lineno}: header missing '{key}='")
            for key in ("taken", "dropped", "hz", "workers"):
                try:
                    header[key] = int(header[key])
                except ValueError:
                    raise ValueError(
                        f"{source}:{lineno}: header {key}="
                        f"{header[key]!r} is not an integer") from None
            if "effective_hz" in header:
                rate = non_negative_float(header["effective_hz"])
                if rate is None:
                    raise ValueError(
                        f"{source}:{lineno}: header effective_hz="
                        f"{header['effective_hz']!r} is not a non-negative "
                        f"number")
                header["effective_hz"] = rate
            continue
        # `frames count`: the count is the last whitespace-separated token,
        # so frame names may contain spaces (demangled template arguments).
        try:
            stack_str, count_str = line.rsplit(None, 1)
            count = int(count_str)
        except ValueError:
            raise ValueError(
                f"{source}:{lineno}: malformed sample line: {line}") from None
        if count <= 0:
            raise ValueError(f"{source}:{lineno}: non-positive count {count}")
        frames = stack_str.split(";")
        if not frames or any(not f for f in frames):
            raise ValueError(
                f"{source}:{lineno}: empty frame in stack: {stack_str!r}")
        stacks.append((frames, count))
    if header is None:
        raise ValueError(f"{source}: missing '# parcycle-profile' header")
    return header, stacks


def validate(header, stacks, source="<profile>", expect_taken=None,
             require_samples=False):
    """Cross-checks the sample lines against the header counters.

    Raises ValueError on violation, returns the total sample count.
    """
    total = sum(count for _, count in stacks)
    if total != header["taken"]:
        raise ValueError(
            f"{source}: sample counts sum to {total} but the header says "
            f"taken={header['taken']} — the saturating ring must make these "
            f"equal")
    if expect_taken is not None and header["taken"] != expect_taken:
        raise ValueError(
            f"{source}: header taken={header['taken']}, expected "
            f"{expect_taken}")
    if require_samples and total == 0:
        raise ValueError(
            f"{source}: profile is empty (taken=0) but samples were required")
    return total


def frame_totals(stacks):
    """Returns (self_counts, inclusive_counts) per frame name."""
    self_counts = defaultdict(int)
    inclusive = defaultdict(int)
    for frames, count in stacks:
        self_counts[frames[-1]] += count
        for frame in set(frames):  # count a frame once per stack
            inclusive[frame] += count
    return self_counts, inclusive


def summarise(path, top_k, require_samples, expect_taken):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        fail(f"cannot read {path}: {err}")
    try:
        header, stacks = parse_collapsed(text, source=path)
        total = validate(header, stacks, source=path,
                         expect_taken=expect_taken,
                         require_samples=require_samples)
    except ValueError as err:
        fail(str(err))
    effective = header.get("effective_hz")
    rate = f"{header['hz']}Hz"
    if effective is not None:
        rate += f" requested, {effective:.1f}Hz effective,"
    print(f"{path}: {total} samples over {len(stacks)} unique stacks "
          f"({header['dropped']} dropped, {header['workers']} workers, "
          f"{rate} {header['clock']} clock)")
    if effective and effective < header["hz"] / 2:
        print(f"profile_summary: warning: sampled at {effective:.1f}Hz, "
              f"below half the requested {header['hz']}Hz", file=sys.stderr)
    self_counts, inclusive = frame_totals(stacks)
    for label, counts in (("self", self_counts), ("inclusive", inclusive)):
        ranked = sorted(counts.items(), key=lambda kv: kv[1], reverse=True)
        ranked = ranked[:top_k]
        if ranked:
            print(f"  top {len(ranked)} frames by {label} samples:")
            for frame, count in ranked:
                share = 100.0 * count / max(total, 1)
                print(f"    {count:>8} ({share:5.1f}%)  {frame}")
    print("profile_summary: OK")


def main():
    parser = argparse.ArgumentParser(
        description="Validate/summarise --profile-out collapsed stacks")
    parser.add_argument("profile", help="collapsed-stack file to check")
    parser.add_argument("--top", type=int, default=10,
                        help="how many frames to print per ranking "
                             "(default 10)")
    parser.add_argument("--require-samples", action="store_true",
                        help="fail when the profile has zero samples")
    parser.add_argument("--expect-taken", type=int, default=None,
                        help="fail unless the header's taken equals N")
    args = parser.parse_args()
    summarise(args.profile, args.top, args.require_samples,
              args.expect_taken)


if __name__ == "__main__":
    main()
