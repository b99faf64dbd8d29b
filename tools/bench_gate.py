#!/usr/bin/env python3
"""Bench regression gate.

Checks a fresh `bench --json` run against itself, so the verdict does
not depend on the speed of the machine that runs it.  Fails (exit 1)
when the parallel sweep is slower than the sequential one or its
reports differ, or when `Engine.schedule` started allocating.

The ring-buffer packet path adds two more families of checks:

- `forward`: the steady-state slot -> link -> deliver -> retire path
  must stay allocation-free on the minor heap and must cost at most
  FORWARD_FACTOR raw engine events per packet, both measured in the
  same run.  Each hop is two engine events (serialize, propagate).
  A burst of 1 000 packets on the wire at once may cost at most
  BURST_FACTOR times per packet what the same packets cost forwarded
  one at a time, timed alternately in the same run: the packets in
  flight on a link are one delay line with one heap entry, and a link
  that went back to an entry per packet would pay for a heap 1 000
  deep on every event.
- `pilot_audit`: over the E-F4 pilot window the packet ring must
  recycle what it acquires (ratio >= RECYCLE_FLOOR), end quiescent
  (`in_use` = 0 — a leaked slot means a retirement point was missed),
  and never observe a stale/double `in_packet_done`.  The major heap
  may take at most MAJOR_COPY_FACTOR copies of the fragment payload
  per delivered fragment (`major_words_per_delivered` against
  `frame_words`, both from the same run).  The pilot keeps one copy on
  purpose, DTN 1's retransmission copy, and the audit reads about two
  with frames and bookkeeping; a workload that stops lending its
  readout buffer, a sender that encodes before it sends, or a receiver
  that copies a payload out for the event builder each add one and
  fails here.

The micro-benchmarks of BASELINE.json, recorded on another machine,
are printed next to the current ones for information only.  End-to-end
speed is guarded by `bench/perf`, which runs both sides on one machine.

Usage: bench_gate.py BASELINE.json CURRENT.json
"""

import json
import sys

SLACK_NS = 25.0  # absolute headroom so sub-50ns ops don't flap on noise
SWEEP_HEADROOM = 1.15  # parallel may not exceed sequential by more than this
FORWARD_FACTOR = 4.0  # forwarded packet may cost at most this many engine events
BURST_FACTOR = 2.0  # burst packet may cost at most this many packets sent alone
RECYCLE_FLOOR = 0.99  # pilot ring: retired / acquired must not drop below this
MAJOR_COPY_FACTOR = 3.0  # pilot: major words per delivered fragment / payload words


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        baseline = json.load(f)
    with open(sys.argv[2]) as f:
        current = json.load(f)

    failures = []

    base_micro = baseline.get("micro_ns", {})
    cur_micro = current.get("micro_ns", {})
    for name in sorted(set(base_micro) & set(cur_micro)):
        print(
            f"  {name}: {base_micro[name]:.1f} ns (baseline) -> "
            f"{cur_micro[name]:.1f} ns (info)"
        )

    sweep = current.get("sweep", {})
    sequential = sweep.get("sequential_wall_s")
    parallel = sweep.get("parallel_wall_s")
    if sequential is not None and parallel is not None:
        if parallel > sequential * SWEEP_HEADROOM:
            failures.append(
                f"parallel sweep {parallel:.2f} s slower than "
                f"sequential {sequential:.2f} s"
            )
    if sweep.get("reports_identical") is False:
        failures.append("parallel sweep reports differ from sequential")

    alloc = current.get("schedule_alloc_minor_words")
    if alloc is not None and alloc >= 0.5:
        failures.append(
            f"Engine.schedule allocates ({alloc:.2f} minor words/event)"
        )

    forward = current.get("forward", {})
    fwd_ns = forward.get("ns_per_packet")
    fwd_words = forward.get("alloc_minor_words_per_packet")
    if fwd_words is not None and fwd_words >= 0.5:
        failures.append(
            f"forward path allocates ({fwd_words:.2f} minor words/packet)"
        )
    event_ns = cur_micro.get("E-A3/engine schedule+run event")
    if fwd_ns is not None and event_ns is not None:
        ceiling = event_ns * FORWARD_FACTOR + SLACK_NS
        if fwd_ns > ceiling:
            failures.append(
                f"forward path {fwd_ns:.1f} ns/packet exceeds "
                f"{FORWARD_FACTOR:g}x engine event cost "
                f"({event_ns:.1f} ns -> ceiling {ceiling:.1f} ns)"
            )

    burst_ns = forward.get("burst_ns_per_packet")
    single_ns = forward.get("burst_single_ns_per_packet")
    if burst_ns is not None and single_ns is not None:
        if burst_ns > BURST_FACTOR * single_ns:
            failures.append(
                f"burst {burst_ns:.1f} ns/packet exceeds {BURST_FACTOR:g}x "
                f"the same packets sent one at a time "
                f"({single_ns:.1f} ns -> ceiling {BURST_FACTOR * single_ns:.1f} ns)"
            )

    audit = current.get("pilot_audit", {})
    recycle = audit.get("ring_recycle_ratio")
    if recycle is not None and recycle < RECYCLE_FLOOR:
        failures.append(
            f"pilot ring recycle ratio {recycle:.4f} below {RECYCLE_FLOOR}"
        )
    audit_ring = audit.get("ring", {})
    in_use = audit_ring.get("in_use")
    if in_use is not None and in_use > 0:
        failures.append(
            f"pilot ring leaks {in_use} slot(s) after a quiescent run"
        )
    major = audit.get("major_words_per_delivered")
    frame_words = audit.get("frame_words")
    if major is not None and frame_words:
        if major > MAJOR_COPY_FACTOR * frame_words:
            failures.append(
                f"pilot allocates {major:.0f} major words per delivered "
                f"fragment, over {MAJOR_COPY_FACTOR:g} payload copies "
                f"({MAJOR_COPY_FACTOR * frame_words:.0f} words)"
            )
    double_done = audit_ring.get("double_done")
    if double_done is not None and double_done > 0:
        failures.append(
            f"pilot ring saw {double_done} stale/double in_packet_done"
        )

    if failures:
        print("bench gate: REGRESSIONS FOUND", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("bench gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
