"""Timing statistics that hold still on a shared host.

On a shared host a CPU can run up to about 1.9x slower for stretches of
seconds while other tenants load the machine (seen on a 2-vCPU x86 VM, where
one small numpy ``tensordot`` flips between about 8.4 and 14.2 us), and the
share of slow time changes from minute to minute.  A plain median over a run
mixes the two speeds in that changing share, and even the fastest whole round
of a 0.4 s round rarely falls in one fast stretch.  The benchmark therefore
takes every timing from the fastest pass through each short piece of work:

* Every round of a run repeats the same work on the same seed, so the
  StepClock's stamps cut each round into the same sequence of segments:
  the stretch before each ``run`` call, each optimizer step, the stretch
  after each call and the rest of the round.  ``quiet_round`` takes each
  segment's fastest time over the rounds.  Their sum is the round time, and
  the steps' fastest times give the step percentiles; a segment is a few
  hundred us to a few ms, so each one meets a fast stretch in some round.
* set-up times: the fastest sample, as ``timeit`` reports; a set-up cannot
  run faster than its work allows, only slower.

Work added to every pass through a segment still moves these figures; a cost
that hits only a few rounds of a run does not.  Host load that lasts through
a whole run, or slows the same segment in every round, still shows.
"""

from __future__ import annotations

from collections import Counter

import numpy as np


def quiet_round(pairs) -> tuple[float, np.ndarray]:
    """(round s, step us) of the segment-wise fastest pass over ``pairs``.

    ``pairs`` are (Round, [RunTiming]) of one kind of work.  Rounds are
    compared only with rounds of the most common shape (steps per ``run``
    call); a round of another shape has failed and is left out.
    """
    shapes = Counter(tuple(len(rt.stamps) for rt in runs) for _, runs in pairs)
    shape = shapes.most_common(1)[0][0]
    marks = np.stack([
        np.concatenate([[rnd.start_ns], *(rt.stamps for rt in runs), [rnd.end_ns]])
        for rnd, runs in pairs
        if tuple(len(rt.stamps) for rt in runs) == shape
    ])
    fastest = np.diff(marks, axis=1).min(axis=0)
    is_step = np.zeros(len(fastest), dtype=bool)
    first = 1  # index in a row of marks of a run's first stamp
    for stamps in shape:
        is_step[first : first + stamps - 2] = True
        first += stamps
    if not is_step.any():
        raise ValueError("no round took an optimizer step")
    return float(fastest.sum()) / 1e9, fastest[is_step] / 1e3
