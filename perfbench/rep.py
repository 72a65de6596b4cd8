"""One repetition of one workload, in a fresh process.

    python3 perfbench/rep.py WORKLOAD SEED MODE

``MODE`` is ``plain`` (untraced), ``traced`` (layer spans on),
``setup`` (stop where the first simulated event would run) or, for
``torus_load_sweep`` only, ``serial`` (every point in this process,
untraced).  Prints one JSON object: the workload's output for the
parent's check, ``time.time()`` stamps (entry, end of set-up, end of
simulation, results computed), import time, peak RSS of this process
and of its children, and the trace report when traced.
"""

from __future__ import annotations

import time

T_ENTRY = time.time()

import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main(argv) -> int:
    workload, seed, mode = argv[1], int(argv[2]), argv[3]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    start = time.perf_counter()
    import repro  # noqa: F401
    from repro import models

    models.load_all()
    import_s = time.perf_counter() - start

    from perfbench.workloads import RUNNERS

    tracer = None
    if mode == "traced":
        from perfbench.tracer import Tracer

        tracer = Tracer()
        tracer.install()
    output = RUNNERS[workload](seed, mode, tracer)
    if tracer is not None:
        tracer.uninstall()
        from repro.net.flit import FLIT_SLAB

        output["trace"] = tracer.report()
        output["trace"]["slab_peak"] = FLIT_SLAB.capacity
    output.update(
        t_entry=T_ENTRY,
        import_s=import_s,
        rss_self_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        rss_children_kb=resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    print(json.dumps(output))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
