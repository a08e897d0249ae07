"""Set-up cost of the kantor package, measured in this fresh process.

Times ``import kantor`` plus ``load_catalog(selftest=True)``, the catalog
self-test every library user pays once per process (the catalog caches
itself in module globals, so only a fresh process measures it), and
prints one JSON line with the wall time and the process's peak RSS.

    python3 benchmarks/setup_probe.py SRC_DIR [--trace]

With ``--trace`` the catalog layers are traced and their figures are
printed instead.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _peak_rss_kb() -> int:
    """Peak RSS of this process image.

    Linux carries ``ru_maxrss`` over from the parent through fork and exec,
    so a probe started from a large benchmark process would report the
    parent's size; ``VmHWM`` belongs to the new image alone.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv):
    src = Path(argv[0]).resolve()
    trace = argv[1:] == ["--trace"]
    sys.path.insert(0, str(src))
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    start = time.perf_counter()
    import kantor

    if trace:
        tracer.install()
        try:
            kantor.load_catalog(selftest=True)
        finally:
            tracer.restore()
    else:
        kantor.load_catalog(selftest=True)
    setup_s = time.perf_counter() - start
    if Path(kantor.__file__).resolve().parent != src / "kantor":
        print(f"imported kantor from {kantor.__file__}, not from {src}", file=sys.stderr)
        return 2
    if trace:
        print(json.dumps(tracer.metrics()))
        return 0
    print(json.dumps({"setup_s": setup_s, "peak_rss_mb": _peak_rss_kb() / 1024}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
