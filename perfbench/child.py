"""Child process of the benchmark: import rflab, report when ready, run.

    child.py [--ready-only] READY_FILE cli ARG...     rflab.cli.main(ARG...)
    child.py [--ready-only] READY_FILE risk SPEC      risk.run(**SPEC)
    child.py READY_FILE inproc SPEC                   one workload run in-process

READY_FILE receives the CLOCK_MONOTONIC time at which rflab is imported and
the entry point is resolved, and the path rflab was imported from; the parent
subtracts its spawn time to get the set-up time. With --ready-only the child
exits right there, which gives extra set-up samples.

The in-process mode runs a list of steps back to back in this one process,
optionally under the span tracer, and writes the run's wall time (and the
spans) to the paths in SPEC. It is the traced run and its untraced twin.
"""

from __future__ import annotations

import json
import sys
import time


def _ready(path: str, rflab_file: str) -> None:
    stamp = time.monotonic()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"ready": stamp, "rflab": rflab_file}, fh)


def _inproc(spec: dict) -> int:
    import traceback

    import risk
    from rflab import cli

    if spec["traced"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(extra_modules=[risk])
    codes = []
    t0 = time.perf_counter()
    for kind, args in spec["steps"]:
        try:
            if kind == "cli":
                code = cli.main(list(args))
            else:
                code = risk.run(**json.loads(args[0]))
        except Exception:
            traceback.print_exc()
            code = 1
        codes.append(code)
        if code != 0:
            break
    run_s = time.perf_counter() - t0
    if spec["traced"]:
        tracer.save(spec["spans"])
    with open(spec["timing"], "w", encoding="utf-8") as fh:
        json.dump({"run_s": run_s, "codes": codes}, fh)
    return 0


def main(argv: list[str]) -> int:
    ready_only = argv[:1] == ["--ready-only"]
    if ready_only:
        argv = argv[1:]
    ready_path, mode, rest = argv[0], argv[1], argv[2:]
    import rflab
    if mode == "cli":
        from rflab.cli import main as entry
        call = lambda: entry(rest)  # noqa: E731
    elif mode == "risk":
        import risk
        call = lambda: risk.run(**json.loads(rest[0]))  # noqa: E731
    elif mode == "inproc":
        import risk  # noqa: F401
        from rflab import cli  # noqa: F401
        call = lambda: _inproc(json.loads(rest[0]))  # noqa: E731
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    _ready(ready_path, rflab.__file__)
    if ready_only:
        return 0
    return call()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
