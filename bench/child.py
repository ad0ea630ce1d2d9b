"""One benchmark case, run in its own process.

    python bench/child.py MODE SIDE_FILE SRC_DIR [traintrack arguments...]

MODE is ``run`` (plain), ``trace`` (with the outside-in wrappers of
tracer.py) or ``import`` (stop after the import).  The child imports
``traintrack.cli`` from SRC_DIR, stamps the end of the import with
``time.monotonic()`` (CLOCK_MONOTONIC, the same clock the parent reads
at spawn), runs ``cli.main`` on the arguments and exits with its code.
The stamp and, when traced, the span aggregates go to SIDE_FILE as one
JSON object, so the program's stdout and stderr stay untouched.
"""

import json
import sys
import time


def main() -> int:
    mode, side_file, src = sys.argv[1:4]
    sys.path.insert(0, src)
    import traintrack.cli as cli

    side = {"import_done": time.monotonic()}
    if mode == "import":
        code = 0
    else:
        tracer = None
        if mode == "trace":
            import tracer as tracer_mod

            tracer = tracer_mod.install()
        code = cli.main(sys.argv[4:])
        sys.stdout.flush()
        if tracer is not None:
            side["trace"] = tracer.dump()
    with open(side_file, "w", encoding="utf-8") as fh:
        json.dump(side, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
