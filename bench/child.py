"""Fresh-interpreter helpers for the benchmark; run by ``run.py``, not by hand.

    child.py setup WORKLOAD SEED WORKDIR   import jordantp.cli, build the inputs
    child.py trace SPANS ARG...            run ``jordantp ARG...`` traced, save spans
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]


def main(argv: list[str]) -> int:
    import jordantp.cli

    if argv[0] == "setup":
        from workloads import build_requests

        build_requests(argv[1], int(argv[2]), argv[3])
        return 0
    from tracer import REQUEST, Tracer, install

    tracer = Tracer()
    install(tracer)
    tracer.request_id = 0
    span = tracer.open(REQUEST)
    try:
        return jordantp.cli.main(argv[2:])
    finally:
        tracer.close(span)
        tracer.save(argv[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
