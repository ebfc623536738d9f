"""One schurrec CLI command with the layer wrappers installed.

Used by the traced cli-cold run in place of `python -m schurrec.cli`.  The
command's output and exit code are unchanged; the spans it recorded follow
on the last line of standard error, after spans.SPANS_MARK.

    PYTHONPATH=src python3 bench/cli_child.py verify --mu [1] --n 2
"""
import json
import sys

if __name__ == "__main__":
    import schurrec.cli
    from spans import SPANS_MARK, Tracer, instrument

    tracer = Tracer()
    instrument(tracer)
    tracer.active = True
    idx = tracer.open("cli.command")
    try:
        code = schurrec.cli.main(sys.argv[1:])
    finally:
        tracer.close(idx)
        tracer.active = False
    sys.stdout.flush()
    sys.stderr.buffer.write(b"\n" + SPANS_MARK + json.dumps(tracer.export()).encode() + b"\n")
    raise SystemExit(code)
