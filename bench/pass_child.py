"""One pass of a library workload, in a fresh interpreter.

bench/run.py starts one of these per pass, so that nothing the library keeps
in memory carries over from one pass of a run's inputs to the next.  It reads
a pickled {"workload", "inputs", "spans_path"} on standard input, runs and
checks each input's op in turn, and prints one JSON line: each op's seconds
and error (null when its output checked out), and, when spans_path is set,
the traced layer times and counters, the spans themselves going to that file.

    PYTHONPATH=src python3 bench/pass_child.py < job.pickle
"""
import json
import pickle
import sys
from pathlib import Path

if __name__ == "__main__":
    from run import make_workload, pass_here

    job = pickle.load(sys.stdin.buffer)
    spans_path = job["spans_path"] and Path(job["spans_path"])
    result = pass_here(make_workload(job["workload"]), job["inputs"], spans_path)
    print(json.dumps(result))
