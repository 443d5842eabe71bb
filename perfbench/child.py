"""The helper process that runs a workload's set-ups and output checks.

``run.py`` starts it with ``Child()`` and stops it with ``Child.close()``,
which waits until it has ended. Requests and replies are pickled over
the child's standard input and output; everything the child prints goes
to standard error. The child ends when its standard input closes, so it
also ends if the parent dies.
"""

import os
import pickle
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def set_up(make, size, directory, seed):
    workload = make(size)
    start = time.perf_counter()
    workload.setup(directory, seed)
    return time.perf_counter() - start, workload.__dict__


def verify(workload):
    import workloads
    checks = workloads.Checks()
    workload.verify(checks)
    return checks


CALLS = {"set_up": set_up, "verify": verify}


class Child:
    """One helper process; ``call`` runs a function of CALLS in it."""

    def __init__(self):
        self.process = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)], cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def call(self, name, *args):
        pickle.dump((name, args), self.process.stdin,
                    pickle.HIGHEST_PROTOCOL)
        self.process.stdin.flush()
        try:
            ok, value = pickle.load(self.process.stdout)
        except EOFError:
            raise RuntimeError(f"benchmark child ended during {name}") \
                from None
        if not ok:
            raise RuntimeError(f"benchmark child failed in {name}:\n{value}")
        return value

    def close(self):
        """Close the child's input and wait until it has ended; kill it
        if it has not ended within ten seconds."""
        try:
            self.process.stdin.close()
        except OSError:
            pass
        try:
            self.process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


def serve():
    requests = os.fdopen(os.dup(0), "rb")
    replies = os.fdopen(os.dup(1), "wb")
    null = os.open(os.devnull, os.O_RDONLY)
    os.dup2(null, 0)
    os.close(null)
    os.dup2(2, 1)  # annokit's own output must not mix with the replies
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    while True:
        try:
            name, args = pickle.load(requests)
        except EOFError:
            return 0
        try:
            reply = (True, CALLS[name](*args))
        except Exception:  # handed back to the parent, which raises it
            reply = (False, traceback.format_exc())
        pickle.dump(reply, replies, pickle.HIGHEST_PROTOCOL)
        replies.flush()


if __name__ == "__main__":
    sys.exit(serve())
