"""Fixed reference job: the benchmark's yardstick for machine speed.

The benchmark runs this script as a subprocess between knnsum CLI
invocations. On a shared host the speed of the machine drifts by tens of
percent over tens of seconds, for every process alike; a knnsum
invocation and this job, run back to back, see the same drift. Each
end-to-end time is therefore reported as the invocation's wall time
rescaled by the wall time of the neighbouring runs of this job (see
run.py, ``REFERENCE_CAL_S``).

The job does the kinds of work a knnsum invocation does -- start an
interpreter, import numpy and scipy, build string-keyed dicts and sets,
take a sparse gram product, apply a vectorized log -- and never imports
knnsum, so a change to the program cannot move it. Do not edit it: every
recorded time is relative to this exact job.
"""

import numpy as np
from scipy import sparse


def main() -> None:
    index = {}
    for i in range(20_000):
        key = f"<http://example.org/k{i}>"
        index[(key, i % 97)] = {key[1:-1], i}
    m = sparse.random(1_500, 1_000, density=0.01, format="csr",
                      random_state=1)
    gram = (m.T @ m).toarray()
    np.log(gram + 1.0).sum()


if __name__ == "__main__":
    main()
