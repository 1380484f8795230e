#!/usr/bin/env python3
"""Write the shifted-bag CSV fixtures that the CI smoke steps and the
verification recipes run on.

Each bag t holds ROWS evenly spaced scalars u in (-0.5, 0.5), one
`t,u` row each, after a `t,x` header. A stream that shifts keeps that
shape until t = BAGS // 2, then splits it into two modes,
SHIFT * sign(u) + u: the mean stays 0, the shape changes.

  fixture.py --bags B --rows R --shift J OUT.csv
      one stream, which shifts;
  fixture.py --bags B --rows R --shift J --streams N DIR
      DIR/s0.csv .. DIR/s{N-1}.csv; even streams shift, odd ones never.
"""

import argparse
import math
import os


def write_stream(path, bags, rows, shift, shifts):
    with open(path, "w") as f:
        f.write("t,x\n")
        for t in range(bags):
            for i in range(rows):
                u = (i + 0.5) / rows - 0.5
                x = shift * math.copysign(1, u) + u if shifts and t >= bags // 2 else u
                f.write(f"{t},{x}\n")


def main():
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    p.add_argument("--bags", type=int, required=True)
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--shift", type=float, required=True)
    p.add_argument("--streams", type=int)
    p.add_argument("out")
    a = p.parse_args()
    if a.streams is None:
        write_stream(a.out, a.bags, a.rows, a.shift, True)
        return
    os.makedirs(a.out, exist_ok=True)
    for s in range(a.streams):
        path = os.path.join(a.out, f"s{s}.csv")
        write_stream(path, a.bags, a.rows, a.shift, s % 2 == 0)


if __name__ == "__main__":
    main()
