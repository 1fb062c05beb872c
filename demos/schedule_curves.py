"""Plot the three training schedules as ascii curves.

No matplotlib on purpose -- the point is just to eyeball the shapes:
the confidence gate rises and saturates, the mixing weight ramps then
holds, and the unsupervised-sample rate follows the gate.
"""

import numpy as np

from ssrs.schedules import alpha_at, lambda_at, p_u_at

HORIZON = 1000
COLS = 61
ROWS = 13


def ascii_curve(fn, lo, hi, label):
    xs = np.linspace(0, HORIZON, COLS).astype(int)
    ys = np.array([fn(int(x)) for x in xs])
    grid = [[" "] * COLS for _ in range(ROWS)]
    for c, y in enumerate(ys):
        r = int(round((y - lo) / (hi - lo) * (ROWS - 1)))
        grid[ROWS - 1 - min(max(r, 0), ROWS - 1)][c] = "*"
    print(f"{label}   [{lo:.2f} .. {hi:.2f}] over {HORIZON} episodes")
    for row in grid:
        print("  |" + "".join(row))
    print("  +" + "-" * COLS)
    print(f"   start {ys[0]:.6f}   knee/ramp mid {ys[COLS // 2]:.6f}   "
          f"end {ys[-1]:.6f}\n")


gate = lambda ep: lambda_at(ep, HORIZON)
mix = lambda ep: alpha_at(ep, HORIZON)


def rate(ep):
    # pretend the buffer fills at 40 steps/episode and ~4% of steps pay out
    buffer_count = min(40 * ep, 10_000)
    return p_u_at(ep, HORIZON, int(0.04 * buffer_count), buffer_count,
                  base=0.01)


ascii_curve(gate, 0.55, 0.85, "confidence gate  ")
ascii_curve(mix, 0.15, 0.75, "loss mixing      ")
ascii_curve(rate, 0.0, float(rate(HORIZON)) * 1.05, "shaping rate     ")

# a couple of exact landmarks worth memorising
print(f"gate at episode 0:        {lambda_at(0, HORIZON)}")
print(f"gate at the horizon:      {lambda_at(HORIZON, HORIZON):.6f}")
print(f"mixing at 80% of horizon: {alpha_at(int(0.8 * HORIZON), HORIZON)}"
      "  (exactly the final value -- the ramp ends there)")
