"""Set-up probe, run in a fresh interpreter from the repository root.

    python bench/setup_probe.py FILE...

Imports rpdcsim, loads each device JSON and calibration CSV named, then
prints `ready`. The benchmark times spawn-to-`ready` as `setup_s`.
"""

import sys

import rpdcsim


def main(paths) -> None:
    for path in paths:
        if path.endswith(".csv"):
            rpdcsim.load_axis_calibration(path)
        else:
            rpdcsim.load_device(path)
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
