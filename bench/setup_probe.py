"""What a CLI user pays before the first report: a fresh interpreter,
`import dmckit.cli`, and every input of a workload read through the
program's own loaders.  `run.py` times whole runs of this script.

    python3 bench/setup_probe.py MANIFEST.json

MANIFEST lists [loader, path, dist path or null] triples; message files are
loaded against the support of their distribution, as `partition` does.
"""

import json
import sys

from dmckit import cli


def main(manifest: str) -> None:
    with open(manifest, encoding="utf-8") as fh:
        loads = json.load(fh)
    dists = {}
    for loader, path, dist_path in loads:
        if loader == "message_index":
            if dist_path not in dists:
                dists[dist_path] = cli.load_dist(dist_path)
            cli.load_message_index(path, dists[dist_path].support())
        elif loader == "dist":
            dists[path] = cli.load_dist(path)
        else:
            getattr(cli, f"load_{loader}")(path)


if __name__ == "__main__":
    main(sys.argv[1])
