"""EM checkpointing: resumable sufficient-statistics / parameter snapshots.

Layout under ``<workdir>/checkpoints``::

    em_iter_000.npz   # parameters after initialisation (before EM)
    em_iter_001.npz   # parameters after EM iteration 1
    ...

Each file is self-describing: beside the parameters it holds the
log-likelihood ``history`` up to its iteration and the ``done``
(converged) flag.  A file is written as ``em_iter_k.npz.tmp`` and renamed
to its own, new name, so a file under its final name is complete and no
save renames over an existing file.  (Renaming over an existing file makes
ext4 flush the new file's data first: the one shared ``em_meta.json`` the
store used to replace on every save waited 20-90 ms for the dirty
checkpoints to reach the disk, against ~1 ms for a rename to a fresh
name.)

``latest()`` lets a restarted driver continue mid-train (north rule:
"EM ... resume[s] mid-run from checkpointed sufficient statistics").
"""

from __future__ import annotations

import os
import re

import numpy as np

from .hmm import HMMParams

_NAME = re.compile(r"em_iter_(\d{3,})\.npz")


class CheckpointStore:
    def __init__(self, workdir: str):
        self.dir = os.path.join(workdir, "checkpoints")
        os.makedirs(self.dir, exist_ok=True)

    def _path(self, it: int) -> str:
        return os.path.join(self.dir, "em_iter_%03d.npz" % it)

    def save(self, it: int, params: HMMParams, history: list[float],
             done: bool = False) -> None:
        path = self._path(it)
        with open(path + ".tmp", "wb") as fd:
            params.save(fd, history=np.asarray(history, np.float64),
                        done=np.bool_(done))
        os.replace(path + ".tmp", path)

    def latest(self) -> tuple[int, HMMParams, list[float], bool] | None:
        """(iteration, params, history, done) of the highest complete
        iteration, or None before the first save.  Leftover ``.tmp`` files
        of a killed save are not checkpoints."""
        its = [int(m.group(1)) for m in map(_NAME.fullmatch,
                                             os.listdir(self.dir)) if m]
        if not its:
            return None
        it = max(its)
        with np.load(self._path(it)) as z:
            return it, HMMParams.from_npz(z), z["history"].tolist(), \
                bool(z["done"])
