"""EM checkpointing: resumable parameter snapshots, one store per model.

Layout under ``<workdir>/checkpoints``, one file name prefix per model
(``em`` for the HMM, ``lm`` for the span label model)::

    em_iter_000.npz   # parameters after initialisation (before EM)
    em_iter_001.npz   # parameters after EM iteration 1
    ...

Each file is self-describing: beside the parameters it holds the
log-likelihood ``history`` up to its iteration and the ``done``
(converged) flag; iteration 0 also records the ``inputs`` the parameters
were initialised from.  A file is written to a hidden ``.tmp`` sibling
and renamed to its own, new name (:func:`write_atomic`), so a file under
its final name is complete and no save renames over an existing file.
(Renaming over an existing file makes ext4 flush the new file's data
first: the one shared ``em_meta.json`` the store used to replace on every
save waited 20-90 ms for the dirty checkpoints to reach the disk, against
~1 ms for a rename to a fresh name.)

``latest()`` lets a restarted driver continue mid-train (north rule:
"EM ... resume[s] mid-run from checkpointed sufficient statistics").
"""

from __future__ import annotations

import os
import re

import numpy as np

from .hmm import HMMParams


def write_atomic(path: str, write) -> None:
    """``write(tmp)``, then rename ``tmp`` to ``path``.  ``tmp`` is the
    hidden sibling ``.<name>.tmp``, which Ray's readers, ``*.parquet`` globs
    and the checkpoint names all skip, so a kill mid-write leaves no file a
    reader takes; a write or rename that raises removes it."""
    head, name = os.path.split(path)
    tmp = os.path.join(head, "." + name + ".tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


class CheckpointStore:
    def __init__(self, workdir: str, prefix: str = "em",
                 params_cls=HMMParams):
        self.dir = os.path.join(workdir, "checkpoints")
        self.prefix = prefix
        self.params_cls = params_cls
        self._name = re.compile(re.escape(prefix) + r"_iter_(\d{3,})\.npz")
        os.makedirs(self.dir, exist_ok=True)

    def _path(self, it: int) -> str:
        return os.path.join(self.dir, "%s_iter_%03d.npz" % (self.prefix, it))

    def save(self, it: int, params, history: list[float],
             done: bool = False, **extra) -> None:
        def write(tmp):
            with open(tmp, "wb") as fd:
                params.save(fd, history=np.asarray(history, np.float64),
                            done=np.bool_(done), **extra)
        write_atomic(self._path(it), write)

    def latest(self, upto: int | None = None
               ) -> tuple[int, object, list[float], bool] | None:
        """(iteration, params, history, done) of the highest complete
        iteration (at most ``upto``), or None before the first save.
        Leftover ``.tmp`` files of a killed save are not checkpoints."""
        its = [int(m.group(1)) for m in map(self._name.fullmatch,
                                             os.listdir(self.dir)) if m]
        its = [i for i in its if upto is None or i <= upto]
        if not its:
            return None
        it = max(its)
        with np.load(self._path(it)) as z:
            return it, self.params_cls.from_npz(z), z["history"].tolist(), \
                bool(z["done"])

    def inputs(self) -> str | None:
        """The init inputs iteration 0 recorded, None without them."""
        try:
            with np.load(self._path(0)) as z:
                return str(z["inputs"]) if "inputs" in z.files else None
        except FileNotFoundError:
            return None

    def clear(self) -> None:
        """Remove this store's files (complete and ``.tmp``)."""
        for name in os.listdir(self.dir):
            if name.lstrip(".").startswith(self.prefix + "_iter_"):
                os.remove(os.path.join(self.dir, name))
