"""The form store: linear forms in memory and, given a root, on disk.

Importing this module loads no other qzeta module.  A Store reads and
writes its files through forms and calls builders.build only to build a
form it cannot load, so commands that never touch a linear form load
neither, and a warm run loads no builder.  A form's file name starts
with params.kind.
"""

from __future__ import annotations

import os
import tempfile


class Store:
    """The linear forms of one run, in memory and, given a root, on disk.

    form(params) answers from memory, else from <root>/forms/<kind>-<params>.json
    when form_from_json accepts that file, else builds the form and writes
    the file atomically (temp file + rename).  A file that fails verification
    is rebuilt and overwritten, never served.  <root>/forms is created with
    the store.
    """

    def __init__(self, root: str | None = None):
        self.forms_dir = None if root is None else os.path.join(root, "forms")
        self._forms: dict = {}
        if self.forms_dir is not None:
            try:  # created up front, so a used cache dir is never empty
                os.makedirs(self.forms_dir, exist_ok=True)
            except OSError:
                pass  # read-only root: only a command that saves a form fails

    def form(self, params):
        form = self._forms.get(params)
        if form is None:
            form = self._load(params)
            if form is None:
                from .builders import build

                form = build(params)
                self._save(form)
            self._forms[params] = form
        return form

    def _path(self, params) -> str:
        name = "-".join([params.kind, *map(str, params)])
        return os.path.join(self.forms_dir, name + ".json")

    def _load(self, params):
        from .forms import form_from_json

        if self.forms_dir is None:
            return None
        try:
            with open(self._path(params)) as fh:
                return form_from_json(fh.read(), params)
        except (OSError, ValueError):
            return None

    def _save(self, form) -> None:
        from .forms import form_to_json

        if self.forms_dir is None:
            return
        fd, tmp = tempfile.mkstemp(dir=self.forms_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(form_to_json(form))
            os.replace(tmp, self._path(form.params))
        except BaseException:
            os.unlink(tmp)  # still there: the rename is the last step
            raise
