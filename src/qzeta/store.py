"""The form store: linear forms in memory and, given a root, on disk.

Importing this module loads no other qzeta module, nor tempfile, which
only a save needs.  A Store reads and
writes its files through forms and calls builders.build only to build a
form it cannot load, so commands that never touch a linear form load
neither, and a warm run loads no builder.  A form's file name starts
with params.kind.

A form file, <kind>-<params>.json.gz, is one gzip member (RFC 1952)
holding exactly form_to_json's text, so `zcat` prints it.  zlib writes the
header with mtime 0, so a file's bytes depend only on the form (for one
zlib build).  Two checks guard a load: gzip's CRC-32 and length trailer
catch corrupt or truncated bytes before any JSON is parsed, and
form_from_json then checks the crc32 inside the text.
"""

from __future__ import annotations

import os
import zlib

_GZIP = 31  # zlib's wbits for a gzip header and trailer


class Store:
    """The linear forms of one run, in memory and, given a root, on disk.

    form(params) answers from memory, else from <root>/forms/<kind>-<params>.json.gz
    when that file is one whole gzip member whose text form_from_json
    accepts, else builds the form and writes the file atomically (temp file
    + rename).  A file that fails either check is rebuilt and overwritten,
    never served.  A file of any other name, such as a <kind>-<params>.json
    of the uncompressed layout, is never read nor removed.  <root>/forms is
    created with the store.
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
        return os.path.join(self.forms_dir, name + ".json.gz")

    def _load(self, params):
        from .forms import form_from_json

        if self.forms_dir is None:
            return None
        try:
            with open(self._path(params), "rb") as fh:
                member = zlib.decompressobj(_GZIP)
                text = member.decompress(fh.read())
            if not member.eof or member.unused_data:  # truncated, or bytes after it
                return None
            return form_from_json(text.decode(), params)
        except (OSError, ValueError, zlib.error):
            return None

    def _save(self, form) -> None:
        import tempfile  # here: a command that only reads forms never loads it

        from .forms import form_to_json

        if self.forms_dir is None:
            return
        member = zlib.compressobj(6, zlib.DEFLATED, _GZIP)
        data = member.compress(form_to_json(form).encode()) + member.flush()
        path = self._path(form.params)
        fd, tmp = tempfile.mkstemp(dir=self.forms_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)  # still there: the rename is the last step
            raise
