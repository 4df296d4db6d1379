"""Build, cache and load the compiled walk kernel, `_walk.c`.

The kernel links numpy's static random library, ``libnpyrandom.a``, so it
draws through the same routines as ``numpy.random.Generator``. gcc builds it
on first use with fixed flags; the shared object is cached per user under
``$XDG_CACHE_HOME/gwspeed`` (default ``~/.cache/gwspeed``, mode 0700), keyed
by a hash of the source, the numpy version, the interpreter's ABI tag and
the compiler flags. Importing this module builds and loads nothing.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import stat
import subprocess
import sysconfig
import tempfile
import warnings
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_walk.c")
# No -ffast-math or -march=native: either may reorder or fuse floating-point
# operations and break bit-identity with numpy's compiled samplers.
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
BUILD_TIMEOUT_S = 120


class WalkParams(ctypes.Structure):
    """Mirror of `walk_params` in `_walk.c`."""

    _fields_ = [
        ("law", ctypes.c_int64),
        ("n", ctypes.c_int64),
        ("a", ctypes.c_double),
        ("weights", ctypes.POINTER(ctypes.c_double)),
        ("p", ctypes.c_double),
        ("rho", ctypes.c_double),
        ("cdf", ctypes.POINTER(ctypes.c_double)),
        ("ncdf", ctypes.c_int64),
        ("coverage", ctypes.c_double),
        ("max_rejections", ctypes.c_int64),
        ("max_nodes", ctypes.c_int64),
        ("horizon", ctypes.c_int64),
    ]


def doubles(values) -> ctypes.Array:
    """A C array of doubles; assigned to a WalkParams pointer field, it is
    kept alive by the structure."""
    return (ctypes.c_double * len(values))(*values)


def cache_dir() -> Path:
    """The per-user cache directory, created 0700; refuses one that another
    user owns or that is not a plain directory."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    path = Path(base) / "gwspeed"
    path.mkdir(mode=0o700, parents=True, exist_ok=True)
    st = os.lstat(path)
    if not stat.S_ISDIR(st.st_mode) or st.st_uid != os.getuid():
        raise OSError(f"cache directory {path} is not a directory owned by this user")
    if stat.S_IMODE(st.st_mode) != 0o700:
        os.chmod(path, 0o700)
    return path


def _build(target: Path) -> None:
    """Compile the kernel into `target` through a temporary file in the same
    directory, so a concurrent build never leaves a half-written module."""
    npyrandom = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"
    if not npyrandom.is_file():
        raise OSError(f"numpy ships no static random library at {npyrandom}")
    py_include = sysconfig.get_paths()["include"]
    if not os.path.isfile(os.path.join(py_include, "Python.h")):
        raise OSError(f"no Python headers in {py_include}")
    fd, tmp = tempfile.mkstemp(prefix=target.stem + ".", suffix=".tmp", dir=target.parent)
    os.close(fd)
    try:
        subprocess.run(["gcc", *CFLAGS, "-I", np.get_include(), "-I", py_include,
                        str(SOURCE), str(npyrandom), "-lm", "-o", tmp],
                       check=True, capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def module_path() -> Path:
    key = hashlib.sha256()
    for part in (SOURCE.read_bytes(), np.__version__.encode(),
                 str(sysconfig.get_config_var("SOABI")).encode(), " ".join(CFLAGS).encode()):
        key.update(part + b"\0")
    return cache_dir() / f"walk-{key.hexdigest()[:16]}.so"


@functools.cache
def load():
    """The kernel's `gw_walk`, built on first use; None, after one warning,
    when it cannot be built or loaded (no gcc, no libnpyrandom.a, no Python
    headers, a compile error, an unwritable cache)."""
    try:
        path = module_path()
        if not path.exists():
            _build(path)
        walk = ctypes.CDLL(str(path)).gw_walk
    except subprocess.CalledProcessError as exc:
        reason = f"gcc failed: {exc.stderr.strip()[-500:]}"
    except (OSError, subprocess.SubprocessError) as exc:
        reason = str(exc)
    else:
        walk.argtypes = [ctypes.c_void_p, ctypes.POINTER(WalkParams),
                         ctypes.POINTER(ctypes.c_int64)]
        walk.restype = ctypes.c_int
        return walk
    warnings.warn(f"compiled walk kernel unavailable, using the Python walk: {reason}",
                  RuntimeWarning, stacklevel=3)
    return None
