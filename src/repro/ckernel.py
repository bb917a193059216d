"""Build and load the optional compiled C kernels.

Two kernels accelerate the simulator, each bit-identical to the Python
code it replaces, which stays as its oracle and fallback: the lane kernel
(:mod:`repro.cpu.lane_kernel`, the timing recurrence) and the trace
kernel (:mod:`repro.workloads.trace_kernel`, trace generation).  Each is
one :class:`CKernel`, and every kernel is built and loaded the same way:

* with the system ``gcc``, at first use (never at import);
* into a cache directory (``REPRO_KERNEL_CACHE``, else a per-user
  directory under the system temp directory) under an object name keyed
  by a hash of the source and the compile command, so an edited source
  rebuilds and an unchanged one loads the cached object;
* from a process-unique source file into a process-unique temp object
  renamed into place (atomic under POSIX), so concurrent workers building
  the same digest can neither truncate each other's source under gcc nor
  load a half-written object;
* failing soft: a failed build or load warns once per process and kernel,
  with the tail of gcc's stderr, and the caller runs its Python path; a
  cached object without the kernel's entry points is deleted so the next
  process rebuilds it.

``REPRO_NO_CKERNEL=1`` disables every kernel.

Every kernel entry point takes one pointer to an argument struct, an
:class:`Args` (the lane kernel's points to the first of an array of
them, :meth:`Args.pack_array`): its C ``typedef`` and its ``ctypes``
twin come from one field table, so the two layouts cannot disagree, and
:meth:`Args.pack` checks every array's dtype and contiguity before its
address reaches C.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import subprocess
import tempfile
import warnings

import numpy as np

__all__ = ["Args", "CKernel", "cache_dir"]

#: Field kind -> (C declaration, ctypes field, NumPy dtype a pointer
#: field's array must have; ``None`` for a scalar).
_KINDS = {
    "i64": ("int64_t ", ctypes.c_int64, None),
    "f64": ("double ", ctypes.c_double, None),
    "i64*": ("int64_t *", ctypes.c_void_p, np.dtype(np.int64)),
    "i8*": ("int8_t *", ctypes.c_void_p, np.dtype(np.int8)),
    "u8*": ("uint8_t *", ctypes.c_void_p, np.dtype(np.bool_)),
    "f64*": ("double *", ctypes.c_void_p, np.dtype(np.float64)),
    "u32*": ("uint32_t *", ctypes.c_void_p, np.dtype(np.uint32)),
}


class Args:
    """A kernel's argument struct, generated from one field table.

    ``fields`` lists ``(name, kind)`` in layout order.  A kind is a
    scalar (``"i64"``, ``"f64"``), a pointer (``"i64*"``, ``"i8*"``,
    ``"f64*"``, ``"u32*"``, or ``"u8*"`` for a NumPy ``bool`` array), or
    another :class:`Args`, nested by value.  :meth:`typedef` is the C
    declaration (nested types first) and :attr:`struct` the ``ctypes``
    type of the same layout.
    """

    def __init__(self, name: str, fields: "tuple[tuple[str, str | Args], ...]") -> None:
        self.name = name
        self.fields = dict(fields)
        self.struct = type(
            name,
            (ctypes.Structure,),
            {
                "_fields_": [
                    (field, kind.struct if isinstance(kind, Args) else _KINDS[kind][1])
                    for field, kind in self.fields.items()
                ]
            },
        )

    def typedef(self) -> str:
        """The C ``typedef``s of this struct, each nested type first, once."""
        nested = dict.fromkeys(k for k in self.fields.values() if isinstance(k, Args))
        lines = [k.typedef() for k in nested]
        lines.append("typedef struct {")
        lines += [
            f"    {kind.name} {name};" if isinstance(kind, Args)
            else f"    {_KINDS[kind][0]}{name};"
            for name, kind in self.fields.items()
        ]
        lines.append(f"}} {self.name};\n")
        return "\n".join(lines)

    def pack(self, **values) -> ctypes.Structure:
        """The struct holding ``values``; unset fields are 0 or ``NULL``.

        A pointer field takes a C-contiguous NumPy array of its dtype, or
        ``None`` for ``NULL``; a nested field takes a dict of its own
        fields.  Anything else is refused with a ``TypeError`` naming the
        field, because the kernel trusts every pointer.  The struct keeps
        its arrays alive, by field name (``ip.tags``) in ``_arrays``.
        """
        arrays: dict[str, np.ndarray] = {}
        struct = self._pack(values, "", arrays)
        struct._arrays = arrays
        return struct

    def pack_array(self, values: "list[dict]") -> ctypes.Array:
        """A C array of structs, one :meth:`pack` per dict in ``values``.
        An entry point taking a pointer to this struct gets the first
        element's address.  The array keeps every element's arrays alive
        (``_arrays``: one dict per element)."""
        structs = [self.pack(**fields) for fields in values]
        array = (self.struct * len(structs))(*structs)
        array._arrays = [struct._arrays for struct in structs]
        return array

    def _pack(self, values: dict, prefix: str, arrays: dict) -> ctypes.Structure:
        struct = self.struct()
        for name, value in values.items():
            kind = self.fields.get(name)
            if kind is None:
                raise TypeError(f"{prefix}{name} is not a field of {self.name}")
            if isinstance(kind, Args):
                value = kind._pack(value, f"{prefix}{name}.", arrays)
            elif _KINDS[kind][2] is not None and value is not None:
                dtype = _KINDS[kind][2]
                if (
                    not isinstance(value, np.ndarray)
                    or value.dtype != dtype
                    or not value.flags.c_contiguous
                ):
                    raise TypeError(f"{prefix}{name} must be a contiguous {dtype} array")
                arrays[f"{prefix}{name}"] = value
                value = value.ctypes.data
            setattr(struct, name, value)
        return struct


def cache_dir() -> str:
    """Where compiled objects are cached: ``REPRO_KERNEL_CACHE``, else a
    per-user directory under the system temp directory."""
    return os.environ.get("REPRO_KERNEL_CACHE") or os.path.join(
        tempfile.gettempdir(), f"repro-kernels-{os.getuid()}"
    )


class CKernel:
    """One optional compiled kernel.

    ``entries`` names the exported functions; each takes a pointer to an
    ``args`` struct and returns ``void``.  ``fallback`` names what runs
    instead, for the warning ("every simulation falls back to ...").
    Build results, success or failure, are memoised for the process.
    """

    def __init__(
        self,
        name: str,
        source: str,
        args: Args,
        entries: tuple[str, ...],
        fallback: str,
        cflags: tuple[str, ...] = (),
        libs: tuple[str, ...] = (),
    ) -> None:
        self.name = name
        self.source = source
        self.args = args
        self.entries = entries
        self.fallback = fallback
        self.cflags = cflags
        self.libs = libs
        self._lib: ctypes.CDLL | None = None
        self._failed = False
        self._warned = False

    @property
    def label(self) -> str:
        return self.name.replace("_", "-")

    def object_name(self) -> str:
        """File name of the compiled object cached for this source and
        command: the name :meth:`load` looks for in the cache directory."""
        key = "\n".join([*self._command(), *self.libs, self.source])
        return f"{self.name}_{hashlib.sha256(key.encode()).hexdigest()[:16]}.so"

    def _command(self) -> list[str]:
        return ["gcc", "-O2", *self.cflags, "-shared", "-fPIC"]

    def load(self) -> ctypes.CDLL | None:
        """The loaded library, or ``None`` when unavailable
        (``REPRO_NO_CKERNEL=1``, no working ``gcc``, load failure)."""
        if os.environ.get("REPRO_NO_CKERNEL"):
            return None
        if self._lib is None and not self._failed:
            self._lib = self._build()
            self._failed = self._lib is None
        return self._lib

    def _warn(self, message: str) -> None:
        """One warning per process: a broken toolchain in one pool worker
        would otherwise mean a silent fallback and a mysteriously slow
        campaign; the gcc stderr tail names the cause the first time."""
        if self._warned:
            return
        self._warned = True
        warnings.warn(
            f"{message}; {self.fallback} (slower). Set REPRO_NO_CKERNEL=1 "
            "to silence this warning.",
            RuntimeWarning,
            stacklevel=5,
        )

    def _build(self) -> ctypes.CDLL | None:
        lib_path = os.path.join(cache_dir(), self.object_name())
        if not os.path.exists(lib_path):
            stem = f"{lib_path[:-3]}.{os.getpid()}"
            src_path = f"{stem}.c"
            tmp_path = f"{stem}.so.tmp"
            try:
                os.makedirs(os.path.dirname(lib_path), exist_ok=True)
                with open(src_path, "w") as fh:
                    fh.write(self.source)
                subprocess.run(
                    [*self._command(), "-o", tmp_path, src_path, *self.libs],
                    check=True,
                    capture_output=True,
                    timeout=120,
                )
                os.replace(tmp_path, lib_path)
            except subprocess.CalledProcessError as exc:
                stderr = exc.stderr or b""
                tail = stderr.decode("utf-8", errors="replace").strip()[-800:]
                self._warn(
                    f"{self.label} build failed (gcc exited {exc.returncode}); "
                    f"gcc stderr tail:\n{tail}"
                )
                return None
            except (OSError, subprocess.SubprocessError) as exc:
                self._warn(f"{self.label} build unavailable ({exc!r})")
                return None
            finally:
                for path in (src_path, tmp_path):
                    with contextlib.suppress(OSError):
                        os.unlink(path)
        try:
            lib = ctypes.CDLL(lib_path)
            for entry in self.entries:
                fn = getattr(lib, entry)
                fn.argtypes = [ctypes.POINTER(self.args.struct)]
                fn.restype = None
        except (OSError, AttributeError) as exc:
            # An unloadable cached object, or one without an entry point,
            # would fail every later process too: drop it so the next
            # load rebuilds.
            self._warn(f"{self.label} load failed ({exc!r})")
            with contextlib.suppress(OSError):
                os.unlink(lib_path)
            return None
        return lib
